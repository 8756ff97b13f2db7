package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/stream"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when it is lower, so
// that a Workers=2 engine gets a fan-out helper that waits between epochs.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// waitFor polls cond every 100 µs until it holds or limit passes, and
// reports whether it held.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// exitedHelper reports whether e's waiting helper has exited.
func exitedHelper(e *Engine) bool {
	return e.waiter.Load() == helperExited
}

// TestFanOutHelperPaths runs one trace through a Workers=2 engine twice:
// back to back, where the helper that finished one epoch is still waiting
// when the next begins and is handed it without a new goroutine, and in
// pairs of epochs with a pause after each pair that outlasts the helper's
// wait, so that no epoch finds the helper waiting and each starts a fresh
// one (the helper of a pair's first epoch does not wait, as that epoch came
// after a pause; the second's waits until its wait expires). Both must emit,
// epoch by epoch, what the inline Workers=1 engine emits. The particle counts are small and
// nothing runs between back-to-back epochs, so that even under the race
// detector most epochs begin within helperLinger of the previous one.
func TestFanOutHelperPaths(t *testing.T) {
	atLeastTwoProcs(t)
	epochs, cfg := goldenTrace(t, 12)
	cfg.NumObjectParticles, cfg.NumReaderParticles = 40, 10
	run := func(t *testing.T, workers int, between func(e *Engine, k int)) (*Engine, [][]stream.Event) {
		t.Helper()
		eng := newEngine(t, cfg, workers)
		out := make([][]stream.Event, len(epochs))
		for k, ep := range epochs {
			events, err := eng.ProcessEpoch(ep)
			if err != nil {
				t.Fatalf("ProcessEpoch: %v", err)
			}
			out[k] = events
			between(eng, k)
		}
		return eng, out
	}
	_, want := run(t, 1, func(*Engine, int) {})
	check := func(t *testing.T, eng *Engine, got [][]stream.Event) {
		t.Helper()
		if !eng.mayWait {
			t.Fatal("Workers=2 engine with GOMAXPROCS >= 2 has no waiting helper")
		}
		for k := range epochs {
			if !bytes.Equal(encodeEvents(t, got[k]), encodeEvents(t, want[k])) {
				t.Fatalf("epoch %d: emissions differ from Workers=1", epochs[k].Time)
			}
		}
	}

	t.Run("reuse", func(t *testing.T) {
		waiting := 0
		eng, got := run(t, 2, func(e *Engine, k int) {
			if k+1 < len(epochs) && e.waiter.Load() == helperWaiting {
				waiting++
			}
		})
		check(t, eng, got)
		t.Logf("helper waiting at %d of %d epoch starts", waiting, len(epochs)-1)
		if waiting == 0 {
			t.Errorf("no back-to-back epoch found the helper waiting; the reuse path never ran")
		}
	})
	t.Run("respawn", func(t *testing.T) {
		eng, got := run(t, 2, func(e *Engine, k int) {
			if k%2 == 0 {
				if !exitedHelper(e) {
					t.Fatalf("epoch %d came after a pause, yet its helper waits", k)
				}
				return
			}
			if !waitFor(5*time.Second, func() bool { return exitedHelper(e) }) {
				t.Fatalf("helper still waiting 5s after its epoch (wait is %v)", helperLinger)
			}
			// The wait counts from the helper's finish, the gap that
			// decides whether the next epoch's helper waits from the end of
			// the fan-out, a little later.
			time.Sleep(helperLinger)
		})
		check(t, eng, got)
	})
}

// TestFanOutHelpersExitAfterLastEpoch checks that an engine leaves no
// goroutine behind: once it stops receiving epochs, the goroutine count
// returns to what it was before the engine was built. Workers=4 has one
// helper that waits between epochs and two that never wait.
func TestFanOutHelpersExitAfterLastEpoch(t *testing.T) {
	atLeastTwoProcs(t)
	epochs, cfg := goldenTrace(t, 12)
	// Let helpers of engines built by earlier tests finish their wait.
	time.Sleep(5 * helperLinger)
	baseline := runtime.NumGoroutine()

	eng := newEngine(t, cfg, 4)
	var events []stream.Event
	for _, ep := range epochs {
		got, err := eng.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("ProcessEpoch: %v", err)
		}
		events = append(events, got...)
	}
	if len(events) == 0 {
		t.Fatal("run emitted no events; it exercises nothing")
	}
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("%d goroutines 5s after the last epoch, %d before the engine was built", runtime.NumGoroutine(), baseline)
	}
}
