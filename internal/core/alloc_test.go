package core

import (
	"testing"

	"repro/internal/stream"
)

// steadyEngines builds an inline single-worker engine and a fanned-out one
// with otherwise identical configuration, warms both over the same
// fixed-seed trace prefix (so every belief exists and every scratch buffer
// has reached capacity) and returns them together with a representative
// steady-state epoch to replay.
func steadyEngines(t *testing.T, workers, shards int) (inline, fanned *Engine, ep *stream.Epoch) {
	t.Helper()
	trace, err := generateWarehouse(smallTraceConfig(16, 11))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.Compression = false
	cfg.NumObjectParticles = 120
	cfg.NumReaderParticles = 25
	cfg.Seed = 17

	inline = newEngine(t, cfg, 1, shards)
	fanned = newEngine(t, cfg, workers, shards)
	warm := len(trace.Epochs) - 1
	if warm < 40 {
		t.Fatalf("trace too short: %d epochs", len(trace.Epochs))
	}
	for _, ep := range trace.Epochs[:warm] {
		if _, err := inline.ProcessEpoch(ep); err != nil {
			t.Fatalf("inline ProcessEpoch: %v", err)
		}
		if _, err := fanned.ProcessEpoch(ep); err != nil {
			t.Fatalf("fanned-out ProcessEpoch: %v", err)
		}
	}
	return inline, fanned, trace.Epochs[warm]
}

// TestEpochAllocsIndependentOfWorkers is the regression gate for the
// fan-out's allocation behaviour: dispatching an epoch across workers must
// not allocate more than running the same shards inline on one. This pins
// the persistent work channel and the field-published fan-out state — a
// closure-based dispatcher allocates a fresh channel plus one closure per
// worker every epoch.
func TestEpochAllocsIndependentOfWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	inline, fanned, ep := steadyEngines(t, 4, 16)

	// One unmeasured pass each so lazily grown buffers reach capacity.
	if _, err := inline.ProcessEpoch(ep); err != nil {
		t.Fatalf("inline ProcessEpoch: %v", err)
	}
	if _, err := fanned.ProcessEpoch(ep); err != nil {
		t.Fatalf("fanned-out ProcessEpoch: %v", err)
	}

	inlineAllocs := testing.AllocsPerRun(30, func() {
		if _, err := inline.ProcessEpoch(ep); err != nil {
			t.Errorf("inline ProcessEpoch: %v", err)
		}
	})
	fannedAllocs := testing.AllocsPerRun(30, func() {
		if _, err := fanned.ProcessEpoch(ep); err != nil {
			t.Errorf("fanned-out ProcessEpoch: %v", err)
		}
	})
	if fannedAllocs > inlineAllocs {
		t.Errorf("Workers=4 epoch allocates %.2f times, Workers=1 %.2f; fan-out must not allocate more",
			fannedAllocs, inlineAllocs)
	}
	// Absolute backstop: the steady-state epoch allocates at most the
	// prologue's small constant (observed-list and index temporaries), never
	// per-worker or per-shard churn.
	const maxEpochAllocs = 16
	if fannedAllocs > maxEpochAllocs {
		t.Errorf("Workers=4 epoch allocates %.2f times; want <= %d", fannedAllocs, maxEpochAllocs)
	}
}
