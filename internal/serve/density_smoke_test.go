package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid/api"
	"repro/rfid/client"
)

// The density-smoke test is the resident-set counterpart of the stream-smoke
// test: a REAL child process serves the v1 API with -max-resident far below
// the session count, the parent drives hundreds of durable sessions through
// the SDK (so the LRU is constantly evicting and hydrating), SIGKILLs the
// child mid-churn at a durable quiescent point, restarts it on the same data
// directory — which lazily restores most sessions in the evicted state — and
// finishes the workload. Final per-session state must be byte-identical to an
// uninterrupted run with NO resident cap, proving kill -9 recovery and
// evict→hydrate cycles compose without changing a single output byte. This is
// the `make density-smoke` CI gate.

const densitySmokeChildEnv = "RFIDSERVE_DENSITYSMOKE_CHILD"

const (
	densitySessions    = 512
	densityMaxResident = 64
)

// TestDensitySmokeChild is the child-process body; it only runs when
// re-executed by TestDensitySmoke.
func TestDensitySmokeChild(t *testing.T) {
	if os.Getenv(densitySmokeChildEnv) == "" {
		t.Skip("not a density-smoke child")
	}
	maxResident, err := strconv.Atoi(os.Getenv("RFIDSERVE_DENSITYSMOKE_MAXRES"))
	if err != nil {
		t.Fatalf("bad max-resident env: %v", err)
	}
	srv, err := New(Config{
		DataDir:         os.Getenv("RFIDSERVE_DENSITYSMOKE_DIR"),
		CheckpointEvery: 4,
		Fsync:           wal.SyncAlways,
		MaxSessions:     1024,
		MaxResident:     maxResident,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	// Serve until killed; the parent ends this process with SIGKILL.
	t.Fatal(http.ListenAndServe(os.Getenv("RFIDSERVE_DENSITYSMOKE_ADDR"), srv.Handler()))
}

// spawnDensitySmokeChild starts the child and waits until it serves.
func spawnDensitySmokeChild(t *testing.T, dataDir, addr string, maxResident int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDensitySmokeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		densitySmokeChildEnv+"=1",
		"RFIDSERVE_DENSITYSMOKE_DIR="+dataDir,
		"RFIDSERVE_DENSITYSMOKE_ADDR="+addr,
		"RFIDSERVE_DENSITYSMOKE_MAXRES="+strconv.Itoa(maxResident),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	c := client.New("http://" + addr)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		hz, err := c.Health(context.Background())
		if err == nil && hz.OK && hz.State == "serving" {
			return cmd
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("child never became healthy")
	return nil
}

func densitySessionID(i int) string { return fmt.Sprintf("d%03d", i) }

// densityForEach runs fn(i) for every density session with bounded
// concurrency; sessions are partitioned by index, so per-session order is
// serial.
func densityForEach(t *testing.T, fn func(i int) error) {
	t.Helper()
	const lanes = 16
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for g := 0; g < lanes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < densitySessions; i += lanes {
				if err := fn(i); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// densityCreateAll creates every session over the SDK.
func densityCreateAll(t *testing.T, c *client.Client) {
	t.Helper()
	densityForEach(t, func(i int) error {
		_, err := c.CreateSession(context.Background(), api.CreateSessionRequest{
			ID:     densitySessionID(i),
			Source: api.SourceSynthetic,
			Engine: &api.EngineConfig{
				ObjectParticles: 10, ReaderParticles: 4,
				Seed: int64(i + 1), Workers: 1,
			},
		})
		return err
	})
}

// densityWave ingests epochs [lo, hi) into every session, then flushes each
// one. The flush queues behind the ingests and returns only after they are
// applied and WAL-appended (SyncAlways), so when the wave returns EVERY
// accepted record is durable — a quiescent point where kill -9 loses nothing.
func densityWave(t *testing.T, c *client.Client, lo, hi int) {
	t.Helper()
	densityForEach(t, func(i int) error {
		sess := c.Session(densitySessionID(i))
		for ep := lo; ep < hi; ep++ {
			_, err := sess.Ingest(context.Background(), api.IngestRequest{
				Readings: []api.Reading{{Time: ep, Tag: fmt.Sprintf("d%d-obj", i)}},
				Locations: []api.LocationReport{
					{Time: ep, X: float64(1 + i%30), Y: float64(1 + i/30), Z: 3},
				},
			})
			if err != nil {
				return fmt.Errorf("session %d ingest epoch %d: %w", i, ep, err)
			}
		}
		if _, err := sess.Flush(context.Background(), false); err != nil {
			return fmt.Errorf("session %d flush: %w", i, err)
		}
		return nil
	})
}

// densityFingerprints samples per-session state fingerprints (every 16th
// session plus the last one).
func densityFingerprints(t *testing.T, base string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for i := 0; i < densitySessions; i += 16 {
		out[densitySessionID(i)] = stateFingerprint(t, base, densitySessionID(i))
	}
	last := densitySessionID(densitySessions - 1)
	out[last] = stateFingerprint(t, base, last)
	return out
}

// TestDensitySmoke: 512 durable sessions churned against a 64-session
// resident cap in a real process, kill -9 mid-churn, recovery, and a
// byte-identical comparison against an uncapped, uninterrupted run.
func TestDensitySmoke(t *testing.T) {
	if os.Getenv(densitySmokeChildEnv) != "" {
		t.Skip("density-smoke child runs only its own test")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	addrs := [2]string{}
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}

	// Uninterrupted, uncapped reference on its own data directory.
	refChild := spawnDensitySmokeChild(t, t.TempDir(), addrs[0], 0)
	defer func() {
		_ = refChild.Process.Kill()
		_, _ = refChild.Process.Wait()
	}()
	refClient := client.New("http://" + addrs[0])
	densityCreateAll(t, refClient)
	densityWave(t, refClient, 0, 3)
	densityWave(t, refClient, 3, 6)
	want := densityFingerprints(t, "http://"+addrs[0])

	// Capped run: churn, kill -9 at a durable quiescent point, restart on the
	// same directory (most sessions boot lazily in the evicted state), finish.
	dataDir := t.TempDir()
	child := spawnDensitySmokeChild(t, dataDir, addrs[1], densityMaxResident)
	base := "http://" + addrs[1]
	c := client.New(base)
	densityCreateAll(t, c)
	densityWave(t, c, 0, 3)
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = child.Wait()
	child2 := spawnDensitySmokeChild(t, dataDir, addrs[1], densityMaxResident)
	defer func() {
		_ = child2.Process.Kill()
		_, _ = child2.Process.Wait()
	}()
	densityWave(t, c, 3, 6)
	got := densityFingerprints(t, base)

	for sid, wantFP := range want {
		if got[sid] != wantFP {
			t.Fatalf("session %s state diverged from uncapped uninterrupted run:\nwant %s\ngot  %s",
				sid, wantFP, got[sid])
		}
	}
	if want[densitySessionID(0)] == "" {
		t.Fatal("empty fingerprint: the comparison is vacuous")
	}

	// The capped run must actually have been density-stressed: the cap held
	// and the LRU evicted/hydrated continuously.
	var m map[string]float64
	getJSON(t, base+"/v1/metrics?format=json", &m)
	if m["rfidserve_evictions_total"] < densitySessions-densityMaxResident {
		t.Fatalf("evictions_total = %v, want >= %d", m["rfidserve_evictions_total"], densitySessions-densityMaxResident)
	}
	if m["rfidserve_hydrations_total"] < 1 {
		t.Fatal("no hydrations in the capped run")
	}
	// Eviction is asynchronous (each one spills the session image), so the
	// resident set converges to the cap rather than tracking it instantly;
	// touches sweep the over-cap tail until it settles.
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, base+"/v1/sessions/"+densitySessionID(0)+"/snapshot", nil)
		getJSON(t, base+"/v1/metrics?format=json", &m)
		if m["rfidserve_resident_sessions"] <= densityMaxResident+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resident set never settled: resident_sessions = %v, cap %d",
				m["rfidserve_resident_sessions"], densityMaxResident)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
