package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid/api"
)

// The scheduler/hydration verification tier. The property under test: the
// shared run-queue scheduler and the evict→hydrate cycle change only WHEN a
// session's work runs, never WHAT it computes — snapshots, query results and
// history reads stay byte-identical to a single-worker, never-evicted run,
// for any worker-pool size and any eviction points, across the engine's
// Workers × ShardCount parallelism matrix.

// matrixSessions is the session matrix the determinism tests create: one
// durable synthetic-floor session per engine (Workers, ShardCount) cell, plus
// one whose id is "default" — evicted and hydrated like the rest, where older
// servers kept a built-in session of that name resident forever.
var matrixSessions = []struct {
	id              string
	workers, shards int
}{
	{"m-w1-s1", 1, 1},
	{"m-w1-s8", 1, 8},
	{"m-w4-s1", 4, 1},
	{"m-w4-s8", 4, 8},
	{"default", 2, 4},
}

// startDensityServer boots a durable server with the given scheduler pool
// size / resident cap.
func startDensityServer(t *testing.T, dataDir string, schedWorkers, maxResident int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		IngestWait:      10 * time.Second,
		DataDir:         dataDir,
		CheckpointEvery: 5,
		Fsync:           wal.SyncNever, // determinism, not crash safety, is under test
		MaxSessions:     4096,
		SchedWorkers:    schedWorkers,
		MaxResident:     maxResident,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

// createMatrixSessions creates the Workers × ShardCount session matrix and
// registers the standard query pair on each.
func createMatrixSessions(t *testing.T, url string) {
	t.Helper()
	for i, m := range matrixSessions {
		req := api.CreateSessionRequest{
			ID:        m.id,
			Source:    api.SourceSynthetic,
			Synthetic: &api.SyntheticWorld{FloorX: 20, FloorY: 20, FloorZ: 6},
			Engine: &api.EngineConfig{
				ObjectParticles: 40, ReaderParticles: 12,
				Seed: int64(101 + i), Workers: m.workers, ShardCount: m.shards,
				HistoryEpochs: 16,
			},
		}
		if code := postJSON(t, url+"/v1/sessions", req, nil); code != http.StatusCreated {
			t.Fatalf("create session %q: status %d", m.id, code)
		}
		for _, spec := range []string{
			`{"kind":"location-updates","min_change":0.05}`,
			`{"kind":"windowed-aggregate","window_epochs":3,"op":"sum-weight","group_by":"area"}`,
		} {
			resp, err := http.Post(url+"/v1/sessions/"+m.id+"/queries", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Fatalf("register query on %s: %v", m.id, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("register query on %s: status %d", m.id, resp.StatusCode)
			}
		}
	}
}

// matrixBatch is session i's deterministic per-epoch batch: two tags walking
// distinct session-specific paths.
func matrixBatch(i, epoch int) api.IngestRequest {
	base := float64(2 + 3*i)
	return api.IngestRequest{
		Readings: []api.Reading{
			{Time: epoch, Tag: fmt.Sprintf("m%d-a", i)},
			{Time: epoch, Tag: fmt.Sprintf("m%d-b", i)},
		},
		Locations: []api.LocationReport{
			{Time: epoch, X: base + 0.2*float64(epoch), Y: base, Z: 3},
		},
	}
}

// ingestMatrixEpoch posts epoch ep to every matrix session.
func ingestMatrixEpoch(t *testing.T, url string, ep int) {
	t.Helper()
	for i, m := range matrixSessions {
		if code := postJSON(t, url+"/v1/sessions/"+m.id+"/ingest", matrixBatch(i, ep), nil); code != http.StatusAccepted {
			t.Fatalf("%s ingest epoch %d: status %d", m.id, ep, code)
		}
	}
}

// matrixOutputs is the byte-exact comparison surface over every matrix
// session: tracked-tag snapshots, both queries' full result streams, and a
// history read.
func matrixOutputs(t *testing.T, url string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range matrixSessions {
		base := url + "/v1/sessions/" + m.id
		var over api.SnapshotOverview
		getJSON(t, base+"/snapshot", &over)
		for _, tag := range over.Tracked {
			out[m.id+"/snapshot:"+tag] = getRaw(t, base+"/snapshot/"+tag)
		}
		for _, q := range []string{"q1", "q2"} {
			out[m.id+"/results:"+q] = getRaw(t, fmt.Sprintf("%s/queries/%s/results?after=-1", base, q))
		}
		out[m.id+"/history:10"] = getRaw(t, base+"/snapshot?epoch=10")
	}
	return out
}

// flushMatrix flushes every matrix session (the deterministic barrier).
func flushMatrix(t *testing.T, url string) {
	t.Helper()
	for _, m := range matrixSessions {
		if code := postJSON(t, url+"/v1/sessions/"+m.id+"/flush", map[string]any{}, nil); code != http.StatusOK {
			t.Fatalf("flush %s: status %d", m.id, code)
		}
	}
}

// forceEvict pushes an eviction op through the session's queue and waits for
// it; the caller must have quiesced the session (synchronous ingest/flush
// acks mean the queue is empty between requests). Returns false when the
// session was already evicted, so the op was a no-op.
func forceEvict(t *testing.T, sv *Server, sid string) bool {
	t.Helper()
	s, ok := sv.session(sid)
	if !ok {
		t.Fatalf("forceEvict: unknown session %q", sid)
	}
	wasResident := s.life.load().phase() == phaseServing
	res, err := s.call(op{kind: opEvict}, nil)
	if err != nil {
		t.Fatalf("forceEvict %s: %v", sid, err)
	}
	if res.err != nil {
		t.Fatalf("forceEvict %s: %v", sid, res.err)
	}
	if st := s.life.load().phase(); st != phaseEvicted {
		t.Fatalf("forceEvict %s: state %v after evict op, want evicted", sid, st)
	}
	return wasResident
}

// matrixReference computes the reference outputs: a single-worker pool, no
// eviction ever, epochs ingested strictly in order.
func matrixReference(t *testing.T, epochs int) map[string]string {
	t.Helper()
	sv, ts := startDensityServer(t, filepath.Join(t.TempDir(), "ref"), 1, 0)
	defer func() { ts.Close(); sv.Close() }()
	createMatrixSessions(t, ts.URL)
	for ep := 0; ep < epochs; ep++ {
		ingestMatrixEpoch(t, ts.URL, ep)
	}
	flushMatrix(t, ts.URL)
	return matrixOutputs(t, ts.URL)
}

// TestSchedulerEvictionDeterminism is the tentpole property: N sessions ×
// random worker-pool sizes × random eviction points produce outputs
// byte-identical to the single-worker never-evicted reference, across the
// engine Workers {1,4} × ShardCount {1,8} matrix. Every trial forces
// evictions mid-stream, so each continuation runs evict → hydrate → ingest
// repeatedly before the final comparison.
func TestSchedulerEvictionDeterminism(t *testing.T) {
	const epochs = 18
	want := matrixReference(t, epochs)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		workers := []int{1, 4, 1 + rng.Intn(8)}[trial]
		name := fmt.Sprintf("trial%d.w%d", trial, workers)
		sv, ts := startDensityServer(t, filepath.Join(t.TempDir(), name), workers, 0)
		createMatrixSessions(t, ts.URL)
		evictions := 0
		for ep := 0; ep < epochs; ep++ {
			ingestMatrixEpoch(t, ts.URL, ep)
			// Random eviction points: spill a random session mid-stream; the
			// next epoch's ingest transparently hydrates it.
			for rng.Intn(2) == 0 {
				if forceEvict(t, sv, matrixSessions[rng.Intn(len(matrixSessions))].id) {
					evictions++
				}
			}
			// Whatever the rng picked, "default" is spilled mid-stream once.
			if ep == epochs/2 && forceEvict(t, sv, "default") {
				evictions++
			}
		}
		flushMatrix(t, ts.URL)
		got := matrixOutputs(t, ts.URL)
		for key, wantBody := range want {
			if got[key] != wantBody {
				t.Fatalf("%s: %s diverged from the never-evicted reference:\n got %s\nwant %s",
					name, key, got[key], wantBody)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d output keys, reference has %d", name, len(got), len(want))
		}
		var m map[string]float64
		getJSON(t, ts.URL+"/v1/metrics?format=json", &m)
		if evictions == 0 {
			t.Fatalf("%s: rng produced no evictions; widen the eviction schedule", name)
		}
		if m["rfidserve_evictions_total"] < float64(evictions) {
			t.Fatalf("%s: evictions metric %v, want >= %d", name, m["rfidserve_evictions_total"], evictions)
		}
		if m["rfidserve_hydrations_total"] < 1 {
			t.Fatalf("%s: no hydrations recorded despite %d evictions", name, evictions)
		}
		ts.Close()
		sv.Close()
	}
}

// TestSchedulerConcurrentSessionsDeterminism drives the matrix sessions from
// concurrent producers over a 4-worker pool with a resident cap of 2, so the
// LRU evicts organically under load while dispatches from different sessions
// interleave on the shared pool. Per-session op order (one producer per
// session) is all the scheduler guarantees — and all determinism needs.
func TestSchedulerConcurrentSessionsDeterminism(t *testing.T) {
	const epochs = 18
	want := matrixReference(t, epochs)

	sv, ts := startDensityServer(t, filepath.Join(t.TempDir(), "conc"), 4, 2)
	defer func() { ts.Close(); sv.Close() }()
	createMatrixSessions(t, ts.URL)
	var wg sync.WaitGroup
	errs := make(chan error, len(matrixSessions))
	for i, m := range matrixSessions {
		wg.Add(1)
		go func(i int, sid string) {
			defer wg.Done()
			for ep := 0; ep < epochs; ep++ {
				if code := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/ingest", matrixBatch(i, ep), nil); code != http.StatusAccepted {
					errs <- fmt.Errorf("%s ingest epoch %d: status %d", sid, ep, code)
					return
				}
			}
		}(i, m.id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	flushMatrix(t, ts.URL)
	got := matrixOutputs(t, ts.URL)
	for key, wantBody := range want {
		if got[key] != wantBody {
			t.Fatalf("concurrent run: %s diverged from the sequential reference:\n got %s\nwant %s",
				key, got[key], wantBody)
		}
	}
}
