package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/rfid/api"
	"repro/rfid/wire"
)

// Churn stress for the resident-set LRU: many more sessions than the cap,
// created / ingested / idled / touched in random order, with the invariants
// that matter for density — no accepted op is ever lost across evict→hydrate
// cycles, no session is ever resident twice, and the resident set settles
// back under its cap once the storm passes.

// churnSessionID names churn session i.
func churnSessionID(i int) string { return fmt.Sprintf("c%d", i) }

// createChurnSession creates one tiny durable session (engines this small
// keep 2k sessions cheap; the inference output is irrelevant here).
func createChurnSession(t *testing.T, url string, i int) {
	t.Helper()
	req := api.CreateSessionRequest{
		ID:     churnSessionID(i),
		Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{
			ObjectParticles: 8, ReaderParticles: 4, Seed: int64(i + 1),
		},
	}
	if code := postJSON(t, url+"/v1/sessions", req, nil); code != http.StatusCreated {
		t.Fatalf("create churn session %d: status %d", i, code)
	}
}

func TestHydrationChurn(t *testing.T) {
	const maxResident = 16
	numSessions := 2000
	churnOps := 4000
	if testing.Short() {
		numSessions, churnOps = 256, 512
	}

	sv, ts := startDensityServer(t, t.TempDir(), 4, maxResident)
	defer func() { ts.Close(); sv.Close() }()

	// Phase 1: create every session concurrently. Creation makes a session
	// resident, so the LRU is already evicting hard during this phase.
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < numSessions; i += workers {
				createChurnSession(t, ts.URL, i)
			}
		}(g)
	}
	wg.Wait()

	// Phase 2: random churn. Each goroutine owns the sessions with
	// i % workers == g, so per-session ingest order (and thus the epoch
	// sequence) is serial even though the server sees all goroutines at once.
	expected := make([]int, numSessions) // accepted readings per session
	epochs := make([]int, numSessions)   // next epoch per session
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for n := 0; n < churnOps/workers; n++ {
				i := g + workers*rng.Intn(numSessions/workers)
				sid := churnSessionID(i)
				switch rng.Intn(4) {
				case 0, 1: // ingest: hydrates an evicted session
					nr := 1 + rng.Intn(3)
					req := api.IngestRequest{}
					for k := 0; k < nr; k++ {
						req.Readings = append(req.Readings,
							api.Reading{Time: epochs[i], Tag: fmt.Sprintf("c%d-t%d", i, k)})
					}
					epochs[i]++
					if code := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/ingest", req, nil); code != http.StatusAccepted {
						t.Errorf("churn ingest %s: status %d", sid, code)
						return
					}
					expected[i] += nr
				case 2: // read touch: hydrates too
					if code := getJSON(t, ts.URL+"/v1/sessions/"+sid+"/snapshot", nil); code != http.StatusOK {
						t.Errorf("churn snapshot %s: status %d", sid, code)
						return
					}
				case 3: // metadata read: must NOT hydrate (listing stays cheap)
					if code := getJSON(t, ts.URL+"/v1/sessions/"+sid, nil); code != http.StatusOK {
						t.Errorf("churn get %s: status %d", sid, code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// No lost ops: every accepted reading is counted exactly once, no matter
	// how many evict→hydrate cycles the session went through (recovery replay
	// does not re-count).
	var m map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &m)
	for i := 0; i < numSessions; i++ {
		key := fmt.Sprintf(`rfidserve_readings_total{session=%q}`, churnSessionID(i))
		if got := m[key]; got != float64(expected[i]) {
			t.Errorf("%s = %v, want %d", key, got, expected[i])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if m["rfidserve_evictions_total"] < float64(numSessions-maxResident) {
		t.Fatalf("evictions_total = %v, want >= %d (cap %d, %d sessions)",
			m["rfidserve_evictions_total"], numSessions-maxResident, maxResident, numSessions)
	}
	if m["rfidserve_hydrations_total"] < 1 {
		t.Fatal("no hydrations despite churn over an over-committed resident set")
	}

	// No double-resident session: the LRU list and its index agree, and no
	// session appears twice in the list.
	sv.res.mu.Lock()
	if sv.res.order.Len() != len(sv.res.elems) {
		t.Fatalf("LRU list has %d entries, index has %d", sv.res.order.Len(), len(sv.res.elems))
	}
	seen := map[*session]bool{}
	for el := sv.res.order.Front(); el != nil; el = el.Next() {
		s := el.Value.(*session)
		if seen[s] {
			t.Fatalf("session %q resident twice", s.id)
		}
		seen[s] = true
	}
	sv.res.mu.Unlock()

	// The resident set settles back under the cap: each idle touch sweeps all
	// over-cap victims, so a few touches bound the set (+1 for the toucher).
	settled := false
	for n := 0; n < 100 && !settled; n++ {
		getJSON(t, ts.URL+"/v1/sessions/"+churnSessionID(0)+"/snapshot", nil)
		time.Sleep(10 * time.Millisecond)
		settled = sv.res.residentCount() <= maxResident+1
	}
	if !settled {
		t.Fatalf("resident set never settled: %d resident, cap %d", sv.res.residentCount(), maxResident)
	}
}

// TestDeleteEvictedSessionSkipsHydration pins the eviction fast path of
// DELETE: removing an evicted session must tear down its durable state
// directly — rebuilding a particle filter just to throw it away would make
// bulk cleanup O(hydration).
func TestDeleteEvictedSessionSkipsHydration(t *testing.T) {
	dataDir := t.TempDir()
	sv, ts := startDensityServer(t, dataDir, 2, 0)
	defer func() { ts.Close(); sv.Close() }()

	createChurnSession(t, ts.URL, 0)
	sid := churnSessionID(0)
	for ep := 0; ep < 5; ep++ {
		req := api.IngestRequest{Readings: []api.Reading{{Time: ep, Tag: "d-obj"}}}
		if code := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/ingest", req, nil); code != http.StatusAccepted {
			t.Fatalf("ingest: status %d", code)
		}
	}
	forceEvict(t, sv, sid)
	dir := sv.sessionDir(sid)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("session dir %s missing before delete: %v", dir, err)
	}
	var before map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &before)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE evicted session: status %d", resp.StatusCode)
	}

	var after map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &after)
	if got, want := after["rfidserve_hydrations_total"], before["rfidserve_hydrations_total"]; got != want {
		t.Fatalf("DELETE hydrated the session: hydrations_total %v -> %v", want, got)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("session dir %s still present after delete (err=%v)", dir, err)
	}
	if code := getJSON(t, ts.URL+"/v1/sessions/"+sid, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still addressable: status %d", code)
	}
	// WAL and checkpoint directories of other sessions are untouched; the id
	// is immediately reusable.
	createChurnSession(t, ts.URL, 0)
	if _, err := os.Stat(filepath.Join(dataDir, "sessions")); err != nil {
		t.Fatalf("sessions root vanished: %v", err)
	}
}

// TestStreamResumeSurvivesEviction pins the stream resume point across an
// evict→hydrate cycle: the highest durably-applied batch sequence is part of
// the session image, so a client reconnecting to a session that was evicted in
// between resumes exactly where it left off.
func TestStreamResumeSurvivesEviction(t *testing.T) {
	sv, ts := startDensityServer(t, t.TempDir(), 2, 0)
	defer func() { ts.Close(); sv.Close() }()
	createChurnSession(t, ts.URL, 1)
	sid := churnSessionID(1)

	rs, hello := dialRawStream(t, ts.URL, sid)
	if hello.ResumeAfter != 0 {
		t.Fatalf("fresh stream hello.ResumeAfter = %d, want 0", hello.ResumeAfter)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		rs.sendBatch(seq, wire.APIBatch{
			Readings: []api.Reading{{Time: int(seq) - 1, Tag: "sr-obj"}},
		})
		rs.expectAck(seq)
	}
	rs.conn.Close()

	// Eviction refuses while the stream is attached; wait for the detach to
	// land, then force the evict.
	s, ok := sv.session(sid)
	if !ok {
		t.Fatalf("unknown session %q", sid)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.stream.Load() != nil {
		if time.Now().After(deadline) {
			t.Fatal("stream never detached after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	forceEvict(t, sv, sid)

	// Reconnect: the attach is a first touch that hydrates; the hello must
	// carry the pre-eviction resume point.
	rs2, hello2 := dialRawStream(t, ts.URL, sid)
	if hello2.ResumeAfter != 3 {
		t.Fatalf("post-eviction hello.ResumeAfter = %d, want 3", hello2.ResumeAfter)
	}
	if st := s.life.load().phase(); st != phaseServing {
		t.Fatalf("session state after stream reattach = %v, want serving", st)
	}
	// And the stream keeps working from there.
	rs2.sendBatch(4, wire.APIBatch{Readings: []api.Reading{{Time: 3, Tag: "sr-obj"}}})
	rs2.expectAck(4)
}
