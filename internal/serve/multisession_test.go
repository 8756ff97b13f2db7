package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// apiWorld converts a trace's world into its wire form, the shape POST
// /v1/sessions accepts.
func apiWorld(w *rfid.World) *api.World {
	out := &api.World{}
	for _, sh := range w.Shelves {
		out.Shelves = append(out.Shelves, api.Shelf{
			ID:  sh.ID,
			Min: api.Vec3{X: sh.Region.Min.X, Y: sh.Region.Min.Y, Z: sh.Region.Min.Z},
			Max: api.Vec3{X: sh.Region.Max.X, Y: sh.Region.Max.Y, Z: sh.Region.Max.Z},
		})
	}
	for _, id := range w.ShelfTagIDs() {
		loc := w.ShelfTags[id]
		out.ShelfTags = append(out.ShelfTags, api.ShelfTag{
			Tag: string(id), Loc: api.Vec3{X: loc.X, Y: loc.Y, Z: loc.Z},
		})
	}
	return out
}

// createTwoSessions sets up the two-session world this file's tests share:
// "wh", a warehouse-world session fed the simulated trace, and "floor", a
// synthetic-floor session fed a hand-rolled stream — different worlds,
// different seeds, different configs, one process.
func createTwoSessions(t *testing.T, url string, trace *rfid.Trace) {
	t.Helper()
	for _, req := range []api.CreateSessionRequest{
		{
			ID:     "wh",
			World:  apiWorld(trace.World),
			Engine: &api.EngineConfig{ObjectParticles: 120, ReaderParticles: 30, Seed: 21, HistoryEpochs: 64},
		},
		{
			ID:        "floor",
			Source:    api.SourceSynthetic,
			Synthetic: &api.SyntheticWorld{FloorX: 20, FloorY: 20, FloorZ: 6},
			Engine:    &api.EngineConfig{ObjectParticles: 90, ReaderParticles: 25, Seed: 5},
		},
	} {
		var sess api.Session
		if code := postJSON(t, url+"/v1/sessions", req, &sess); code != http.StatusCreated {
			t.Fatalf("create session %q: status %d", req.ID, code)
		}
		if sess.ID != req.ID {
			t.Fatalf("created session = %+v, want id %q", sess, req.ID)
		}
	}
	for _, sid := range []string{"wh", "floor"} {
		for _, spec := range []string{
			`{"kind":"location-updates","min_change":0.05}`,
			`{"kind":"windowed-aggregate","window_epochs":3,"op":"sum-weight","group_by":"area"}`,
		} {
			resp, err := http.Post(url+"/v1/sessions/"+sid+"/queries", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Fatalf("register query on %s: %v", sid, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("register query on %s: status %d", sid, resp.StatusCode)
			}
		}
	}
}

// floorBatch is the synthetic per-epoch batch the "floor" session ingests.
func floorBatch(epoch int) api.IngestRequest {
	return api.IngestRequest{
		Readings: []api.Reading{
			{Time: epoch, Tag: "item-1"},
			{Time: epoch, Tag: "item-2"},
		},
		Locations: []api.LocationReport{{Time: epoch, X: 1 + 0.15*float64(epoch), Y: 3, Z: 3}},
	}
}

// ingestTwoSessions feeds epochs [from, to) to both sessions: the trace to
// "wh", the synthetic stream to "floor".
func ingestTwoSessions(t *testing.T, url string, rByT map[int][]rfid.Reading, lByT map[int][]rfid.LocationReport, from, to int) {
	t.Helper()
	for ep := from; ep < to; ep++ {
		req := api.IngestRequest{}
		for _, r := range rByT[ep] {
			req.Readings = append(req.Readings, api.Reading{Time: r.Time, Tag: string(r.Tag)})
		}
		for _, l := range lByT[ep] {
			req.Locations = append(req.Locations, api.LocationReport{Time: l.Time, X: l.Pos.X, Y: l.Pos.Y, Z: l.Pos.Z, Phi: l.Phi, HasPhi: l.HasPhi})
		}
		if code := postJSON(t, url+"/v1/sessions/wh/ingest", req, nil); code != http.StatusAccepted {
			t.Fatalf("wh ingest epoch %d: status %d", ep, code)
		}
		if code := postJSON(t, url+"/v1/sessions/floor/ingest", floorBatch(ep), nil); code != http.StatusAccepted {
			t.Fatalf("floor ingest epoch %d: status %d", ep, code)
		}
	}
}

// twoSessionOutputs collects the byte-exact comparison surface of both
// sessions: every tracked tag's snapshot, both queries' full result streams,
// and a history read on the session that retains history.
func twoSessionOutputs(t *testing.T, url string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, sid := range []string{"wh", "floor"} {
		base := url + "/v1/sessions/" + sid
		var over api.SnapshotOverview
		getJSON(t, base+"/snapshot", &over)
		for _, tag := range over.Tracked {
			out[sid+"/snapshot:"+tag] = getRaw(t, base+"/snapshot/"+tag)
		}
		for _, q := range []string{"q1", "q2"} {
			out[sid+"/results:"+q] = getRaw(t, fmt.Sprintf("%s/queries/%s/results?after=-1", base, q))
		}
	}
	out["wh/history:10"] = getRaw(t, url+"/v1/sessions/wh/snapshot?epoch=10")
	return out
}

// flushBoth flushes both sessions (the deterministic barrier).
func flushBoth(t *testing.T, url string) {
	t.Helper()
	for _, sid := range []string{"wh", "floor"} {
		if code := postJSON(t, url+"/v1/sessions/"+sid+"/flush", map[string]any{}, nil); code != http.StatusOK {
			t.Fatalf("flush %s: status %d", sid, code)
		}
	}
}

// TestMultiSessionCrashRecovery is the multi-tenant acceptance property: two
// sessions with different worlds, seeds and configs run concurrently in one
// durable server, each persisting under its own DataDir/sessions/<id>
// subdirectory; after a crash (no graceful shutdown) a fresh server rebuilds
// both sessions from their manifests and recovers each from its own
// checkpoint + WAL tail, with snapshots, query results and history reads
// byte-identical to an uninterrupted run — and with the two sessions fully
// isolated from each other.
func TestMultiSessionCrashRecovery(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)

	// Reference: one uninterrupted, non-durable run.
	_, refTS := startRecoveryServer(t, trace, 1, 1, "")
	defer refTS.Close()
	createTwoSessions(t, refTS.URL, trace)
	ingestTwoSessions(t, refTS.URL, rByT, lByT, 0, maxT+1)
	flushBoth(t, refTS.URL)
	want := twoSessionOutputs(t, refTS.URL)

	// Isolation sanity on the reference: the two sessions track disjoint
	// object sets.
	var whOver, floorOver api.SnapshotOverview
	getJSON(t, refTS.URL+"/v1/sessions/wh/snapshot", &whOver)
	getJSON(t, refTS.URL+"/v1/sessions/floor/snapshot", &floorOver)
	if len(whOver.Tracked) == 0 || len(floorOver.Tracked) != 2 {
		t.Fatalf("tracked: wh=%v floor=%v", whOver.Tracked, floorOver.Tracked)
	}
	for _, tag := range floorOver.Tracked {
		for _, other := range whOver.Tracked {
			if tag == other {
				t.Fatalf("sessions share tag %q", tag)
			}
		}
	}

	for _, kill := range []int{3, 8 + maxT/2} {
		name := fmt.Sprintf("kill%d", kill)
		dataDir := filepath.Join(t.TempDir(), name)

		srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
		createTwoSessions(t, tsA.URL, trace)
		ingestTwoSessions(t, tsA.URL, rByT, lByT, 0, kill)
		// Crash: no final seal, no final checkpoint, for ANY session.
		tsA.Close()
		srvA.CloseNow()

		// Both sessions must persist under their own subdirectories.
		for _, sid := range []string{"wh", "floor"} {
			segs, err := wal.Segments(filepath.Join(dataDir, "sessions", sid))
			if err != nil || len(segs) == 0 {
				t.Fatalf("%s: no wal segments for session %s (err %v)", name, sid, err)
			}
		}

		// Recover: the new server rebuilds both sessions from their
		// manifests before replaying their WALs.
		srvB, tsB := startRecoveryServer(t, trace, 1, 1, dataDir)
		var list api.SessionList
		if code := getJSON(t, tsB.URL+"/v1/sessions", &list); code != http.StatusOK || len(list.Sessions) != 3 {
			t.Fatalf("%s: %d sessions after recovery, want 3 (default, wh, floor)", name, len(list.Sessions))
		}
		ingestTwoSessions(t, tsB.URL, rByT, lByT, kill, maxT+1)
		flushBoth(t, tsB.URL)
		got := twoSessionOutputs(t, tsB.URL)
		for key, wantBody := range want {
			if got[key] != wantBody {
				t.Fatalf("%s: %s diverged after multi-session crash recovery:\n got %s\nwant %s",
					name, key, got[key], wantBody)
			}
		}
		tsB.Close()
		srvB.Close()
	}
}

// TestSessionDeleteRemovesDurableState pins DELETE semantics: a deleted
// session's directory is gone, it does not come back on restart, and its id
// is reusable.
func TestSessionDeleteRemovesDurableState(t *testing.T) {
	trace, rByT, lByT, _ := recoveryTrace(t)
	dataDir := t.TempDir()

	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	createTwoSessions(t, tsA.URL, trace)
	ingestTwoSessions(t, tsA.URL, rByT, lByT, 0, 4)

	req, _ := http.NewRequest(http.MethodDelete, tsA.URL+"/v1/sessions/floor", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session: status %d", resp.StatusCode)
	}
	if code := getJSON(t, tsA.URL+"/v1/sessions/floor", nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still addressable: status %d", code)
	}
	tsA.Close()
	srvA.Close()

	srvB, tsB := startRecoveryServer(t, trace, 1, 1, dataDir)
	defer func() { tsB.Close(); srvB.Close() }()
	var list api.SessionList
	getJSON(t, tsB.URL+"/v1/sessions", &list)
	for _, s := range list.Sessions {
		if s.ID == "floor" {
			t.Fatal("deleted session resurrected on restart")
		}
	}
	// The id is reusable after deletion.
	var sess api.Session
	if code := postJSON(t, tsB.URL+"/v1/sessions", api.CreateSessionRequest{ID: "floor", Source: api.SourceSynthetic}, &sess); code != http.StatusCreated {
		t.Fatalf("recreate deleted id: status %d", code)
	}
}

// TestRestoreIgnoresSessionLimit pins the boot-vs-admission split: lowering
// MaxSessions below the persisted session count must not make the server
// unbootable — restore bypasses the limit, and only NEW creates are refused.
func TestRestoreIgnoresSessionLimit(t *testing.T) {
	trace, _, _, _ := recoveryTrace(t)
	dataDir := t.TempDir()

	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	createTwoSessions(t, tsA.URL, trace) // wh + floor persisted
	tsA.Close()
	srvA.Close()

	srvB, err := New(Config{DataDir: dataDir, Fsync: wal.SyncAlways, MaxSessions: 2})
	if err != nil {
		t.Fatalf("server with MaxSessions below persisted count failed to boot: %v", err)
	}
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	var list api.SessionList
	if code := getJSON(t, tsB.URL+"/v1/sessions", &list); code != http.StatusOK || len(list.Sessions) != 3 {
		t.Fatalf("recovered %d sessions over the limit, want all 3", len(list.Sessions))
	}
	// New creates are refused while over the cap.
	if code := postJSON(t, tsB.URL+"/v1/sessions", api.CreateSessionRequest{ID: "extra"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create over limit: status %d, want 503", code)
	}
}

// TestLongPollServerSide pins the server half of the long-poll contract
// without the SDK: wait is capped, bad durations 400, and ?wait holds the
// request until rows arrive.
func TestLongPollServerSide(t *testing.T) {
	_, ts, readings, locations := newTestServer(t, 16)

	var info struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+sessPath+"/queries", map[string]any{"kind": "location-updates"}, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if code := getJSON(t, ts.URL+sessPath+"/queries/"+info.ID+"/results?wait=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d, want 400", code)
	}

	ingested := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		var rs []rfid.Reading
		for _, r := range readings {
			if r.Time == 0 {
				rs = append(rs, r)
			}
		}
		var locs []rfid.LocationReport
		for _, l := range locations {
			if l.Time == 0 {
				locs = append(locs, l)
			}
		}
		body, err := json.Marshal(ingestBody(rs, locs))
		if err != nil {
			ingested <- err
			return
		}
		resp, err := http.Post(ts.URL+sessPath+"/ingest", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ingested <- err
	}()

	start := time.Now()
	var page struct {
		Results []struct {
			Seq int `json:"seq"`
		} `json:"results"`
	}
	if code := getJSON(t, ts.URL+sessPath+"/queries/"+info.ID+"/results?after=-1&wait=30s", &page); code != http.StatusOK {
		t.Fatalf("long poll: status %d", code)
	}
	if err := <-ingested; err != nil {
		t.Fatalf("background ingest: %v", err)
	}
	if len(page.Results) == 0 {
		t.Fatal("long poll returned no rows after delivery")
	}
	if el := time.Since(start); el < 150*time.Millisecond || el > 10*time.Second {
		t.Fatalf("long poll latency %v outside the delivery window", el)
	}
}
