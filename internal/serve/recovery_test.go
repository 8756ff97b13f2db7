package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// recoveryTrace generates the shared small warehouse trace and groups its raw
// streams into per-epoch batches.
func recoveryTrace(t *testing.T) (*rfid.Trace, map[int][]rfid.Reading, map[int][]rfid.LocationReport, int) {
	t.Helper()
	simCfg := rfid.DefaultWarehouseConfig()
	simCfg.NumObjects = 6
	simCfg.NumShelfTags = 4
	simCfg.Seed = 21
	trace, err := rfid.SimulateWarehouse(simCfg)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	readings, locations := rfid.RawStreams(trace)
	rByT := make(map[int][]rfid.Reading)
	lByT := make(map[int][]rfid.LocationReport)
	maxT := 0
	for _, r := range readings {
		rByT[r.Time] = append(rByT[r.Time], r)
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	for _, l := range locations {
		lByT[l.Time] = append(lByT[l.Time], l)
		if l.Time > maxT {
			maxT = l.Time
		}
	}
	return trace, rByT, lByT, maxT
}

// recoveryRequest is the session the recovery tests share.
func recoveryRequest(trace *rfid.Trace, workers, shards int) api.CreateSessionRequest {
	return sessionRequest(trace.World, api.EngineConfig{
		ObjectParticles: 120, ReaderParticles: 30, Seed: 21, HistoryEpochs: 256,
		Workers: workers, ShardCount: shards,
	})
}

// startRecoveryServer builds a server (durable when dataDir is non-empty)
// hosting the recovery session and waits for it to be ready. On a restart the
// session's manifest is first rewritten to the requested parallelism, so the
// recovered engine is free to differ from the crashed one in Workers and
// ShardCount.
func startRecoveryServer(t *testing.T, trace *rfid.Trace, workers, shards int, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	req := recoveryRequest(trace, workers, shards)
	if sessionPersisted(dataDir, req.ID) {
		putManifest(t, dataDir, req)
	}
	srv, err := New(Config{
		IngestWait:      10 * time.Second,
		DataDir:         dataDir,
		CheckpointEvery: 7,
		Fsync:           wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	openSession(t, srv, req)
	return srv, httptest.NewServer(srv.Handler())
}

// ingestEpochs posts epochs [from, to) one batch per epoch.
func ingestEpochs(t *testing.T, url string, rByT map[int][]rfid.Reading, lByT map[int][]rfid.LocationReport, from, to int) {
	t.Helper()
	for tt := from; tt < to; tt++ {
		req := api.IngestRequest{}
		for _, r := range rByT[tt] {
			req.Readings = append(req.Readings, api.Reading{Time: r.Time, Tag: string(r.Tag)})
		}
		for _, l := range lByT[tt] {
			req.Locations = append(req.Locations, api.LocationReport{Time: l.Time, X: l.Pos.X, Y: l.Pos.Y, Z: l.Pos.Z, Phi: l.Phi, HasPhi: l.HasPhi})
		}
		if code := postJSON(t, url+sessPath+"/ingest", req, nil); code != http.StatusAccepted {
			t.Fatalf("ingest epoch %d: status %d", tt, code)
		}
	}
}

// registerRecoveryQueries registers the query set whose results the
// equivalence check compares.
func registerRecoveryQueries(t *testing.T, url string) {
	t.Helper()
	for _, spec := range []string{
		`{"kind":"location-updates","min_change":0.05}`,
		`{"kind":"windowed-aggregate","window_epochs":3,"op":"sum-weight","group_by":"area"}`,
	} {
		resp, err := http.Post(url+sessPath+"/queries", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("register query: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register query: status %d", resp.StatusCode)
		}
	}
}

// sessionMetric reads one series of the session `default` off /v1/metrics.
func sessionMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	var m map[string]float64
	getJSON(t, base+"/v1/metrics?format=json", &m)
	return m[name+`{session="default"}`]
}

// deleteQuery issues DELETE .../queries/{id} and returns the status code.
func deleteQuery(t *testing.T, base, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+sessPath+"/queries/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE query %s: %v", id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// recordOutcomeMix drives, against the session `default`, one of each outcome
// a log record can have beyond "batch applied": a mid-stream windows flush, a
// flush that finds nothing buffered (answered, but not a mutation — no WAL
// record), the removal of a live query and of an unknown id, a history-mode
// registration the registry refuses, and a registration after the refusal
// (its id shows whether a replay refused identically). It leaves one extra
// query registered. Every node of an equivalence check runs it at the same
// point of the stream.
func recordOutcomeMix(t *testing.T, base string, durable bool) {
	t.Helper()
	walRecords := func() float64 { return sessionMetric(t, base, "rfidserve_wal_records_total") }
	before := walRecords()
	if code := postJSON(t, base+sessPath+"/flush?windows=true", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("mid-stream windows flush: status %d", code)
	}
	sealed := walRecords()
	if durable && sealed != before+1 {
		t.Fatalf("windows flush appended %v WAL records, want 1", sealed-before)
	}
	var fl api.FlushResponse
	if code := postJSON(t, base+sessPath+"/flush", struct{}{}, &fl); code != http.StatusOK || fl.Events != 0 || fl.Results != 0 {
		t.Fatalf("flush with nothing buffered: status %d, %+v", code, fl)
	}
	if got := walRecords(); got != sealed {
		t.Fatalf("flush with nothing buffered appended %v WAL records, want none", got-sealed)
	}

	var live api.QueryInfo
	if code := postJSON(t, base+sessPath+"/queries", map[string]any{"kind": "location-updates", "min_change": 0.5}, &live); code != http.StatusCreated {
		t.Fatalf("register the query to remove: status %d", code)
	}
	if code := deleteQuery(t, base, live.ID); code != http.StatusNoContent {
		t.Fatalf("unregister %s: status %d", live.ID, code)
	}
	listed := getRaw(t, base+sessPath+"/queries")
	if code := deleteQuery(t, base, live.ID); code != http.StatusNotFound {
		t.Fatalf("unregister %s a second time: status %d, want 404", live.ID, code)
	}
	if code := postJSON(t, base+sessPath+"/queries",
		map[string]any{"kind": "location-updates", "mode": "history", "from_epoch": 1 << 20}, nil); code != http.StatusBadRequest {
		t.Fatalf("history registration outside the retained ring: status %d, want 400", code)
	}
	if got := getRaw(t, base+sessPath+"/queries"); got != listed {
		t.Fatalf("an unknown-id removal and a refused registration changed the query list:\n got %s\nwant %s", got, listed)
	}
	var kept api.QueryInfo
	if code := postJSON(t, base+sessPath+"/queries", map[string]any{"kind": "location-updates", "min_change": 0.2}, &kept); code != http.StatusCreated {
		t.Fatalf("register after the refusal: status %d", code)
	}
	var n int
	fmt.Sscanf(live.ID, "q%d", &n)
	if want := fmt.Sprintf("q%d", n+1); kept.ID != want {
		t.Fatalf("registration after a refused one got id %s, want %s (the one after %s)", kept.ID, want, live.ID)
	}
}

// observedOutputs collects the comparison surface: every tracked tag's
// snapshot body, the query list, the full result stream of every registered
// query, and the history snapshot of a few epochs — all as raw JSON bytes so
// the comparison is byte-exact.
func observedOutputs(t *testing.T, url string) map[string]string {
	t.Helper()
	out := map[string]string{}
	var all struct {
		Tracked []string `json:"tracked"`
	}
	getJSON(t, url+sessPath+"/snapshot", &all)
	for _, tag := range all.Tracked {
		out["snapshot:"+tag] = getRaw(t, url+sessPath+"/snapshot/"+tag)
	}
	out["queries"] = getRaw(t, url+sessPath+"/queries")
	var listed []api.QueryInfo
	if err := json.Unmarshal([]byte(out["queries"]), &listed); err != nil {
		t.Fatalf("query list %s: %v", out["queries"], err)
	}
	ids := []string{"q1", "q2"}
	for _, qi := range listed {
		ids = append(ids, qi.ID)
	}
	for _, q := range ids {
		out["results:"+q] = getRaw(t, fmt.Sprintf("%s/queries/%s/results?after=-1", url+sessPath, q))
	}
	for _, ep := range []int{5, 12, 20} {
		out[fmt.Sprintf("history:%d", ep)] = getRaw(t, fmt.Sprintf("%s/snapshot?epoch=%d", url+sessPath, ep))
	}
	return out
}

// getRaw fetches a URL and returns its body verbatim.
func getRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// TestCrashRecoveryEquivalence is the acceptance property of the durability
// subsystem: a server killed mid-ingest at a random epoch and recovered from
// disk (newest checkpoint + WAL tail) finishes the stream with snapshots,
// query results and time-travel reads byte-identical to a server that never
// crashed — across the Workers x ShardCount matrix, with the recovered
// process free to use a different parallelism than the crashed one.
func TestCrashRecoveryEquivalence(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)

	// Reference: an uninterrupted non-durable serial run, with the record
	// outcome mix where the crashing run has it (just before the kill).
	reference := func(mixAt int) map[string]string {
		srv, refTS := startRecoveryServer(t, trace, 1, 1, "")
		defer func() { refTS.Close(); srv.Close() }()
		registerRecoveryQueries(t, refTS.URL)
		ingestEpochs(t, refTS.URL, rByT, lByT, 0, mixAt)
		recordOutcomeMix(t, refTS.URL, false)
		ingestEpochs(t, refTS.URL, rByT, lByT, mixAt, maxT+1)
		if code := postJSON(t, refTS.URL+sessPath+"/flush", map[string]any{}, nil); code != http.StatusOK {
			t.Fatalf("reference flush: status %d", code)
		}
		return observedOutputs(t, refTS.URL)
	}

	rng := rand.New(rand.NewSource(77))
	for _, par := range []struct{ workers, shards int }{{1, 1}, {1, 8}, {4, 1}, {4, 8}} {
		// One kill before the first checkpoint can exist (pure WAL replay)
		// and one random later kill (checkpoint + tail replay).
		kills := []int{1 + rng.Intn(5), 8 + rng.Intn(maxT-8)}
		for _, kill := range kills {
			name := fmt.Sprintf("w%d.s%d.kill%d", par.workers, par.shards, kill)
			dataDir := filepath.Join(t.TempDir(), name)

			srvA, tsA := startRecoveryServer(t, trace, par.workers, par.shards, dataDir)
			registerRecoveryQueries(t, tsA.URL)
			ingestEpochs(t, tsA.URL, rByT, lByT, 0, kill)
			recordOutcomeMix(t, tsA.URL, true)
			// Crash: no final seal, no final checkpoint.
			tsA.Close()
			srvA.CloseNow()

			// Recover with the matrix-transposed parallelism: checkpoints
			// are portable across Workers/ShardCount.
			srvB, tsB := startRecoveryServer(t, trace, par.shards, par.workers, dataDir)
			ingestEpochs(t, tsB.URL, rByT, lByT, kill, maxT+1)
			if code := postJSON(t, tsB.URL+sessPath+"/flush", map[string]any{}, nil); code != http.StatusOK {
				t.Fatalf("%s: flush: status %d", name, code)
			}
			got := observedOutputs(t, tsB.URL)

			want := reference(kill)
			if len(got) != len(want) {
				t.Fatalf("%s: recovered run exposes %d outputs, the reference %d", name, len(got), len(want))
			}
			for key, wantBody := range want {
				if got[key] != wantBody {
					t.Fatalf("%s: %s diverged after crash recovery:\n got %s\nwant %s",
						name, key, got[key], wantBody)
				}
			}
			var hz api.Health
			getJSON(t, tsB.URL+"/v1/healthz", &hz)
			if hz.State != "serving" {
				t.Fatalf("%s: healthz state %q after recovery", name, hz.State)
			}
			tsB.Close()
			srvB.Close()

			// The graceful close wrote a final checkpoint; it must be
			// loadable and cover the last processed epoch.
			_, snap, ok, err := checkpoint.Latest(filepath.Join(dataDir, "sessions", "default"))
			if err != nil || !ok {
				t.Fatalf("%s: no checkpoint after graceful close (err %v)", name, err)
			}
			if snap.Epoch != maxT {
				t.Fatalf("%s: final checkpoint covers epoch %d, want %d", name, snap.Epoch, maxT)
			}
		}
	}
}

// TestRecoveryRejectsForeignCheckpoint pins the fingerprint gate: state
// produced under a different engine configuration must not load.
func TestRecoveryRejectsForeignCheckpoint(t *testing.T) {
	trace, rByT, lByT, _ := recoveryTrace(t)
	// The fingerprints of recoveryRequest's engine, recorded when the engine
	// still had an approximate numeric mode: exact is what every checkpoint of
	// this session carries, fastMath what one written in that mode carried.
	const exact, fastMath = 0xea56f1c007d1a13d, 0xf0ed408a2654d958
	for name, makeForeign := range map[string]func(t *testing.T, dataDir string){
		// A session rebuilt under a different seed has a different fingerprint.
		"seed": func(t *testing.T, dataDir string) {
			foreign := recoveryRequest(trace, 1, 1)
			foreign.Engine.Seed++
			putManifest(t, dataDir, foreign)
		},
		// The approximate mode is gone, so its checkpoints must be refused.
		"fastmath": func(t *testing.T, dataDir string) {
			dir := filepath.Join(dataDir, "sessions", recoveryRequest(trace, 1, 1).ID)
			_, snap, ok, err := checkpoint.Latest(dir)
			if err != nil || !ok {
				t.Fatalf("no checkpoint after graceful close (err %v)", err)
			}
			if snap.Fingerprint != exact {
				t.Fatalf("checkpoint fingerprint %#x, recorded %#x", snap.Fingerprint, uint64(exact))
			}
			snap.Fingerprint = fastMath
			if _, err := checkpoint.Write(dir, snap); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dataDir := t.TempDir()
			srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
			ingestEpochs(t, tsA.URL, rByT, lByT, 0, 10)
			tsA.Close()
			srvA.Close() // graceful: writes a checkpoint

			makeForeign(t, dataDir)
			srvB, err := New(Config{DataDir: dataDir, Fsync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer srvB.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srvB.WaitReady(ctx); err == nil {
				t.Fatal("foreign checkpoint accepted")
			}
			ts := httptest.NewServer(srvB.Handler())
			defer ts.Close()
			var hz struct {
				State string `json:"state"`
			}
			if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusServiceUnavailable || hz.State != "failed" {
				t.Fatalf("failed server healthz: code %d state %q", code, hz.State)
			}
			// Ops are rejected, not hung.
			if code := postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, nil); code == http.StatusOK {
				t.Fatal("flush succeeded on a failed server")
			}
		})
	}
}

// TestHistoryEndpointsAndQueries covers the time-travel surface end to end:
// GET /snapshot?epoch=N and history-mode query registration.
func TestHistoryEndpointsAndQueries(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)
	_, ts := startRecoveryServer(t, trace, 1, 1, "")
	defer ts.Close()
	ingestEpochs(t, ts.URL, rByT, lByT, 0, maxT+1)
	postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, nil)

	var snap struct {
		Epoch   int `json:"epoch"`
		Objects []struct {
			Tag string `json:"tag"`
		} `json:"objects"`
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot?epoch=10", &snap); code != http.StatusOK {
		t.Fatalf("snapshot?epoch=10: status %d", code)
	}
	if snap.Epoch != 10 || len(snap.Objects) == 0 {
		t.Fatalf("time-travel snapshot empty: %+v", snap)
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot?epoch=99999", nil); code != http.StatusNotFound {
		t.Fatalf("out-of-window epoch: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot?epoch=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad epoch: status %d, want 400", code)
	}

	// History-mode query: evaluated immediately, finished at registration.
	var info struct {
		ID       string `json:"id"`
		Finished bool   `json:"finished"`
	}
	resp, err := http.Post(ts.URL+sessPath+"/queries", "application/json",
		strings.NewReader(`{"kind":"windowed-aggregate","mode":"history","from_epoch":5,"to_epoch":15,"window_epochs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !info.Finished {
		t.Fatalf("history query registration: status %d, info %+v", resp.StatusCode, info)
	}
	var results struct {
		Results []json.RawMessage `json:"results"`
	}
	getJSON(t, fmt.Sprintf("%s/queries/%s/results?after=-1", ts.URL+sessPath, info.ID), &results)
	if len(results.Results) != 11 { // one aggregate row per epoch 5..15
		t.Fatalf("history query produced %d rows, want 11", len(results.Results))
	}
}

// TestDurableMetricsExposed pins the WAL/checkpoint metric names on the
// Prometheus endpoint.
func TestDurableMetricsExposed(t *testing.T) {
	trace, rByT, lByT, _ := recoveryTrace(t)
	dataDir := t.TempDir()
	srv, ts := startRecoveryServer(t, trace, 1, 1, dataDir)
	defer func() { ts.Close(); srv.Close() }()
	ingestEpochs(t, ts.URL, rByT, lByT, 0, 10)
	postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, nil)

	body := getRaw(t, ts.URL+"/v1/metrics")
	for _, name := range []string{
		"rfidserve_wal_records_total",
		"rfidserve_wal_appended_bytes_total",
		"rfidserve_wal_fsyncs_total",
		"rfidserve_wal_fsync_max_seconds",
		"rfidserve_checkpoints_total",
		"rfidserve_checkpoint_last_epoch",
		"rfidserve_checkpoint_age_seconds",
		"rfidserve_recovery_replayed_records_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("metric %s missing from /metrics", name)
		}
	}
	var m map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &m)
	if v := m[`rfidserve_wal_records_total{session="default"}`]; v < 10 {
		t.Fatalf("wal records metric = %v, want >= 10", v)
	}
	if v := m[`rfidserve_checkpoints_total{session="default"}`]; v < 1 {
		t.Fatalf("checkpoints metric = %v, want >= 1", v)
	}
	// The session's directory must hold segments; checkpoints appear beside
	// them.
	sessDir := filepath.Join(dataDir, "sessions", "default")
	segs, err := wal.Segments(sessDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err %v)", sessDir, err)
	}
}

// TestFlushWindowsReplay pins review finding: POST /flush?windows=true
// mutates query-operator state and result sequences, so it must be
// WAL-logged and replayed — a crash right after a windows flush recovers to
// identical query results.
func TestFlushWindowsReplay(t *testing.T) {
	trace, rByT, lByT, _ := recoveryTrace(t)
	sequence := func(url string) {
		registerRecoveryQueries(t, url)
		ingestEpochs(t, url, rByT, lByT, 0, 6)
		if code := postJSON(t, url+sessPath+"/flush?windows=true", map[string]any{}, nil); code != http.StatusOK {
			t.Fatalf("windows flush: status %d", code)
		}
	}

	// Reference: uninterrupted run of the same sequence.
	_, refTS := startRecoveryServer(t, trace, 1, 1, "")
	defer refTS.Close()
	sequence(refTS.URL)
	want := getRaw(t, refTS.URL+sessPath+"/queries/q2/results?after=-1")

	// Durable run: crash immediately after the windows flush, then recover.
	dataDir := t.TempDir()
	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	sequence(tsA.URL)
	tsA.Close()
	srvA.CloseNow()

	srvB, tsB := startRecoveryServer(t, trace, 1, 1, dataDir)
	defer func() { tsB.Close(); srvB.Close() }()
	got := getRaw(t, tsB.URL+sessPath+"/queries/q2/results?after=-1")
	if got != want {
		t.Fatalf("windows-flush state lost across crash:\n got %s\nwant %s", got, want)
	}
}

// TestWriteAheadRefusal pins the one refusal arm every mutation shares: when
// the WAL append fails (a closed log stands in for ENOSPC/EIO — the caller
// sees an error from Append either way) the mutation is refused, counted on
// the error counter and leaves no trace — no state change, no WAL record, no
// stream ack.
func TestWriteAheadRefusal(t *testing.T) {
	eng := testEngine
	eng.HoldEpochs = 1 // keeps the newest epoch buffered, so a flush has something to seal
	srv, ts, _, _ := newTestServerWith(t, Config{QueueSize: 8, IngestWait: 5 * time.Second, DataDir: t.TempDir(), Fsync: wal.SyncAlways}, eng)
	base := ts.URL
	batch := func(epoch int) api.IngestRequest {
		return api.IngestRequest{
			Readings:  []api.Reading{{Time: epoch, Tag: "wa-obj"}},
			Locations: []api.LocationReport{{Time: epoch, X: 1, Y: 1}},
		}
	}
	var qi api.QueryInfo
	if code := postJSON(t, base+sessPath+"/queries", map[string]any{"kind": "location-updates"}, &qi); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	for ep := 0; ep < 2; ep++ {
		if code := postJSON(t, base+sessPath+"/ingest", batch(ep), nil); code != http.StatusAccepted {
			t.Fatalf("ingest epoch %d: status %d", ep, code)
		}
	}
	rs, _ := dialRawStream(t, base, "default")
	rs.sendBatch(1, wire.APIBatch{Readings: batch(2).Readings, Locations: batch(2).Locations})
	rs.expectAck(1)

	sess, _ := srv.session("default")
	metric := func(name string) float64 { return sessionMetric(t, base, name) }
	type state struct {
		fingerprint, queries string
		streamSeq            uint64
		walRecords           float64
	}
	observe := func() state {
		return state{stateFingerprint(t, base, "default"), getRaw(t, base+sessPath+"/queries"),
			sess.lastStreamSeq.Load(), metric("rfidserve_wal_records_total")}
	}
	want := observe()

	sess.pinMu.Lock()
	if err := sess.wal.Close(); err != nil {
		t.Fatalf("closing the wal: %v", err)
	}
	sess.pinMu.Unlock()

	for _, tc := range []struct {
		name   string
		do     func() int
		status int
	}{
		{"ingest", func() int { return postJSON(t, base+sessPath+"/ingest", batch(3), nil) }, http.StatusServiceUnavailable},
		{"flush", func() int { return postJSON(t, base+sessPath+"/flush", struct{}{}, nil) }, http.StatusInternalServerError},
		{"register", func() int {
			return postJSON(t, base+sessPath+"/queries", map[string]any{"kind": "location-updates"}, nil)
		}, http.StatusBadRequest},
		{"unregister", func() int { return deleteQuery(t, base, qi.ID) }, http.StatusServiceUnavailable},
		{"stream batch", func() int {
			rs.sendBatch(2, wire.APIBatch{Readings: batch(3).Readings, Locations: batch(3).Locations})
			kind, dec := rs.next()
			if kind != wire.KindError {
				t.Fatalf("refused stream batch answered with frame kind %d, want the error frame (and no ack)", kind)
			}
			se, err := wire.DecodeError(dec)
			if err != nil || se.Code != api.ErrInternal {
				t.Fatalf("stream error frame = %+v (err %v), want code %q", se, err, api.ErrInternal)
			}
			return 0
		}, 0},
	} {
		errsBefore := metric("rfidserve_engine_errors_total")
		if got := tc.do(); got != tc.status {
			t.Fatalf("%s with a failing WAL: status %d, want %d", tc.name, got, tc.status)
		}
		if got := metric("rfidserve_engine_errors_total"); got != errsBefore+1 {
			t.Fatalf("%s: engine_errors_total went %v -> %v, want +1", tc.name, errsBefore, got)
		}
		if got := observe(); got != want {
			t.Fatalf("refused %s left a trace:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestRecoveryDetectsWALGap pins review finding: when the newest checkpoint
// is corrupted and the fallback checkpoint's WAL segments were already
// garbage-collected, recovery must fail loudly instead of silently skipping
// the gap.
func TestRecoveryDetectsWALGap(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)
	dataDir := t.TempDir()

	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	ingestEpochs(t, tsA.URL, rByT, lByT, 0, maxT+1) // several checkpoints at CheckpointEvery=7
	tsA.Close()
	srvA.CloseNow()

	ckpts, err := checkpoint.List(filepath.Join(dataDir, "sessions", "default"))
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %v (err %v)", ckpts, err)
	}
	// Corrupt the newest checkpoint: Latest falls back to an older one whose
	// segments the newest checkpoint's GC already deleted.
	if err := os.WriteFile(ckpts[len(ckpts)-1], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, err := New(Config{DataDir: dataDir, CheckpointEvery: 7, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srvB.WaitReady(ctx)
	if err == nil {
		t.Fatal("recovery over a GC'd WAL gap succeeded silently")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("gap error does not name the missing segments: %v", err)
	}

	// The failure is the server's health: a boot-restored session that could
	// not recover turns /v1/healthz into a 503 "failed", and its half-replayed
	// state is not readable.
	ts := httptest.NewServer(srvB.Handler())
	defer ts.Close()
	var hz api.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusServiceUnavailable || hz.OK || hz.State != "failed" || hz.Sessions != 1 {
		t.Fatalf("healthz after a failed recovery: status %d, %+v, want 503 failed", code, hz)
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot of a session that failed recovery: status %d, want 503", code)
	}
}

// TestRecoveryRefusesUnreadableCheckpoints pins the other half of the gap
// check: when no checkpoint can be read — here every one claims a payload
// version newer than this binary's — and the log no longer starts at its
// first segment, recovery must fail loudly instead of replaying the remaining
// tail into an empty engine.
func TestRecoveryRefusesUnreadableCheckpoints(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)
	dataDir := t.TempDir()

	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	ingestEpochs(t, tsA.URL, rByT, lByT, 0, maxT+1)
	tsA.Close()
	srvA.CloseNow()

	ckpts, err := checkpoint.List(filepath.Join(dataDir, "sessions", "default"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints (err %v)", err)
	}
	for _, path := range ckpts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(checkpoint.Magic)] = checkpoint.Version + 1 // the version uvarint
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srvB, err := New(Config{DataDir: dataDir, CheckpointEvery: 7, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srvB.WaitReady(ctx)
	if err == nil {
		t.Fatal("recovery without a readable checkpoint replayed a truncated log silently")
	}
	if !strings.Contains(err.Error(), "no readable checkpoint") {
		t.Fatalf("error does not say why: %v", err)
	}
}

// TestNewChecksDataDirLayout pins what New accepts under DataDir: an empty
// directory boots a serving server with no sessions; log or checkpoint files
// directly under it — the layout of a server that predates sessions, which
// would otherwise be skipped and its acknowledged data lost from view — are
// refused with an error that names them and where they belong.
func TestNewChecksDataDirLayout(t *testing.T) {
	for _, tc := range []struct{ name, stale string }{
		{"empty dir", ""},
		{"root-level wal segment", "wal-0000000000000001.seg"},
		{"root-level checkpoint", "checkpoint-0000000000000007.ckpt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := t.TempDir()
			if tc.stale != "" {
				if err := os.WriteFile(filepath.Join(dataDir, tc.stale), []byte("old"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := New(Config{DataDir: dataDir})
			if tc.stale != "" {
				if err == nil {
					srv.Close()
					t.Fatalf("New booted past %s", tc.stale)
				}
				for _, want := range []string{tc.stale, filepath.Join("sessions", "default"), manifestName} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("refusal %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("New on an empty data dir: %v", err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			var hz api.Health
			if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK || !hz.OK || hz.State != "serving" || hz.Sessions != 0 || !hz.Durable {
				t.Fatalf("healthz with zero sessions: status %d, %+v, want 200 serving", code, hz)
			}
		})
	}
}

// TestReadsWaitForRecovery pins that a session still replaying its WAL never
// answers a read from the half-replayed engine: a snapshot issued the instant
// New returns — before recovery had a chance to finish — queues behind the
// replay and equals the fully recovered state, and so does every read until
// the session reports serving.
func TestReadsWaitForRecovery(t *testing.T) {
	trace, rByT, lByT, _ := recoveryTrace(t)
	dataDir := t.TempDir()

	// Kill at epoch 12: a checkpoint at CheckpointEvery=7 plus a WAL tail.
	srvA, tsA := startRecoveryServer(t, trace, 1, 1, dataDir)
	ingestEpochs(t, tsA.URL, rByT, lByT, 0, 12)
	want := getRaw(t, tsA.URL+sessPath+"/snapshot")
	var over api.SnapshotOverview
	getJSON(t, tsA.URL+sessPath+"/snapshot", &over)
	if over.Epochs == 0 || len(over.Tracked) == 0 {
		t.Fatalf("nothing to recover: %+v", over)
	}
	wantTag := getRaw(t, tsA.URL+sessPath+"/snapshot/"+over.Tracked[0])
	tsA.Close()
	srvA.CloseNow()

	srvB, err := New(Config{DataDir: dataDir, CheckpointEvery: 7, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	read := func(path string) string {
		rec := httptest.NewRecorder()
		srvB.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, sessPath+path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s during recovery: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	sess, _ := srvB.session("default")
	for done := false; !done; {
		done = sess.life.load().phase() == phaseServing
		if got := read("/snapshot"); got != want {
			t.Fatalf("read during recovery exposed partial state:\n got %s\nwant %s", got, want)
		}
		if got := read("/snapshot/" + over.Tracked[0]); got != wantTag {
			t.Fatalf("tag read during recovery exposed partial state:\n got %s\nwant %s", got, wantTag)
		}
	}
}
