package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rfid"
	"repro/rfid/api"
)

// sessPath is the resource path of the one session the single-session tests
// drive. The id is deliberately "default": the name carries no special
// treatment, and these tests would notice if it grew one.
const sessPath = "/v1/sessions/default"

// sessionRequest describes that session: the given world under the given
// engine block.
func sessionRequest(world *rfid.World, eng api.EngineConfig) api.CreateSessionRequest {
	return api.CreateSessionRequest{ID: "default", World: apiWorld(world), Engine: &eng}
}

// openSession makes req's session exist on srv: created through the one
// create path on a fresh server, left as boot restore rebuilt it on a durable
// restart (the persisted manifest wins, as it does for rfidserve -trace).
func openSession(t *testing.T, srv *Server, req api.CreateSessionRequest) {
	t.Helper()
	_, err := srv.CreateSession(context.Background(), req)
	var apiErr *api.Error
	if err != nil && !(errors.As(err, &apiErr) && apiErr.Code == api.ErrConflict) {
		t.Fatalf("create session %q: %v", req.ID, err)
	}
}

// putManifest writes req as its session's persisted manifest under dataDir, so
// the next boot builds the session's engine from it. Tests use it to restart a
// session under different parallelism knobs (which the state fingerprint and
// checkpoint encoding are deliberately independent of) and to hand a replica
// its own engine configuration for a session the primary will ship.
func putManifest(t *testing.T, dataDir string, req api.CreateSessionRequest) {
	t.Helper()
	dir := filepath.Join(dataDir, "sessions", req.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, req); err != nil {
		t.Fatal(err)
	}
}

// sessionPersisted reports whether dataDir already holds the session.
func sessionPersisted(dataDir, id string) bool {
	_, err := os.Stat(filepath.Join(dataDir, "sessions", id, manifestName))
	return err == nil
}

// newTestServer builds a server hosting one session over a small simulated
// warehouse and returns it with the trace's raw streams so tests can ingest
// real data.
func newTestServer(t *testing.T, queue int) (*Server, *httptest.Server, []rfid.Reading, []rfid.LocationReport) {
	t.Helper()
	return newTestServerWith(t, Config{QueueSize: queue, IngestWait: 5 * time.Second}, testEngine)
}

// testEngine is the engine block of newTestServer's session.
var testEngine = api.EngineConfig{ObjectParticles: 150, ReaderParticles: 40, Seed: 9}

// newTestServerWith is newTestServer under an arbitrary server config and
// engine block.
func newTestServerWith(t *testing.T, cfg Config, eng api.EngineConfig) (*Server, *httptest.Server, []rfid.Reading, []rfid.LocationReport) {
	t.Helper()
	simCfg := rfid.DefaultWarehouseConfig()
	simCfg.NumObjects = 6
	simCfg.NumShelfTags = 4
	simCfg.Seed = 9
	trace, err := rfid.SimulateWarehouse(simCfg)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	openSession(t, srv, sessionRequest(trace.World, eng))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	readings, locations := rfid.RawStreams(trace)
	return srv, ts, readings, locations
}

// postJSON posts v as JSON and decodes the response body into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// ingestBody converts raw records into the POST /ingest wire shape.
func ingestBody(readings []rfid.Reading, locations []rfid.LocationReport) api.IngestRequest {
	req := api.IngestRequest{}
	for _, r := range readings {
		req.Readings = append(req.Readings, api.Reading{Time: r.Time, Tag: string(r.Tag)})
	}
	for _, l := range locations {
		req.Locations = append(req.Locations, api.LocationReport{
			Time: l.Time, X: l.Pos.X, Y: l.Pos.Y, Z: l.Pos.Z, Phi: l.Phi, HasPhi: l.HasPhi,
		})
	}
	return req
}

// TestServerEndToEnd is the acceptance path: ingest a batch of readings,
// register a location-update query, flush, and read back non-empty snapshot,
// query results and metrics counters.
func TestServerEndToEnd(t *testing.T) {
	_, ts, readings, locations := newTestServer(t, 64)

	// Register queries first so they see the whole clean stream.
	var locInfo struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+sessPath+"/queries", map[string]any{"kind": "location-updates", "min_change": 0.1}, &locInfo); code != http.StatusCreated {
		t.Fatalf("register location-updates: status %d", code)
	}
	var aggInfo struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+sessPath+"/queries", map[string]any{
		"kind": "windowed-aggregate", "op": "count", "group_by": "none", "window_epochs": 10,
	}, &aggInfo); code != http.StatusCreated {
		t.Fatalf("register windowed-aggregate: status %d", code)
	}
	if code := postJSON(t, ts.URL+sessPath+"/queries", map[string]any{"kind": "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus spec: status %d, want 400", code)
	}

	// Ingest the trace in epoch-ranged batches, the way a live reader would:
	// records never arrive for an epoch older than the batch before them.
	maxT := 0
	for _, r := range readings {
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	span := maxT/4 + 1
	for i := 0; i < 4; i++ {
		lo, hi := i*span, (i+1)*span
		var rs []rfid.Reading
		for _, r := range readings {
			if r.Time >= lo && r.Time < hi {
				rs = append(rs, r)
			}
		}
		var locs []rfid.LocationReport
		for _, l := range locations {
			if l.Time >= lo && l.Time < hi {
				locs = append(locs, l)
			}
		}
		var ack struct {
			Queued bool `json:"queued"`
		}
		if code := postJSON(t, ts.URL+sessPath+"/ingest", ingestBody(rs, locs), &ack); code != http.StatusAccepted || !ack.Queued {
			t.Fatalf("ingest batch %d: status %d ack %+v", i, code, ack)
		}
	}

	// Flush: synchronous barrier, so everything above is processed after 200.
	var flushed struct {
		Events  int `json:"events"`
		Results int `json:"results"`
	}
	if code := postJSON(t, ts.URL+sessPath+"/flush?windows=true", map[string]any{}, &flushed); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	// Ingest ops already advanced the pipeline (hold=0), so the flush is a
	// barrier; with ?windows=true it still surfaces the windowed queries'
	// held-back final epoch.
	if flushed.Results == 0 {
		t.Fatalf("window flush produced no results: %+v", flushed)
	}

	// Snapshot: the overview lists tracked tags; each tag resolves.
	var overview struct {
		Epochs  int      `json:"epochs"`
		Tracked []string `json:"tracked"`
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot", &overview); code != http.StatusOK {
		t.Fatalf("snapshot overview: status %d", code)
	}
	if overview.Epochs == 0 || len(overview.Tracked) != 6 {
		t.Fatalf("overview %+v, want 6 tracked tags", overview)
	}
	var snap api.TagSnapshot
	if code := getJSON(t, ts.URL+sessPath+"/snapshot/"+overview.Tracked[0], &snap); code != http.StatusOK || !snap.Found {
		t.Fatalf("snapshot %s: status %d found=%v", overview.Tracked[0], code, snap.Found)
	}
	if snap.X == 0 && snap.Y == 0 && snap.Z == 0 {
		t.Errorf("snapshot location is the origin: %+v", snap)
	}
	if code := getJSON(t, ts.URL+sessPath+"/snapshot/nope", &snap); code != http.StatusNotFound {
		t.Fatalf("unknown snapshot: status %d, want 404", code)
	}

	// Query results: both queries produced rows.
	for _, id := range []string{locInfo.ID, aggInfo.ID} {
		var res struct {
			Query   struct{ NextSeq int }
			Results []struct {
				Seq int             `json:"seq"`
				Row json.RawMessage `json:"row"`
			} `json:"results"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/queries/%s/results?after=-1", ts.URL+sessPath, id), &res); code != http.StatusOK {
			t.Fatalf("results %s: status %d", id, code)
		}
		if len(res.Results) == 0 {
			t.Fatalf("query %s returned no results", id)
		}
	}

	// Listing and unregistration.
	var list []struct {
		ID string `json:"id"`
	}
	if code := getJSON(t, ts.URL+sessPath+"/queries", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: status %d, %d entries", code, len(list))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+sessPath+"/queries/"+aggInfo.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	// Metrics: the Prometheus exposition carries non-zero core counters.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	promText, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{"rfidserve_epochs_total", "rfidserve_readings_total", "rfidserve_particles", "rfidserve_queue_depth"} {
		if !strings.Contains(string(promText), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	var snapMetrics map[string]float64
	if code := getJSON(t, ts.URL+"/v1/metrics?format=json", &snapMetrics); code != http.StatusOK {
		t.Fatalf("metrics json: status %d", code)
	}
	if snapMetrics[`rfidserve_epochs_total{session="default"}`] == 0 {
		t.Error("epochs counter is zero after processing")
	}
	if snapMetrics[`rfidserve_readings_total{session="default"}`] == 0 {
		t.Error("readings counter is zero after processing")
	}
	if snapMetrics[`rfidserve_particles{session="default"}`] == 0 {
		t.Error("particles gauge is zero after processing")
	}
	if snapMetrics[`rfidserve_query_results_total{session="default"}`] == 0 {
		t.Error("query results counter is zero")
	}

	// Health.
	var health struct {
		OK bool `json:"ok"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: status %d %+v", code, health)
	}
}

// TestServerConcurrentIngestAndSnapshot hammers ingest, snapshot and metrics
// endpoints from many goroutines; run under -race this is the concurrency
// gate for the serving layer.
func TestServerConcurrentIngestAndSnapshot(t *testing.T) {
	_, ts, readings, locations := newTestServer(t, 16)

	// post/get avoid t.Fatal so they are safe from non-test goroutines.
	post := func(url string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Errorf("marshal: %v", err)
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST %s: %v", url, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var wg sync.WaitGroup
	// Writer: ingest the trace in small batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		step := 50
		for lo := 0; lo < len(readings); lo += step {
			hi := lo + step
			if hi > len(readings) {
				hi = len(readings)
			}
			var locs []rfid.LocationReport
			if lo == 0 {
				locs = locations
			}
			post(ts.URL+sessPath+"/ingest", ingestBody(readings[lo:hi], locs))
		}
		post(ts.URL+sessPath+"/flush", map[string]any{})
	}()
	// Readers: snapshots and metrics while ingestion runs.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				get(ts.URL + sessPath + "/snapshot")
				get(ts.URL + sessPath + "/snapshot/obj-000")
				get(ts.URL + "/v1/metrics?format=json")
			}
		}()
	}
	wg.Wait()

	// The stream fully processed despite the concurrent reads.
	var flushed struct {
		Events int `json:"events"`
	}
	if code := postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, &flushed); code != http.StatusOK {
		t.Fatalf("final flush: status %d", code)
	}
	var overview struct {
		Buffered int `json:"buffered_epochs"`
		Epochs   int `json:"epochs"`
	}
	getJSON(t, ts.URL+sessPath+"/snapshot", &overview)
	if overview.Buffered != 0 {
		t.Errorf("epochs still buffered after flush: %d", overview.Buffered)
	}
	if overview.Epochs == 0 {
		t.Error("no epochs processed")
	}
}

// TestServerBackpressure pins the bounded-queue behavior: with a tiny queue
// and a short wait, a burst of ingests either queues or fails with 503 —
// never blocks forever or panics.
func TestServerBackpressure(t *testing.T) {
	srv, ts, readings, _ := newTestServer(t, 1)
	sess, _ := srv.session("default")
	sess.cfg.IngestWait = 10 * time.Millisecond

	batch := readings
	if len(batch) > 100 {
		batch = batch[:100]
	}
	saw503 := false
	for i := 0; i < 30; i++ {
		body, _ := json.Marshal(ingestBody(batch, nil))
		resp, err := http.Post(ts.URL+sessPath+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	// Drain; the server must stay usable after backpressure.
	if code := postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("flush after backpressure: status %d", code)
	}
	_ = saw503 // bursty queue pressure is timing-dependent; 202-only runs are fine
}

// TestServerCloseRejectsIngest pins shutdown behavior.
func TestServerCloseRejectsIngest(t *testing.T) {
	srv, ts, readings, _ := newTestServer(t, 4)
	srv.Close()
	if code := postJSON(t, ts.URL+sessPath+"/ingest", ingestBody(readings[:1], nil), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close: status %d, want 503", code)
	}
	srv.Close() // idempotent
}
