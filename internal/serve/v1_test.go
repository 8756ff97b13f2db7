package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/rfid/api"
)

// TestV1SessionSurface exercises the v1 control-plane handlers and their
// error envelopes directly over HTTP.
func TestV1SessionSurface(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, 8)
	srv.cfg.MaxSessions = 3 // default + two more

	// Malformed body: 400.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}

	// Create with server-assigned id.
	var created api.Session
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{
		Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 40, ReaderParticles: 10},
	}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID != "s1" || created.State != "serving" || created.Durable {
		t.Fatalf("created = %+v, want s1/serving/non-durable", created)
	}

	// Invalid client-chosen ids and duplicate ids ("default" is taken by the
	// session newTestServer created, not reserved).
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"default", http.StatusConflict},
		{"s1", http.StatusConflict},
		{"UPPER", http.StatusBadRequest},
		{"-leading", http.StatusBadRequest},
		{strings.Repeat("x", 65), http.StatusBadRequest},
	} {
		if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: tc.id}, nil); code != tc.want {
			t.Errorf("create id %q: status %d, want %d", tc.id, code, tc.want)
		}
	}

	// Session limit: the third create (beyond default + s1 + one more) fails
	// with 503 unavailable.
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "roomy"}, nil); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	var env api.ErrorEnvelope
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "overflow"}, &env); code != http.StatusServiceUnavailable {
		t.Fatalf("create past limit: status %d, want 503", code)
	}
	if env.Error == nil || env.Error.Code != api.ErrUnavailable {
		t.Fatalf("limit envelope = %+v, want unavailable", env.Error)
	}

	// GET one session / list.
	var got api.Session
	if code := getJSON(t, ts.URL+"/v1/sessions/s1", &got); code != http.StatusOK || got.ID != "s1" {
		t.Fatalf("get s1: status %d, %+v", code, got)
	}
	var list api.SessionList
	if code := getJSON(t, ts.URL+"/v1/sessions", &list); code != http.StatusOK || len(list.Sessions) != 3 {
		t.Fatalf("list: status %d, %d sessions, want 3", code, len(list.Sessions))
	}
	if !sort.SliceIsSorted(list.Sessions, func(i, j int) bool { return list.Sessions[i].ID < list.Sessions[j].ID }) {
		t.Fatalf("list is not in ascending id order: %+v", list.Sessions)
	}

	// Deletes: unknown 404, real 204 (and frees a limit slot).
	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("ghost"); code != http.StatusNotFound {
		t.Fatalf("delete ghost: status %d", code)
	}
	if code := del("roomy"); code != http.StatusNoContent {
		t.Fatalf("delete roomy: status %d", code)
	}
	// The deleted session's labelled metric series are retired with it.
	var mm map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &mm)
	for name := range mm {
		if strings.Contains(name, `session="roomy"`) {
			t.Fatalf("deleted session's series %q still exposed", name)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "replacement"}, nil); code != http.StatusCreated {
		t.Fatalf("create after delete freed a slot: status %d", code)
	}

	// Data-plane routes resolve through {sid}: unknown session 404s on every
	// verb, the live one serves.
	if code := postJSON(t, ts.URL+"/v1/sessions/ghost/flush", map[string]any{}, nil); code != http.StatusNotFound {
		t.Fatalf("flush on ghost: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/s1/ingest", api.IngestRequest{
		Readings:  []api.Reading{{Time: 0, Tag: "v1-obj"}},
		Locations: []api.LocationReport{{Time: 0, X: 1, Y: 2, Z: 3}},
	}, nil); code != http.StatusAccepted {
		t.Fatalf("v1 ingest: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/s1/flush", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("v1 flush: status %d", code)
	}
	var snap api.TagSnapshot
	if code := getJSON(t, ts.URL+"/v1/sessions/s1/snapshot/v1-obj", &snap); code != http.StatusOK || !snap.Found {
		t.Fatalf("v1 snapshot: status %d found=%v", code, snap.Found)
	}
	// The other session never saw that tag.
	if code := getJSON(t, ts.URL+sessPath+"/snapshot/v1-obj", nil); code != http.StatusNotFound {
		t.Fatalf("session default saw session s1's tag: status %d", code)
	}

	// Query surface on the v1 path.
	var info api.QueryInfo
	if code := postJSON(t, ts.URL+"/v1/sessions/s1/queries", map[string]any{"kind": "location-updates"}, &info); code != http.StatusCreated {
		t.Fatalf("v1 register: status %d", code)
	}
	var page api.ResultsPage
	if code := getJSON(t, ts.URL+"/v1/sessions/s1/queries/"+info.ID+"/results?after=-1", &page); code != http.StatusOK {
		t.Fatalf("v1 results: status %d", code)
	}
	var qlist api.QueryList
	if code := getJSON(t, ts.URL+"/v1/sessions/s1/queries", &qlist); code != http.StatusOK || len(qlist) != 1 {
		t.Fatalf("v1 query list: status %d len %d", code, len(qlist))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s1/queries/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("v1 unregister: status %d", resp.StatusCode)
	}

	// Server-level health and metrics.
	var hz api.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK || !hz.OK || hz.Sessions != 3 {
		t.Fatalf("v1 healthz: status %d %+v", code, hz)
	}
	var m map[string]float64
	if code := getJSON(t, ts.URL+"/v1/metrics?format=json", &m); code != http.StatusOK {
		t.Fatalf("v1 metrics: status %d", code)
	}
	if m[`rfidserve_readings_total{session="s1"}`] == 0 {
		t.Fatalf("no labelled series for s1 in metrics: %v", m)
	}
	if m["rfidserve_sessions"] != 3 {
		t.Fatalf("rfidserve_sessions = %v, want 3", m["rfidserve_sessions"])
	}

	// A session named "default" is deleted and re-created like any other.
	if code := del("default"); code != http.StatusNoContent {
		t.Fatalf("delete default: status %d, want 204", code)
	}
	if code := getJSON(t, ts.URL+sessPath, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session default still addressable: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "default", Source: api.SourceSynthetic}, &created); code != http.StatusCreated || created.ID != "default" {
		t.Fatalf("re-create default: status %d, %+v", code, created)
	}

	// After Close, session creation is refused — both at the handler gate
	// and (for requests already past it) by the locked admission check, so a
	// create can never slip a running session past the shutdown sweep.
	srv.Close()
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "late"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: status %d, want 503", code)
	}
	if _, err := srv.addSession(api.CreateSessionRequest{ID: "later"}, false); err == nil {
		t.Fatal("addSession after Close succeeded")
	}
}

// TestPromExpositionWithLabels pins the Prometheus text format: every
// session's series of one base name share a single HELP/TYPE header, and no
// session exports bare, unlabelled series.
func TestPromExpositionWithLabels(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "labelled"}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	body := getRaw(t, ts.URL+"/v1/metrics")
	if got := strings.Count(body, "# TYPE rfidserve_epochs_total "); got != 1 {
		t.Fatalf("TYPE header for rfidserve_epochs_total appears %d times, want exactly 1", got)
	}
	if !strings.Contains(body, `rfidserve_epochs_total{session="labelled"} `) {
		t.Fatalf("labelled series missing from exposition:\n%s", body)
	}
	if !strings.Contains(body, `rfidserve_epochs_total{session="default"} `) {
		t.Fatalf("session default's series missing from exposition:\n%s", body)
	}
	if strings.Contains(body, "\nrfidserve_epochs_total ") {
		t.Fatalf("a session exports an unlabelled series:\n%s", body)
	}
}

// TestRoutesAreVersioned pins the one-surface rule: every pattern registered
// on the mux starts with /v1/, and the unversioned paths older servers
// aliased onto a built-in session answer the 404 envelope.
func TestRoutesAreVersioned(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`HandleFunc\("([^"]+)"`)
	seen := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pattern.FindAllStringSubmatch(string(src), -1) {
			seen++
			if _, path, _ := strings.Cut(m[1], " "); !strings.HasPrefix(path, "/v1/") {
				t.Errorf("%s registers unversioned route %q", f, m[1])
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no route registrations to check")
	}

	_, ts, _, _ := newTestServer(t, 8)
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/ingest"},
		{http.MethodGet, "/healthz"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var env api.ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || derr != nil || env.Error == nil || env.Error.Code != api.ErrNotFound {
			t.Errorf("%s %s: status %d, envelope %+v (decode err %v), want the 404 envelope", tc.method, tc.path, resp.StatusCode, env.Error, derr)
		}
	}
}
