package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/rfid/api"
)

// TestQuerySpecWireCompatibility pins the contract the register path relies
// on: api.QuerySpec (the public wire schema) and query.Spec (the internal
// registry type) share JSON field names exactly, in both directions.
func TestQuerySpecWireCompatibility(t *testing.T) {
	full := api.QuerySpec{
		Kind:            api.QueryWindowedAggregate,
		Mode:            api.ModeHistory,
		FromEpoch:       3,
		ToEpoch:         9,
		MinChange:       0.25,
		WindowEpochs:    7,
		ThresholdPounds: 150,
		WeightPounds:    25,
		Op:              "sum-weight",
		GroupBy:         "area",
	}
	data, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	internal, err := query.ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec rejected the api shape: %v", err)
	}
	back := specToAPI(internal)
	if !reflect.DeepEqual(full, back) {
		t.Fatalf("spec round-trip lost fields:\n in  %+v\n out %+v", full, back)
	}
	// And the reverse: the internal spec marshals into bytes the api type
	// decodes without loss.
	data2, err := json.Marshal(internal)
	if err != nil {
		t.Fatal(err)
	}
	var decoded api.QuerySpec
	if err := json.Unmarshal(data2, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, decoded) {
		t.Fatalf("internal marshal diverges from api shape:\n in  %+v\n out %+v", full, decoded)
	}
}

// TestBuildRunnerValidation pins the untrusted-input caps on session
// creation.
func TestBuildRunnerValidation(t *testing.T) {
	cases := []struct {
		name string
		req  api.CreateSessionRequest
	}{
		{"negative particles", api.CreateSessionRequest{Engine: &api.EngineConfig{ObjectParticles: -1}}},
		{"huge particles", api.CreateSessionRequest{Engine: &api.EngineConfig{ObjectParticles: maxObjectParticles + 1}}},
		{"huge workers", api.CreateSessionRequest{Engine: &api.EngineConfig{Workers: maxWorkers + 1}}},
		{"negative history", api.CreateSessionRequest{Engine: &api.EngineConfig{HistoryEpochs: -2}}},
		{"bad source", api.CreateSessionRequest{Source: "teleport"}},
		{"world source without world", api.CreateSessionRequest{Source: api.SourceWorld}},
		{"duplicate shelf ids", api.CreateSessionRequest{World: &api.World{Shelves: []api.Shelf{
			{ID: "x", Max: api.Vec3{X: 1, Y: 1, Z: 1}},
			{ID: "x", Max: api.Vec3{X: 2, Y: 2, Z: 2}},
		}}}},
		{"empty shelf-tag id", api.CreateSessionRequest{World: &api.World{
			Shelves:   []api.Shelf{{ID: "a", Max: api.Vec3{X: 1, Y: 1, Z: 1}}},
			ShelfTags: []api.ShelfTag{{Tag: ""}},
		}}},
	}
	for _, tc := range cases {
		_, err := buildRunner(tc.req, 0)
		apiErr, ok := err.(*api.Error)
		if !ok || apiErr.Code != api.ErrBadRequest {
			t.Errorf("%s: err = %v, want *api.Error{bad_request}", tc.name, err)
		}
	}

	// A well-formed explicit world with shelf tags builds.
	runner, err := buildRunner(api.CreateSessionRequest{
		World: &api.World{
			Shelves:   []api.Shelf{{ID: "a", Max: api.Vec3{X: 10, Y: 10, Z: 4}}},
			ShelfTags: []api.ShelfTag{{Tag: "ref-1", Loc: api.Vec3{X: 1, Y: 1, Z: 1}}},
		},
		Params: &api.Params{Object: &api.ObjectParams{MoveProb: 1e-4}},
		Engine: &api.EngineConfig{ObjectParticles: 50, ReaderParticles: 10, Seed: 2},
	}, 16)
	if err != nil || runner == nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestEnvelopeMiddleware pins that errors generated by the mux itself (not a
// handler) still carry the structured JSON envelope.
func TestEnvelopeMiddleware(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)

	check := func(method, path string, wantStatus int, wantCode string) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s %s: content-type %q, want JSON", method, path, ct)
		}
		body, _ := io.ReadAll(resp.Body)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("%s %s: body %q is not an error envelope", method, path, body)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("%s %s: code %q, want %q", method, path, env.Error.Code, wantCode)
		}
	}

	// Unknown path: the mux's own 404.
	check(http.MethodGet, "/no/such/path", http.StatusNotFound, api.ErrNotFound)
	// Method mismatch: the mux's own 405.
	check(http.MethodDelete, sessPath+"/ingest", http.StatusMethodNotAllowed, api.ErrBadRequest)
	// Handler-level errors keep their specific envelope.
	check(http.MethodGet, "/v1/sessions/ghost", http.StatusNotFound, api.ErrNotFound)
	check(http.MethodPost, "/v1/sessions/ghost/flush", http.StatusNotFound, api.ErrNotFound)
}
