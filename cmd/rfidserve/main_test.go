package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/traceio"
	"repro/rfid"
	"repro/rfid/api"
)

// writeTrace simulates a small warehouse and writes it as a -trace directory.
func writeTrace(t *testing.T) (string, *rfid.Trace) {
	t.Helper()
	simCfg := rfid.DefaultWarehouseConfig()
	simCfg.NumObjects = 4
	simCfg.NumShelfTags = 3
	simCfg.Seed = 5
	trace, err := rfid.SimulateWarehouse(simCfg)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	dir := t.TempDir()
	if err := traceio.Write(dir, trace); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	return dir, trace
}

// TestSessionRequestFlagWiring pins what -trace asks the server to create:
// the engine flags land in the request's engine block, the trace's shelves
// and shelf tags in its world, the session is the plain id "default", and the
// server's one create path accepts the result — first as a create, then (the
// durable-restart case) as a conflict with the session that already exists.
func TestSessionRequestFlagWiring(t *testing.T) {
	dir, trace := writeTrace(t)
	req, err := sessionRequest(dir, sessionFlags{
		shelfDepth: 1, particles: 321, readerParticles: 45, workers: 3, seed: 77, hold: 2, history: 19,
	})
	if err != nil {
		t.Fatalf("sessionRequest: %v", err)
	}
	if req.ID != "default" || req.Source != "" || req.Synthetic != nil || req.Params != nil {
		t.Fatalf("request = %+v, want id default, an explicit world and default params", req)
	}
	want := api.EngineConfig{ObjectParticles: 321, ReaderParticles: 45, Workers: 3, Seed: 77, HoldEpochs: 2, HistoryEpochs: 19}
	if req.Engine == nil || *req.Engine != want {
		t.Fatalf("engine = %+v, want %+v", req.Engine, want)
	}

	if req.World == nil || len(req.World.Shelves) != len(trace.World.Shelves) || len(req.World.ShelfTags) != len(trace.World.ShelfTags) {
		t.Fatalf("world = %+v, want %d shelves and %d shelf tags", req.World, len(trace.World.Shelves), len(trace.World.ShelfTags))
	}
	for i, sh := range trace.World.Shelves {
		got := req.World.Shelves[i]
		if got.ID != sh.ID || got.Min != vec3ToAPI(sh.Region.Min) || got.Max != vec3ToAPI(sh.Region.Max) {
			t.Errorf("shelf %d = %+v, want %+v", i, got, sh)
		}
	}
	for _, tag := range req.World.ShelfTags {
		loc, ok := trace.World.ShelfTags[rfid.TagID(tag.Tag)]
		if !ok || tag.Loc != vec3ToAPI(loc) {
			t.Errorf("shelf tag %+v, want location %+v (known %v)", tag, loc, ok)
		}
	}

	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(context.Background(), req)
	if err != nil || sess.ID != "default" || sess.State != "serving" {
		t.Fatalf("CreateSession = %+v, %v, want a serving session default", sess, err)
	}
	_, err = srv.CreateSession(context.Background(), req)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrConflict {
		t.Fatalf("second CreateSession = %v, want the conflict main skips on a durable restart", err)
	}
}

// TestSessionRequestCalibrates pins that -calibrate puts fitted model
// parameters into the request.
func TestSessionRequestCalibrates(t *testing.T) {
	dir, _ := writeTrace(t)
	req, err := sessionRequest(dir, sessionFlags{shelfDepth: 1, particles: 50, readerParticles: 20, seed: 1, calibrate: true})
	if err != nil {
		t.Fatalf("sessionRequest: %v", err)
	}
	if req.Params == nil || req.Params.Sensor == nil || req.Params.Motion == nil || req.Params.Sensing == nil || req.Params.Object == nil {
		t.Fatalf("params = %+v, want every calibrated model", req.Params)
	}
	if req.Params.Sensor.MaxRange <= 0 {
		t.Fatalf("calibrated sensor = %+v, want a positive range", req.Params.Sensor)
	}
}

// TestSessionRequestRefusesReplica pins the startup error: a replica's
// sessions come from its primary, so -trace with -replica-of is refused.
func TestSessionRequestRefusesReplica(t *testing.T) {
	dir, _ := writeTrace(t)
	_, err := sessionRequest(dir, sessionFlags{shelfDepth: 1, replicaOf: "127.0.0.1:9"})
	if err == nil || !strings.Contains(err.Error(), "-replica-of") {
		t.Fatalf("sessionRequest with -replica-of = %v, want a refusal naming the flag", err)
	}
	if _, err := sessionRequest(t.TempDir(), sessionFlags{shelfDepth: 1}); err == nil {
		t.Fatal("sessionRequest on a directory without a trace succeeded")
	}
}
