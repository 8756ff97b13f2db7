package rfid_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/rfid"
)

// simulateSmall builds a small warehouse trace through the public API.
func simulateSmall(t *testing.T, objects int, seed int64) *rfid.Trace {
	t.Helper()
	cfg := rfid.DefaultWarehouseConfig()
	cfg.NumObjects = objects
	cfg.NumShelfTags = 4
	cfg.Seed = seed
	trace, err := rfid.SimulateWarehouse(cfg)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	return trace
}

func TestPublicPipelineEndToEnd(t *testing.T) {
	trace := simulateSmall(t, 10, 3)

	// Raw streams -> synchronized epochs -> pipeline -> events.
	readings, locations := rfid.RawStreams(trace)
	epochs := rfid.Synchronize(readings, locations)
	if len(epochs) != len(trace.Epochs) {
		t.Fatalf("synchronization changed the epoch count: %d vs %d", len(epochs), len(trace.Epochs))
	}

	cfg := rfid.DefaultConfig(rfid.DefaultParams(), trace.World)
	cfg.NumObjectParticles = 300
	cfg.Seed = 3
	pipe, err := rfid.NewPipeline(cfg)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	events, err := pipe.Run(epochs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if got := len(pipe.TrackedObjects()); got != 10 {
		t.Errorf("tracked %d objects, want 10", got)
	}
	rep := rfid.ScoreAgainstTrace(events, trace)
	if rep.Count != 10 {
		t.Errorf("scored %d objects", rep.Count)
	}
	if rep.MeanXY > 0.7 {
		t.Errorf("mean XY error %.3f ft through the public API", rep.MeanXY)
	}
	if pipe.Stats().Readings == 0 {
		t.Error("stats empty")
	}
	// Per-object estimates are reachable too.
	if _, _, ok := pipe.Estimate(trace.ObjectIDs[0]); !ok {
		t.Error("estimate for a tracked object unavailable")
	}
}

func TestPublicCalibration(t *testing.T) {
	trace := simulateSmall(t, 16, 5)
	calCfg := rfid.DefaultCalibrationConfig()
	calCfg.Iterations = 2
	calCfg.ObjectParticles = 80
	res, err := rfid.Calibrate(trace.Epochs, trace.World, rfid.DefaultParams(), calCfg)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if res.Params.Sensor.EffectiveRange(0.5) <= 0 {
		t.Error("calibrated sensor has no effective range")
	}
	// The calibrated parameters drive a pipeline at least as well as the
	// defaults on the same trace.
	cfg := rfid.DefaultConfig(res.Params, trace.World)
	cfg.NumObjectParticles = 300
	pipe, err := rfid.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(trace.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	if rep := rfid.ScoreAgainstTrace(events, trace); rep.MeanXY > 0.7 {
		t.Errorf("calibrated pipeline error %.3f ft", rep.MeanXY)
	}
}

func TestPublicQueries(t *testing.T) {
	trace := simulateSmall(t, 12, 7)
	cfg := rfid.DefaultConfig(rfid.DefaultParams(), trace.World)
	cfg.ReportPolicy = rfid.ReportEveryEpoch
	cfg.NumObjectParticles = 200
	pipe, err := rfid.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := pipe.Run(trace.Epochs)
	if err != nil {
		t.Fatal(err)
	}

	updates := rfid.NewLocationUpdateQuery(0.25).Run(events)
	if len(updates) == 0 {
		t.Error("location-update query produced nothing")
	}

	fire := rfid.NewFireCodeQuery(rfid.FireCodeConfig{
		WindowEpochs:    5,
		ThresholdPounds: 100,
		Weight:          func(rfid.TagID) float64 { return 80 },
	})
	violations := fire.Run(events)
	// With 80-pound objects half a foot apart, some square foot must exceed
	// 100 pounds at some point during the scan.
	if len(violations) == 0 {
		t.Error("fire-code query produced no violations")
	}
}

func TestPublicBaselines(t *testing.T) {
	labCfg := rfid.DefaultLabConfig()
	labCfg.Seed = 11
	trace, err := rfid.SimulateLab(labCfg)
	if err != nil {
		t.Fatalf("SimulateLab: %v", err)
	}
	smurfEvents := rfid.NewSMURF(rfid.SMURFConfig{ReadRange: 2.5, Seed: 1}, trace.World).Run(trace.Epochs)
	uniformEvents := rfid.NewUniformBaseline(rfid.SMURFConfig{ReadRange: 2.5, Seed: 1}, trace.World).Run(trace.Epochs)
	if len(smurfEvents) == 0 || len(uniformEvents) == 0 {
		t.Fatal("baselines produced no events")
	}
	smurfRep := rfid.ScoreAgainstTrace(smurfEvents, trace)
	uniformRep := rfid.ScoreAgainstTrace(uniformEvents, trace)
	if smurfRep.MeanXY <= 0 || uniformRep.MeanXY <= 0 {
		t.Error("baseline errors look wrong")
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	trace := simulateSmall(t, 5, 13)
	readings, locations := rfid.RawStreams(trace)

	var buf bytes.Buffer
	if err := rfid.WriteReadingsCSV(&buf, readings); err != nil {
		t.Fatal(err)
	}
	gotReadings, err := rfid.ReadReadingsCSV(&buf)
	if err != nil || len(gotReadings) != len(readings) {
		t.Fatalf("readings round trip: %v (%d)", err, len(gotReadings))
	}

	buf.Reset()
	if err := rfid.WriteLocationsCSV(&buf, locations); err != nil {
		t.Fatal(err)
	}
	gotLocations, err := rfid.ReadLocationsCSV(&buf)
	if err != nil || len(gotLocations) != len(locations) {
		t.Fatalf("locations round trip: %v", err)
	}
}

func TestPublicWorldConstruction(t *testing.T) {
	w := rfid.NewWorld()
	w.AddShelf(rfid.Shelf{ID: "s", Region: rfid.NewBBox(rfid.Vec3{X: 0, Y: 0}, rfid.Vec3{X: 1, Y: 10})})
	w.AddShelfTag("ref", rfid.Vec3{X: 0, Y: 5})
	cfg := rfid.DefaultConfig(rfid.DefaultParams(), w)
	if _, err := rfid.NewPipeline(cfg); err != nil {
		t.Fatalf("pipeline over a hand-built world: %v", err)
	}
	// Invalid configuration is rejected.
	bad := cfg
	bad.Factored = false
	bad.SpatialIndex = true
	if _, err := rfid.NewPipeline(bad); err == nil {
		t.Error("expected config validation error")
	}
}

// TestPublicPipelineWorkers verifies per-epoch parallelism through the public
// API: output does not depend on Config.Workers, for the factored system and
// for the basic filter (which has no per-object phase and ignores it).
func TestPublicPipelineWorkers(t *testing.T) {
	trace := simulateSmall(t, 8, 9)
	factored := rfid.DefaultConfig(rfid.DefaultParams(), trace.World)
	factored.NumObjectParticles = 150
	factored.Seed = 9
	basic := factored
	basic.Factored, basic.SpatialIndex, basic.Compression = false, false, false
	basic.NumBasicParticles = 500

	for name, cfg := range map[string]rfid.Config{"factored": factored, "basic": basic} {
		run := func(workers int) []rfid.Event {
			cfg.Workers = workers
			p, err := rfid.NewPipeline(cfg)
			if err != nil {
				t.Fatalf("%s: NewPipeline(Workers=%d): %v", name, workers, err)
			}
			events, err := p.Run(trace.Epochs)
			if err != nil {
				t.Fatalf("%s: Run(Workers=%d): %v", name, workers, err)
			}
			return events
		}
		want := run(1)
		if len(want) == 0 {
			t.Fatalf("%s: no events", name)
		}
		for _, workers := range []int{0, 4} {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Workers=%d output differs from Workers=1", name, workers)
			}
		}
	}
}
