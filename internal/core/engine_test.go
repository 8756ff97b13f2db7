package core

import (
	"testing"

	"repro/internal/belief"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stream"
)

// smallTrace generates a compact warehouse trace used across the engine tests.
func smallTrace(t *testing.T, numObjects int, seed int64) *sim.Trace {
	t.Helper()
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = numObjects
	cfg.NumShelfTags = 4
	cfg.Seed = seed
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	return trace
}

// runEngine builds an engine with the given tweaks and runs it over the trace.
func runEngine(t *testing.T, trace *sim.Trace, tweak func(*Config)) (*Engine, []stream.Event) {
	t.Helper()
	cfg := DefaultConfig(testParams(), trace.World)
	cfg.NumObjectParticles = 300
	cfg.NumReaderParticles = 50
	cfg.Seed = 42
	if tweak != nil {
		tweak(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	events, err := eng.Run(trace.Epochs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return eng, events
}

// testParams returns model parameters matching the default warehouse
// simulation (robot advancing 0.1 ft per epoch with small noise).
func testParams() modelParams {
	return defaultTestParams()
}

func TestEngineTracksAllObjects(t *testing.T) {
	trace := smallTrace(t, 12, 3)
	eng, _ := runEngine(t, trace, nil)
	tracked := eng.TrackedObjects()
	if len(tracked) != len(trace.ObjectIDs) {
		t.Fatalf("tracked %d objects, want %d", len(tracked), len(trace.ObjectIDs))
	}
}

func TestEngineAccuracyFactored(t *testing.T) {
	trace := smallTrace(t, 12, 3)
	eng, events := runEngine(t, trace, nil)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	rep := metrics.ScoreEvents(events, func(id stream.TagID, tm int) (geom.Vec3, bool) {
		return trace.Truth.ObjectAt(id, tm)
	})
	if rep.Count == 0 {
		t.Fatal("no events scored")
	}
	if rep.MeanXY > 0.6 {
		t.Errorf("mean XY error %.3f ft, want <= 0.6 ft", rep.MeanXY)
	}
	if eng.Stats().Readings == 0 {
		t.Error("stats recorded no readings")
	}
}

func TestEngineAccuracyWithIndexAndCompression(t *testing.T) {
	trace := smallTrace(t, 12, 4)
	// Two rounds so compressed objects are revisited.
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = 12
	cfg.NumShelfTags = 4
	cfg.Rounds = 2
	cfg.Seed = 4
	trace2, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	_ = trace

	eng, events := runEngine(t, trace2, func(c *Config) {
		c.SpatialIndex = true
		c.Compression = true
	})
	rep := metrics.ScoreEvents(events, func(id stream.TagID, tm int) (geom.Vec3, bool) {
		return trace2.Truth.ObjectAt(id, tm)
	})
	if rep.MeanXY > 0.6 {
		t.Errorf("mean XY error %.3f ft with index+compression, want <= 0.6 ft", rep.MeanXY)
	}
	st := eng.Stats()
	if st.Compressions == 0 {
		t.Error("expected at least one compression over two scan rounds")
	}
	if st.Decompressions == 0 {
		t.Error("expected at least one decompression over two scan rounds")
	}
	if eng.IndexSize() == 0 {
		t.Error("spatial index is empty")
	}
}

func TestEngineBasicFilterSmall(t *testing.T) {
	trace := smallTrace(t, 4, 5)
	_, events := runEngine(t, trace, func(c *Config) {
		c.Factored = false
		c.SpatialIndex = false
		c.Compression = false
		c.NumBasicParticles = 2000
	})
	rep := metrics.ScoreEvents(events, func(id stream.TagID, tm int) (geom.Vec3, bool) {
		return trace.Truth.ObjectAt(id, tm)
	})
	if rep.Count == 0 {
		t.Fatal("no events scored")
	}
	if rep.MeanXY > 1.0 {
		t.Errorf("basic filter mean XY error %.3f ft, want <= 1.0 ft", rep.MeanXY)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	trace := smallTrace(t, 2, 6)
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.Factored = false
	cfg.SpatialIndex = true
	if _, err := New(cfg); err == nil {
		t.Error("expected error: spatial index without factored filter")
	}
	cfg = DefaultConfig(defaultTestParams(), nil)
	if _, err := New(cfg); err == nil {
		t.Error("expected error: nil world")
	}
}

// TestCompressionRecordsOnlyMeasuredKL pins who measures the compression KL:
// the default leave-scope policy never asks for it, so the beliefs it
// compresses record zero; the KL-ranked policy asks once per candidate and
// the belief records exactly the value it was ranked by.
func TestCompressionRecordsOnlyMeasuredKL(t *testing.T) {
	trace := smallTrace(t, 12, 4)
	eng, _ := runEngine(t, trace, func(c *Config) {
		c.SpatialIndex = true
		c.Compression = true
	})
	compressed := 0
	for _, id := range eng.TrackedObjects() {
		if b := eng.fact.Belief(id); b.IsCompressed() {
			compressed++
			if b.CompressionKL != 0 {
				t.Errorf("leave-scope compressed %s with CompressionKL %v; nothing measured it", id, b.CompressionKL)
			}
		}
	}
	if compressed == 0 {
		t.Fatal("leave-scope run compressed nothing")
	}

	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.NumObjectParticles = 150
	cfg.NumReaderParticles = 30
	cfg.CompressionPolicy.Mode = belief.KLRanked
	cfg.Seed = 9
	ranked := newEngine(t, cfg, 1)
	// Stop while every belief is younger than OutOfScopeEpochs, so the
	// policy has ranked nothing yet, then run it far in the future.
	horizon := cfg.CompressionPolicy.OutOfScopeEpochs - 1
	for _, ep := range trace.Epochs[:horizon] {
		if _, err := ranked.ProcessEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	want := map[stream.TagID]float64{}
	for _, id := range ranked.TrackedObjects() {
		kl, ok := ranked.fact.CompressionCandidateKL(id)
		if !ok || kl <= 0 {
			t.Fatalf("candidate KL for %s = %v, %v before any compression", id, kl, ok)
		}
		want[id] = kl
	}
	ranked.runCompression(horizon + 1000)
	if n := ranked.Stats().Compressions; n == 0 || n != len(want) {
		t.Fatalf("ranked policy compressed %d of %d beliefs", n, len(want))
	}
	for id, kl := range want {
		if b := ranked.fact.Belief(id); !b.IsCompressed() || b.CompressionKL != kl {
			t.Errorf("%s: compressed=%v CompressionKL=%v, want the ranked value %v", id, b.IsCompressed(), b.CompressionKL, kl)
		}
	}
}
