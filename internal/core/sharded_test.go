package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/stream"
)

// goldenTraceConfig is the fixed-seed trace all determinism tests share.
func goldenTrace(t *testing.T, objects int) ([]*stream.Epoch, Config) {
	t.Helper()
	trace, err := generateWarehouse(smallTraceConfig(objects, 11))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.NumObjectParticles = 120
	cfg.NumReaderParticles = 25
	cfg.Seed = 17
	return trace.Epochs, cfg
}

// encodeEvents renders events to canonical bytes for byte-identity checks.
func encodeEvents(t *testing.T, events []stream.Event) []byte {
	t.Helper()
	buf, err := json.Marshal(events)
	if err != nil {
		t.Fatalf("marshal events: %v", err)
	}
	return buf
}

// newEngine builds an engine from cfg with the given parallelism.
func newEngine(t *testing.T, cfg Config, workers, shards int) *Engine {
	t.Helper()
	cfg.Workers, cfg.ShardCount = workers, shards
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New(workers=%d,shards=%d): %v", workers, shards, err)
	}
	return eng
}

// serialGoldens are the reference outputs of the serial epoch body this
// engine replaced: the sha256 of the canonical event bytes plus Stats of
// core.New(cfg).Run over goldenTrace, captured at commit 6b21af3 (the last
// one carrying the serial body) on GOARCH=amd64. Other architectures may
// fuse multiply-adds and round differently, so the digests are asserted on
// amd64 only; the workers x shards identity below holds everywhere.
var serialGoldens = []struct {
	name    string
	objects int
	mutate  func(*Config)
	sha256  string
	stats   Stats
}{
	{"full", 25, func(*Config) {},
		"7480f9b17fa9bad2215987f02a68aae962730cedf00278f4e1c7b1d3e1534f15",
		Stats{Epochs: 126, Readings: 352, ObjectsProcessed: 756, EventsEmitted: 39, Compressions: 20, TrackedObjects: 25}},
	{"no-index", 10, func(c *Config) { c.SpatialIndex, c.Compression = false, false },
		"f0cd28ec256fe7dc703072db4189d12a27c2ecd6578e32d255816a7ba697e9d1",
		Stats{Epochs: 81, Readings: 173, ObjectsProcessed: 611, EventsEmitted: 15, TrackedObjects: 10}},
	{"index-only", 10, func(c *Config) { c.SpatialIndex, c.Compression = true, false },
		"f0cd28ec256fe7dc703072db4189d12a27c2ecd6578e32d255816a7ba697e9d1",
		Stats{Epochs: 81, Readings: 173, ObjectsProcessed: 611, EventsEmitted: 15, TrackedObjects: 10}},
	{"compression-only", 10, func(c *Config) { c.SpatialIndex, c.Compression = false, true },
		"f83a5719efcec97cc06b0b4b0dc62efafe947e198f4b6340ae6e0b517d4096b5",
		Stats{Epochs: 81, Readings: 173, ObjectsProcessed: 611, EventsEmitted: 15, Compressions: 10, TrackedObjects: 10}},
	{"no-motion-model", 10, func(c *Config) { c.DisableMotionModel = true },
		"5c00b612c3ed1b26aa725f40576e8a388725daff13cfe477e84995bdaeddb963",
		Stats{Epochs: 81, Readings: 173, ObjectsProcessed: 327, EventsEmitted: 15, Compressions: 10, TrackedObjects: 10}},
}

// TestEngineMatchesSerialGolden is the golden-trace determinism test: on the
// fixed-seed trace and each non-default pipeline variant (no spatial index,
// no compression, no motion model) the engine must reproduce the recorded
// serial reference byte for byte, with identical work counters, for every
// worker and shard count.
func TestEngineMatchesSerialGolden(t *testing.T) {
	for _, g := range serialGoldens {
		t.Run(g.name, func(t *testing.T) {
			epochs, cfg := goldenTrace(t, g.objects)
			g.mutate(&cfg)
			var want []byte
			var wantStats Stats
			for _, workers := range []int{1, 2, 3, 4} {
				for _, shards := range []int{1, 5, 16} {
					eng := newEngine(t, cfg, workers, shards)
					events, err := eng.Run(epochs)
					if err != nil {
						t.Fatalf("Run(workers=%d,shards=%d): %v", workers, shards, err)
					}
					got := encodeEvents(t, events)
					if want == nil {
						// The inline single-shard cell is pinned to the golden;
						// every other cell must equal it.
						want, wantStats = got, eng.Stats()
						sum := fmt.Sprintf("%x", sha256.Sum256(got))
						if runtime.GOARCH == "amd64" && (sum != g.sha256 || wantStats != g.stats) {
							t.Fatalf("sha256 %s, stats %+v; serial golden %s, %+v", sum, wantStats, g.sha256, g.stats)
						}
						continue
					}
					if !bytes.Equal(got, want) {
						t.Errorf("workers=%d shards=%d: events differ from the workers=1 shards=1 run", workers, shards)
					}
					if eng.Stats() != wantStats {
						t.Errorf("workers=%d shards=%d: stats %+v != %+v", workers, shards, eng.Stats(), wantStats)
					}
				}
			}
		})
	}
}

// TestEngineStreamingMatchesAcrossParallelism checks the streaming entry
// point: every epoch's emissions must match between an inline single-shard
// run and a fanned-out one, not only the aggregate.
func TestEngineStreamingMatchesAcrossParallelism(t *testing.T) {
	epochs, cfg := goldenTrace(t, 12)
	inline := newEngine(t, cfg, 1, 1)
	fanned := newEngine(t, cfg, 4, 7)
	for _, ep := range epochs {
		want, err := inline.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("inline ProcessEpoch: %v", err)
		}
		got, err := fanned.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("fanned-out ProcessEpoch: %v", err)
		}
		if !bytes.Equal(encodeEvents(t, got), encodeEvents(t, want)) {
			t.Fatalf("epoch %d: emissions differ", ep.Time)
		}
	}
	if !bytes.Equal(encodeEvents(t, fanned.Finish()), encodeEvents(t, inline.Finish())) {
		t.Error("final flush differs")
	}
}

// TestEngineParallelismDefaults checks worker/shard resolution, and that the
// basic filter — which has no per-object phase — accepts and ignores Workers.
func TestEngineParallelismDefaults(t *testing.T) {
	epochs, cfg := goldenTrace(t, 2)

	eng := newEngine(t, cfg, 0, 0)
	got := eng.Config()
	if got.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Config().Workers = %d, want GOMAXPROCS = %d", got.Workers, runtime.GOMAXPROCS(0))
	}
	if got.ShardCount < 8 || got.ShardCount < 4*got.Workers {
		t.Errorf("Config().ShardCount = %d too small for %d workers", got.ShardCount, got.Workers)
	}

	cfg.Factored, cfg.SpatialIndex, cfg.Compression = false, false, false
	cfg.NumBasicParticles = 300
	want, err := newEngine(t, cfg, 1, 0).Run(epochs)
	if err != nil {
		t.Fatalf("basic Run(workers=1): %v", err)
	}
	events, err := newEngine(t, cfg, 4, 0).Run(epochs)
	if err != nil {
		t.Fatalf("basic Run(workers=4): %v", err)
	}
	if !bytes.Equal(encodeEvents(t, events), encodeEvents(t, want)) {
		t.Error("basic filter output depends on Workers")
	}
}
