package core

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// TestPropertyOutputIndependentOfParallelism is the randomized determinism
// property suite: for a seeded matrix of traces and engine configurations,
// the engine's event stream must be byte-identical to its inline
// single-shard run (Workers=1, ShardCount=1) for every combination of
// Workers in {1,2,4,8} and ShardCount in {1,3,8,32}. Each seed draws a different trace and a different pipeline
// variant (spatial index on/off, compression on/off, report policy) from its
// own deterministic stream, so the property is exercised well beyond the one
// fixed golden trace — yet failures reproduce exactly from the seed printed
// in the subtest name.
func TestPropertyOutputIndependentOfParallelism(t *testing.T) {
	seeds := []int64{101, 202, 303}
	if testing.Short() {
		seeds = seeds[:1]
	}
	workersList := []int{1, 2, 4, 8}
	shardList := []int{1, 3, 8, 32}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			pick := rng.New(seed)

			simCfg := smallTraceConfig(6+pick.Intn(6), seed)
			trace, err := generateWarehouse(simCfg)
			if err != nil {
				t.Fatalf("GenerateWarehouse: %v", err)
			}

			cfg := DefaultConfig(defaultTestParams(), trace.World)
			cfg.NumObjectParticles = 60 + 20*pick.Intn(3)
			cfg.NumReaderParticles = 15 + 5*pick.Intn(2)
			cfg.SpatialIndex = pick.Bernoulli(0.5)
			cfg.Compression = pick.Bernoulli(0.5)
			cfg.Seed = seed*7 + 1

			inline := newEngine(t, cfg, 1, 1)
			want, err := inline.Run(trace.Epochs)
			if err != nil {
				t.Fatalf("inline Run: %v", err)
			}
			wantBytes := encodeEvents(t, want)
			wantStats := inline.Stats()

			for _, workers := range workersList {
				for _, shards := range shardList {
					eng := newEngine(t, cfg, workers, shards)
					got, err := eng.Run(trace.Epochs)
					if err != nil {
						t.Fatalf("Run(workers=%d,shards=%d): %v", workers, shards, err)
					}
					if !bytes.Equal(encodeEvents(t, got), wantBytes) {
						t.Errorf("seed=%d workers=%d shards=%d (index=%v compression=%v): events differ from the inline run",
							seed, workers, shards, cfg.SpatialIndex, cfg.Compression)
					}
					if eng.Stats() != wantStats {
						t.Errorf("seed=%d workers=%d shards=%d: stats %+v != inline %+v",
							seed, workers, shards, eng.Stats(), wantStats)
					}
				}
			}
		})
	}
}

// TestPropertyStreamingIndependentOfParallelism checks, for one seeded draw,
// that the per-epoch emissions (the streaming entry point the serving layer
// uses) also match between the inline and a fanned-out run — the matrix
// above only compares whole runs.
func TestPropertyStreamingIndependentOfParallelism(t *testing.T) {
	const seed = 404
	trace, err := generateWarehouse(smallTraceConfig(8, seed))
	if err != nil {
		t.Fatalf("GenerateWarehouse: %v", err)
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.NumObjectParticles = 80
	cfg.NumReaderParticles = 20
	cfg.Seed = seed

	inline := newEngine(t, cfg, 1, 1)
	fanned := newEngine(t, cfg, 4, 32)
	for _, ep := range trace.Epochs {
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

// fmtSeed names a property subtest after its seed.
func fmtSeed(seed int64) string {
	return "seed-" + strconv.FormatInt(seed, 10)
}
