package core

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// TestPropertyFastMathWithinTolerance is the equivalence suite for the
// approximate numerics mode: over a seeded matrix of traces and pipeline
// variants, a Config.FastMath run must produce the same event schedule as
// the exact run with every location within the documented
// FastMathTolerance bound — and, within the fast mode, output must remain
// byte-identical to the inline single-shard run for every worker and shard
// count (determinism and schedule-independence are per-mode properties,
// unaffected by which kernels compute the weights).
func TestPropertyFastMathWithinTolerance(t *testing.T) {
	seeds := []int64{401, 502, 603}
	if testing.Short() {
		seeds = seeds[:1]
	}
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

			want, err := newEngine(t, cfg, 1, 1).Run(trace.Epochs)
			if err != nil {
				t.Fatalf("exact Run: %v", err)
			}
			if len(want) == 0 {
				t.Fatal("trace produced no events")
			}

			fcfg := cfg
			fcfg.FastMath = true
			got, err := newEngine(t, fcfg, 1, 1).Run(trace.Epochs)
			if err != nil {
				t.Fatalf("fast Run: %v", err)
			}
			if err := CompareTolerance(got, want, FastMathTolerance()); err != nil {
				t.Errorf("seed=%d (index=%v compression=%v): fast-math run outside tolerance: %v",
					seed, cfg.SpatialIndex, cfg.Compression, err)
			}
			fastBytes := encodeEvents(t, got)

			for _, workers := range []int{2, 4} {
				for _, shards := range []int{3, 16} {
					sgot, err := newEngine(t, fcfg, workers, shards).Run(trace.Epochs)
					if err != nil {
						t.Fatalf("fast Run(workers=%d,shards=%d): %v", workers, shards, err)
					}
					if !bytes.Equal(encodeEvents(t, sgot), fastBytes) {
						t.Errorf("seed=%d workers=%d shards=%d: fast-math events differ from the fast-math inline run (must be byte-identical within a mode)",
							seed, workers, shards)
					}
				}
			}
		})
	}
}
