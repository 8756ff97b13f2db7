package repro

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/rfid"
	"repro/rfid/api"
)

// The benchmarks below regenerate the paper's tables and figures (one
// benchmark per artifact, named after it) and add per-reading micro
// benchmarks and ablations for the design choices called out in DESIGN.md.
//
// The experiment benchmarks run the corresponding driver at a reduced scale
// so the whole suite completes in minutes; run cmd/rfidbench with
// -scale 0.5..1.0 for results closer to the paper's experiment sizes.

// benchOpts is the scale used for the experiment-reproduction benchmarks.
func benchOpts() experiments.Options { return experiments.Options{Scale: 0.15, Seed: 1} }

func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

// BenchmarkFig5SensorLearning regenerates Fig. 5(a)-(d): learned sensor
// models compared against the ground-truth profiles.
func BenchmarkFig5SensorLearning(b *testing.B) { runExperimentBench(b, "fig5bcd") }

// BenchmarkFig5eLearnedModels regenerates Fig. 5(e): inference error vs the
// number of shelf tags available to calibration.
func BenchmarkFig5eLearnedModels(b *testing.B) { runExperimentBench(b, "fig5e") }

// BenchmarkFig5fReadRate regenerates Fig. 5(f): inference error vs the major
// detection range read rate.
func BenchmarkFig5fReadRate(b *testing.B) { runExperimentBench(b, "fig5f") }

// BenchmarkFig5gLocationNoise regenerates Fig. 5(g): inference error vs the
// systematic reader-location error.
func BenchmarkFig5gLocationNoise(b *testing.B) { runExperimentBench(b, "fig5g") }

// BenchmarkFig5hMovement regenerates Fig. 5(h): inference error vs object
// movement distance.
func BenchmarkFig5hMovement(b *testing.B) { runExperimentBench(b, "fig5h") }

// BenchmarkFig5iScalabilityError regenerates Fig. 5(i): inference error vs
// the number of objects for the four system variants.
func BenchmarkFig5iScalabilityError(b *testing.B) { runExperimentBench(b, "fig5i") }

// BenchmarkFig5jScalabilityTime regenerates Fig. 5(j): CPU time per reading
// vs the number of objects for the four system variants.
func BenchmarkFig5jScalabilityTime(b *testing.B) { runExperimentBench(b, "fig5j") }

// BenchmarkTable6bLabComparison regenerates the table of Fig. 6(b): our
// system vs improved SMURF vs uniform sampling on the emulated lab
// deployment.
func BenchmarkTable6bLabComparison(b *testing.B) { runExperimentBench(b, "table6b") }

// BenchmarkHeadline regenerates the headline claims (error reduction over
// SMURF, sustained throughput).
func BenchmarkHeadline(b *testing.B) { runExperimentBench(b, "headline") }

// ---------------------------------------------------------------------------
// Per-reading micro benchmarks: the processing cost of one reading under each
// system variant (the quantity plotted in Fig. 5(j)), measured directly on one
// worker.

// benchParams mirrors the warehouse inference parameters used by the
// experiments.
func benchParams() model.Params {
	return model.DefaultParams()
}

func benchTrace(b *testing.B, objects int) *sim.Trace {
	b.Helper()
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = objects
	cfg.NumShelfTags = 4
	cfg.ObjectSpacing = 0.25
	cfg.RowsDeep = 4
	cfg.Rounds = 2
	cfg.Seed = 42
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		b.Fatalf("GenerateWarehouse: %v", err)
	}
	return trace
}

func benchEngineVariant(b *testing.B, objects int, factored, index, compression bool, particles, workers int) {
	trace := benchTrace(b, objects)
	readings := trace.NumReadings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(benchParams(), trace.World)
		cfg.Factored = factored
		cfg.SpatialIndex = index
		cfg.Compression = compression
		cfg.NumObjectParticles = particles
		cfg.NumBasicParticles = 2000
		cfg.NumReaderParticles = 50
		cfg.Workers = workers
		cfg.Seed = 7
		eng, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, ep := range trace.Epochs {
			if _, err := eng.ProcessEpoch(ep); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if readings > 0 {
		perReading := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(readings)
		b.ReportMetric(perReading, "ns/reading")
	}
}

// BenchmarkPerReadingBasic measures the basic (unfactorized) filter on a tiny
// warehouse; this is the paper's slowest configuration.
func BenchmarkPerReadingBasic(b *testing.B) { benchEngineVariant(b, 10, false, false, false, 0, 1) }

// BenchmarkPerReadingFactored measures the factored filter without spatial
// indexing or compression.
func BenchmarkPerReadingFactored(b *testing.B) {
	benchEngineVariant(b, 100, true, false, false, 200, 1)
}

// BenchmarkPerReadingFactoredIndex adds the spatial index.
func BenchmarkPerReadingFactoredIndex(b *testing.B) {
	benchEngineVariant(b, 100, true, true, false, 200, 1)
}

// BenchmarkPerReadingFullSystem adds belief compression (the configuration
// the paper reports at over 1500 readings per second).
func BenchmarkPerReadingFullSystem(b *testing.B) {
	benchEngineVariant(b, 100, true, true, true, 200, 1)
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices listed in DESIGN.md.

// BenchmarkAblationObjectParticles sweeps the per-object particle count,
// showing the cost/accuracy lever behind the paper's choice of 1000.
func BenchmarkAblationObjectParticles(b *testing.B) {
	for _, particles := range []int{100, 300, 1000} {
		particles := particles
		b.Run(benchName("particles", particles), func(b *testing.B) {
			benchEngineVariant(b, 50, true, true, false, particles, 1)
		})
	}
}

// BenchmarkAblationDecompressParticles sweeps the number of particles
// recreated when a compressed belief is read again (the paper uses 10).
func BenchmarkAblationDecompressParticles(b *testing.B) {
	trace := benchTrace(b, 100)
	for _, n := range []int{5, 10, 50} {
		n := n
		b.Run(benchName("decompress", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(benchParams(), trace.World)
				cfg.NumObjectParticles = 200
				cfg.NumReaderParticles = 50
				cfg.NumDecompressParticles = n
				cfg.Workers = 1
				cfg.Seed = 7
				eng, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, ep := range trace.Epochs {
					if _, err := eng.ProcessEpoch(ep); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSpatialIndexOnly isolates the spatial index benefit at a
// larger object count, where the factored filter without the index must touch
// every tracked object at every epoch.
func BenchmarkAblationSpatialIndexOnly(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		indexed := indexed
		name := "index-off"
		if indexed {
			name = "index-on"
		}
		b.Run(name, func(b *testing.B) {
			benchEngineVariant(b, 400, true, indexed, false, 150, 1)
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + strconv.Itoa(v)
}

// ---------------------------------------------------------------------------
// Worker scaling of the per-object fan-out. Workers=1 runs the shards inline;
// the Workers=GOMAXPROCS run shows the speedup (a no-op on single-CPU
// machines).

// BenchmarkEngineWorkers runs the scalability workload at 1, 2 and GOMAXPROCS
// workers.
func BenchmarkEngineWorkers(b *testing.B) {
	seen := map[int]bool{}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(benchName("workers", w), func(b *testing.B) {
			benchEngineVariant(b, 300, true, true, false, 150, w)
		})
	}
}

// ---------------------------------------------------------------------------
// Epoch cost against the tracked population, objects in range held constant —
// the claim of Sections IV-C/IV-D (Fig. 5(j)) as one repeatable number.

// BenchmarkEngineTrackedScaling times the same sweep (a shelf dense enough to
// keep about 30 objects in range, full system, one worker) on an engine that
// has first seen 200, 2 000 or 8 000 objects, most of them on a shelf far
// away. ns/epoch should not depend on the sub-benchmark. The engine is built
// once per sub-benchmark and every iteration resumes from its checkpoint, so
// a profile shows the timed sweep and not the set-up.
func BenchmarkEngineTrackedScaling(b *testing.B) {
	trace, cfg := trackedScalingWorld(b)
	run := func(b *testing.B, eng *core.Engine, epochs []*stream.Epoch) {
		for _, ep := range epochs {
			if _, err := eng.ProcessEpoch(ep); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, tracked := range []int{200, 2000, 8000} {
		b.Run(benchName("tracked", tracked), func(b *testing.B) {
			eng, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			run(b, eng, trackedScalingPopulate(trace, tracked))
			run(b, eng, trace.Epochs[:trackedScalingWarm])
			enc := checkpoint.NewEncoder()
			eng.SaveState(enc)
			before := eng.Stats()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if eng, err = core.New(cfg); err != nil {
					b.Fatal(err)
				}
				if err := eng.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				run(b, eng, trace.Epochs[trackedScalingWarm:])
			}
			b.StopTimer()
			st := eng.Stats()
			if st.TrackedObjects != tracked {
				b.Fatalf("engine tracks %d objects, want %d", st.TrackedObjects, tracked)
			}
			epochs := float64(st.Epochs - before.Epochs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/epochs, "ns/epoch")
			b.ReportMetric(float64(st.ObjectsProcessed-before.ObjectsProcessed)/epochs, "in-range/epoch")
		})
	}
}

// trackedScalingWarm is how many sweep epochs run before the timed part: the
// reader settles and the far beliefs leave scope and are compressed.
const trackedScalingWarm = 150

// trackedScalingSweepObjects is the number of objects on the swept shelf.
const trackedScalingSweepObjects = 192

// trackedScalingWorld is the tracked-scaling benchmarks' sweep — a shelf
// dense enough to keep about 30 objects in range — plus a far shelf for the
// rest of the population, and their engine configuration (full system, one
// worker).
func trackedScalingWorld(b testing.TB) (*sim.Trace, core.Config) {
	b.Helper()
	simCfg := sim.DefaultWarehouseConfig()
	simCfg.NumObjects = trackedScalingSweepObjects
	simCfg.RowsDeep = 4
	simCfg.Seed = 42
	trace, err := sim.GenerateWarehouse(simCfg)
	if err != nil {
		b.Fatalf("GenerateWarehouse: %v", err)
	}
	// The far objects need a shelf of their own: fresh particles are clamped
	// to the nearest shelf, which would otherwise be the one being swept.
	trace.World.AddShelf(model.Shelf{ID: "far", Region: geom.NewBBox(geom.V(0, -5000, 0), geom.V(0.5, -1000, 0))})
	cfg := core.DefaultConfig(benchParams(), trace.World)
	cfg.NumObjectParticles = 60
	cfg.NumReaderParticles = 50
	cfg.Workers = 1
	cfg.Seed = 7
	return trace, cfg
}

// trackedScalingPopulate returns the epochs that bring the tracked population
// up to tracked before the sweep: 100 new far objects per epoch, the reader
// jumping a full sensing range each time so none is stepped twice, timed
// just before the sweep's first epoch.
func trackedScalingPopulate(trace *sim.Trace, tracked int) []*stream.Epoch {
	var populate []*stream.Epoch
	for n := trackedScalingSweepObjects; n < tracked; {
		ep := stream.NewEpoch(trace.Epochs[0].Time - 1 - (tracked-n)/100)
		ep.HasPose, ep.ReportedPose = true, geom.P(-1.5, -1000-float64(n)/10, 0, 0)
		for k := 0; k < 100 && n < tracked; k, n = k+1, n+1 {
			ep.Observed[stream.TagID("far-"+strconv.Itoa(n))] = true
		}
		populate = append(populate, ep)
	}
	return populate
}

// historyEpochsBench is the history depth BenchmarkRunnerHistoryScaling
// keeps, the serving benchmark's.
const historyEpochsBench = 64

// BenchmarkRunnerHistoryScaling is BenchmarkEngineTrackedScaling through an
// rfid.Runner keeping 64 epochs of time-travel history: the same sweep after
// 200, 2 000 or 8 000 objects were seen, each iteration resuming from a
// checkpoint. seal-ns/epoch — the traced seal stage, which records the
// history — should not depend on the sub-benchmark.
func BenchmarkRunnerHistoryScaling(b *testing.B) {
	trace, cfg := trackedScalingWorld(b)
	rc := rfid.RunnerConfig{HistoryEpochs: historyEpochsBench, TraceEpochs: 1}
	for _, tracked := range []int{200, 2000, 8000} {
		b.Run(benchName("tracked", tracked), func(b *testing.B) {
			// The runner clocks epochs from zero: shift the populate epochs
			// and the sweep to start there.
			epochs := append(trackedScalingPopulate(trace, tracked), trace.Epochs...)
			batches := runnerBatches(epochs, -epochs[0].Time)
			warm := len(epochs) - len(trace.Epochs) + trackedScalingWarm
			r, err := rfid.NewRunner(cfg, rc)
			if err != nil {
				b.Fatal(err)
			}
			feedRunner(b, r, batches[:warm])
			enc := checkpoint.NewEncoder()
			r.SaveState(enc)

			var seal time.Duration
			sealed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if r, err = rfid.NewRunner(cfg, rc); err != nil {
					b.Fatal(err)
				}
				if err := r.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				feedRunner(b, r, batches[warm:])
				seal += r.TraceRecorder().CumulativeStages()[rfid.TraceStageSeal]
				sealed += int(r.TraceRecorder().Epochs())
			}
			b.StopTimer()
			if st := r.Stats(); st.TrackedObjects != tracked {
				b.Fatalf("runner tracks %d objects, want %d", st.TrackedObjects, tracked)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sealed), "ns/epoch")
			b.ReportMetric(float64(seal.Nanoseconds())/float64(sealed), "seal-ns/epoch")
		})
	}
}

// BenchmarkSnapshotBody is the time-travel read's JSON body (GET
// .../snapshot?epoch=N, every tracked object) at 200, 2 000 and 8 000 tracked
// objects: build-ns/object is the server side (Runner.HistoryEvents plus
// serve.SnapshotAtBody), decode-ns/object the SDK side
// (api.DecodeHistorySnapshot), and allocs/op counts both.
func BenchmarkSnapshotBody(b *testing.B) {
	trace, cfg := trackedScalingWorld(b)
	rc := rfid.RunnerConfig{HistoryEpochs: historyEpochsBench}
	for _, tracked := range []int{200, 2000, 8000} {
		b.Run(benchName("tracked", tracked), func(b *testing.B) {
			epochs := append(trackedScalingPopulate(trace, tracked), trace.Epochs...)
			r, err := rfid.NewRunner(cfg, rc)
			if err != nil {
				b.Fatal(err)
			}
			feedRunner(b, r, runnerBatches(epochs, -epochs[0].Time))
			_, epoch, _ := r.HistoryBounds()

			var build, decode time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				events, _ := r.HistoryEvents(epoch)
				body, err := serve.SnapshotAtBody(epoch, events)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				var snap api.HistorySnapshot
				if err := api.DecodeHistorySnapshot(body, &snap); err != nil {
					b.Fatal(err)
				}
				build += t1.Sub(t0)
				decode += time.Since(t1)
				if len(snap.Objects) != tracked {
					b.Fatalf("body holds %d objects, want %d", len(snap.Objects), tracked)
				}
			}
			perObject := float64(b.N * tracked)
			b.ReportMetric(float64(build.Nanoseconds())/perObject, "build-ns/object")
			b.ReportMetric(float64(decode.Nanoseconds())/perObject, "decode-ns/object")
		})
	}
}

// runnerBatch is one epoch's raw records.
type runnerBatch struct {
	readings  []rfid.Reading
	locations []rfid.LocationReport
}

// runnerBatches turns epochs back into per-epoch raw batches, shifting every
// time by offset.
func runnerBatches(epochs []*stream.Epoch, offset int) []runnerBatch {
	out := make([]runnerBatch, len(epochs))
	for i, ep := range epochs {
		for _, id := range ep.ObservedList() {
			out[i].readings = append(out[i].readings, rfid.Reading{Time: ep.Time + offset, Tag: id})
		}
		if ep.HasPose {
			out[i].locations = []rfid.LocationReport{{Time: ep.Time + offset, Pos: ep.ReportedPose.Pos, Phi: ep.ReportedPose.Phi, HasPhi: true}}
		}
	}
	return out
}

// feedRunner ingests and seals one batch at a time.
func feedRunner(b testing.TB, r *rfid.Runner, batches []runnerBatch) {
	for _, bt := range batches {
		r.Ingest(bt.readings, bt.locations)
		if _, err := r.Advance(); err != nil {
			b.Fatal(err)
		}
	}
}
