package factored

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// steadyStateFilter builds a filter tracking nObjects objects with the given
// per-object particle count and runs it for warm epochs, so that every belief
// exists, every scratch buffer has reached capacity and per-object resampling
// has exercised the arena double buffers. It returns the filter plus a
// representative steady-state epoch (reader mid-shelf, all objects read).
func steadyStateFilter(nObjects, particles, warm int) (*Filter, *stream.Epoch) {
	f := New(Config{
		NumReaderParticles: 30,
		NumObjectParticles: particles,
		Params:             testParams(),
		World:              testWorld(),
		UseMotionModel:     true,
		Seed:               42,
	})
	ids := make([]stream.TagID, nObjects)
	for i := range ids {
		ids[i] = stream.TagID(fmt.Sprintf("obj-%03d", i))
	}
	mkEpoch := func(t int) *stream.Epoch {
		ep := stream.NewEpoch(t)
		ep.HasPose = true
		ep.ReportedPose = geom.P(-1.5, 5, 0, 0)
		for i, id := range ids {
			// Objects sit in a tight arc around y=5 on the shelf; all are
			// within range of the stationary reader, so every epoch weights
			// and (periodically) resamples every belief — the maximal
			// steady-state load.
			_ = i
			ep.Observed[id] = true
		}
		ep.Observed["shelf-000"] = true
		return ep
	}
	for t := 0; t < warm; t++ {
		f.Step(mkEpoch(t), nil)
	}
	return f, mkEpoch(warm)
}

// TestStepObjectsZeroAlloc is the allocation gate for the per-object hot
// path: once the filter is warm, stepping every tracked object through
// proposal, weighting, normalization and resampling must perform zero heap
// allocations. This pins the structure-of-arrays layout and the arena scratch
// reuse — a regression that reintroduces per-epoch make/map churn fails here
// before it shows up in benchmarks.
func TestStepObjectsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	f, ep := steadyStateFilter(16, 150, 80)
	ids := f.BeginEpoch(ep, nil)
	if len(ids) != 16 {
		t.Fatalf("expected 16 steady-state objects, got %d", len(ids))
	}
	// One unmeasured pass so any remaining lazily grown buffer reaches
	// capacity before the gate.
	f.StepObjectsWith(f.arena, ep, ids)
	f.EndEpoch()

	allocs := testing.AllocsPerRun(50, func() {
		f.StepObjectsWith(f.arena, ep, ids)
	})
	if allocs != 0 {
		t.Errorf("StepObjects allocated %.2f times per epoch over %d objects; want 0", allocs, len(ids))
	}
}

// TestEpochPrologueAllocBound bounds the sequential per-epoch overhead
// (reader stepping, step-list selection, reader resampling): it must stay
// a small constant independent of the number of tracked objects, i.e. the
// prologue must not rebuild per-object state. The constant covers the
// unavoidable per-epoch temporaries (the epoch's sorted observed list and
// rare reader-resampling buffers), not per-object churn. The last shape is
// the one the spatial index produces — a few objects in range of a large
// tracked population — stepped through an explicit active set.
func TestEpochPrologueAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	const maxPrologueAllocs = 16
	for _, shape := range []struct{ tracked, active int }{{4, 4}, {32, 32}, {2000, 32}} {
		f, ep := steadyStateFilter(shape.active, 60, 60)
		var active []stream.TagID
		if shape.tracked > shape.active {
			active = ep.ObservedList()
			far := stream.NewEpoch(ep.Time)
			far.HasPose, far.ReportedPose = true, ep.ReportedPose
			for i := shape.active; i < shape.tracked; i++ {
				far.Observed[stream.TagID(fmt.Sprintf("far-%04d", i))] = true
			}
			f.Step(far, nil)
			ep.Time++
			f.Step(ep, active) // warm the active-set scratch
		}
		if f.NumTracked() != shape.tracked {
			t.Fatalf("built %d tracked objects, want %d", f.NumTracked(), shape.tracked)
		}
		allocs := testing.AllocsPerRun(50, func() {
			ids := f.BeginEpoch(ep, active)
			if len(ids) != shape.active {
				t.Fatalf("stepping %d objects, want %d", len(ids), shape.active)
			}
			f.StepObjectsWith(f.arena, ep, ids)
			f.EndEpoch()
		})
		if allocs > maxPrologueAllocs {
			t.Errorf("full epoch with %d of %d tracked objects in range allocated %.2f times; want <= %d (object-independent)",
				shape.active, shape.tracked, allocs, maxPrologueAllocs)
		}
	}
}

// BenchmarkStepObject measures the per-object predict/update/resample cost
// (and, via ReportAllocs, pins its allocation count) for one object with the
// paper's default-scale particle count.
func BenchmarkStepObject(b *testing.B) {
	f, ep := steadyStateFilter(1, 150, 80)
	ids := f.BeginEpoch(ep, nil)
	f.StepObjectsWith(f.arena, ep, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.StepObjectsWith(f.arena, ep, ids)
	}
}

// BenchmarkFreshBeliefStep times a fresh belief's first step — its stream
// derived and seeded, its columns allocated, its particles drawn from the
// initialization cone — at the stream-dense workload's engine shape: 100
// reader particles and 25 per object.
func BenchmarkFreshBeliefStep(b *testing.B) {
	f := New(Config{
		NumReaderParticles: 100,
		NumObjectParticles: 25,
		Params:             testParams(),
		World:              testWorld(),
		UseMotionModel:     true,
		Seed:               42,
	})
	ep := stream.NewEpoch(0)
	ep.HasPose, ep.ReportedPose = true, geom.P(-1.5, 5, 0, 0)
	ep.Observed["shelf-000"] = true
	f.Step(ep, nil)
	ids := make([]stream.TagID, 1024)
	for i := range ids {
		ids[i] = stream.TagID(fmt.Sprintf("fresh-%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.initParticles(&ObjectBelief{ID: ids[i%len(ids)]}, f.cfg.NumObjectParticles, 0)
	}
}

// BenchmarkEpoch measures a full serial epoch (prologue, all object steps,
// epilogue) over a steady-state population of 16 objects.
func BenchmarkEpoch(b *testing.B) {
	f, ep := steadyStateFilter(16, 150, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step(ep, nil)
	}
}
