package factored

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
)

// TestResampleObjectPreservesPointersAndMass checks the per-object resampling
// step: particles are reproduced proportionally to their weights, the reader
// pointers travel with them, and the weights reset to uniform.
func TestResampleObjectPreservesPointersAndMass(t *testing.T) {
	f := newTestFilter(100)
	// Start the filter so reader particles exist.
	ep := stream.NewEpoch(0)
	ep.HasPose = true
	ep.ReportedPose = geom.P(-1.5, 0, 0, 0)
	f.Step(ep, nil)

	b := &ObjectBelief{ID: "x"}
	// Three particles: one dominant, one moderate, one dead.
	b.setParticles([]ObjectParticle{
		{Loc: geom.V(0, 1, 0), Reader: 3, normW: 0.79},
		{Loc: geom.V(0, 2, 0), Reader: 7, normW: 0.21},
		{Loc: geom.V(0, 9, 0), Reader: 9, normW: 0.0},
	})
	f.resampleObject(b, f.arena)
	if b.NumParticles() != 3 {
		t.Fatalf("particle count changed: %d", b.NumParticles())
	}
	for i := 0; i < b.NumParticles(); i++ {
		p := b.Particle(i)
		switch p.Loc.Y {
		case 1.0:
			if p.Reader != 3 {
				t.Errorf("reader pointer lost for dominant particle: %d", p.Reader)
			}
		case 2.0:
			if p.Reader != 7 {
				t.Errorf("reader pointer lost for moderate particle: %d", p.Reader)
			}
		case 9.0:
			t.Error("zero-weight particle survived resampling")
		}
		if math.Abs(p.normW-1.0/3.0) > 1e-9 {
			t.Errorf("weights not reset to uniform: %v", p.normW)
		}
		if p.logW != 0 {
			t.Errorf("log weights not reset: %v", p.logW)
		}
	}
}

// TestReaderResamplingKeepsPointersValid drives the filter long enough to
// trigger reader resampling and verifies that every object particle still
// references a valid reader index afterwards.
func TestReaderResamplingKeepsPointersValid(t *testing.T) {
	f := newTestFilter(150)
	objLoc := geom.V(0, 5.5, 0)
	for _, ep := range scanEpochs(objLoc, "obj", 120) {
		f.Step(ep, nil)
		b := f.Belief("obj")
		if b == nil {
			continue
		}
		for i := 0; i < b.NumParticles(); i++ {
			if p := b.Particle(i); p.Reader < 0 || p.Reader >= len(f.readers) {
				t.Fatalf("dangling reader pointer %d (readers: %d)", p.Reader, len(f.readers))
			}
		}
	}
	// Reader weights remain a probability distribution.
	sum := 0.0
	for _, w := range f.readerNorm {
		if w < 0 {
			t.Fatalf("negative reader weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("reader weights sum to %v", sum)
	}
}

// TestNormalizeParticlesHandlesDegenerateWeights exercises the log-weight
// normalization paths: all-equal weights and all-minus-infinity weights.
func TestNormalizeParticlesHandlesDegenerateWeights(t *testing.T) {
	b := &ObjectBelief{ID: "x"}
	b.setParticles([]ObjectParticle{
		{Loc: geom.V(0, 0, 0), logW: -5},
		{Loc: geom.V(0, 1, 0), logW: -5},
	})
	ess := b.normalizeParticles()
	if math.Abs(ess-2) > 1e-9 {
		t.Errorf("equal weights should give ESS 2, got %v", ess)
	}
	for i := 0; i < b.NumParticles(); i++ {
		if p := b.Particle(i); math.Abs(p.normW-0.5) > 1e-9 {
			t.Errorf("normalized weight %v, want 0.5", p.normW)
		}
	}
	inf := math.Inf(-1)
	b2 := &ObjectBelief{ID: "y"}
	b2.setParticles([]ObjectParticle{
		{Loc: geom.V(0, 0, 0), logW: inf},
		{Loc: geom.V(0, 1, 0), logW: inf},
	})
	b2.normalizeParticles()
	for i := 0; i < b2.NumParticles(); i++ {
		if p := b2.Particle(i); math.IsNaN(p.normW) || p.normW <= 0 {
			t.Errorf("degenerate weights not recovered: %v", p.normW)
		}
	}
	if (&ObjectBelief{}).normalizeParticles() != 0 {
		t.Error("empty belief should have zero ESS")
	}
}

// TestBeliefMeanUsesFactoredWeights verifies that an object particle attached
// to a heavily weighted reader dominates the location estimate, which is the
// semantics of factored weights (Eq. 5).
func TestBeliefMeanUsesFactoredWeights(t *testing.T) {
	b := &ObjectBelief{ID: "x"}
	b.setParticles([]ObjectParticle{
		{Loc: geom.V(0, 0, 0), Reader: 0, normW: 0.5},
		{Loc: geom.V(0, 10, 0), Reader: 1, normW: 0.5},
	})
	readerNorm := []float64{0.9, 0.1}
	mean, _ := b.Mean(readerNorm)
	if mean.Y > 2.0 {
		t.Errorf("mean %v should be pulled toward the heavily weighted reader's particle", mean)
	}
	// With equal reader weights the mean sits in the middle.
	mid, _ := b.Mean([]float64{0.5, 0.5})
	if math.Abs(mid.Y-5) > 1e-9 {
		t.Errorf("mean with equal reader weights = %v", mid)
	}
}

// TestMovementReinitialization verifies the Section IV-A handling of objects
// detected far from where they were last observed: a moderate jump keeps half
// of the particles, a large jump rebuilds the belief near the new location.
func TestMovementReinitialization(t *testing.T) {
	f := newTestFilter(200)
	firstLoc := geom.V(0, 3, 0)
	for _, ep := range scanEpochs(firstLoc, "obj", 60) {
		f.Step(ep, nil)
	}
	before, _, _ := f.Estimate("obj")
	if before.DistXY(firstLoc) > 1.0 {
		t.Fatalf("pre-move estimate %v too far from %v", before, firstLoc)
	}

	// The object is suddenly detected from reader positions ~12 ft away
	// (far beyond twice the reinit distance): the belief must follow.
	newLoc := geom.V(0, 15, 0)
	for i, tm := 0, 200; i < 40; i, tm = i+1, tm+1 {
		ep := stream.NewEpoch(tm)
		pose := geom.Pose{Pos: geom.V(-1.5, 13.5+float64(i)*0.1, 0), Phi: 0}
		ep.HasPose = true
		ep.ReportedPose = pose
		if pose.Pos.DistXY(newLoc) < 2.5 {
			ep.Observed["obj"] = true
		}
		f.Step(ep, nil)
	}
	after, _, _ := f.Estimate("obj")
	if after.DistXY(newLoc) > 1.5 {
		t.Errorf("estimate %v did not follow the object to %v", after, newLoc)
	}
}

// fullWalkResampleReaders is maybeResampleReaders as it was before the
// uncompressed list: it visits every tracked belief and skips the compressed
// ones. It reports whether it resampled.
func (f *Filter) fullWalkResampleReaders() bool {
	if !f.cfg.UseMotionModel || len(f.readers) == 0 {
		return false
	}
	nr := len(f.readers)
	norm := make([]float64, nr)
	for j := range f.readers {
		norm[j] = f.readers[j].normW
	}
	if stats.EffectiveSampleSize(norm) >= f.cfg.ResampleThreshold*float64(nr) {
		return false
	}
	support := make([]float64, nr)
	totalSupport := 0.0
	for _, b := range f.beliefs {
		if b.IsCompressed() {
			continue
		}
		for i, nw := range b.normW {
			if r := int(b.reader[i]); r >= 0 && r < len(support) {
				support[r] += nw
				totalSupport += nw
			}
		}
	}
	scores := make([]float64, nr)
	for j := range scores {
		s := norm[j]
		if totalSupport > 0 {
			s *= 1 + support[j]
		}
		scores[j] = s
	}
	idx := f.src.SystematicInto(nil, scores, nr)
	sort.Ints(idx)
	slotStart, slotCount, rot := make([]int, nr), make([]int, nr), make([]int, nr)
	newReaders := make([]readerParticle, nr)
	u := 1 / float64(nr)
	for newSlot, oldIdx := range idx {
		newReaders[newSlot] = readerParticle{Pose: f.readers[oldIdx].Pose, logW: 0, normW: u}
		if slotCount[oldIdx] == 0 {
			slotStart[oldIdx] = newSlot
		}
		slotCount[oldIdx]++
	}
	f.readers = newReaders
	for j := range f.readerNorm {
		f.readerNorm[j] = u
	}
	for _, b := range f.beliefs {
		if b.IsCompressed() {
			continue
		}
		for i := range b.reader {
			old := int(b.reader[i])
			if old >= 0 && old < nr && slotCount[old] > 0 {
				k := rot[old] % slotCount[old]
				rot[old]++
				b.reader[i] = int32(slotStart[old] + k)
			} else {
				b.reader[i] = int32(f.src.Intn(nr))
			}
		}
	}
	return true
}

// TestReaderResampleListMatchesFullWalk drives two identical filters through
// the same epochs — random observed and active sets over a growing pool,
// compression of random beliefs after every barrier, so beliefs are created,
// compressed and decompressed throughout — one resampling its readers over
// the uncompressed list, the other over every belief. Reader particles,
// every belief's columns, the random-stream positions and the particle count
// must stay identical, and the list must hold exactly the uncompressed
// beliefs in first-seen order after every barrier.
func TestReaderResampleListMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		src := rng.New(seed)
		list, walk := newTestFilter(30), newTestFilter(30)
		tag := func(i int) stream.TagID { return stream.TagID(fmt.Sprintf("obj-%02d", i)) }
		resampled := 0
		for epoch := 0; epoch < 150; epoch++ {
			ep := stream.NewEpoch(epoch)
			ep.HasPose = true
			// A jittered reported pose keeps the reader weights degenerating,
			// so the readers resample often.
			ep.ReportedPose = geom.P(-1.5+src.Normal(0, 0.2), float64(epoch)*0.1+src.Normal(0, 0.2), 0, 0)
			pool := 6 + epoch/4
			for n := src.Intn(5); n > 0; n-- {
				ep.Observed[tag(src.Intn(pool))] = true
			}
			var active []stream.TagID
			if src.Intn(4) > 0 {
				active = []stream.TagID{}
				for n := src.Intn(8); n > 0; n-- {
					active = append(active, tag(src.Intn(pool)))
				}
			}
			list.Step(ep, active)
			ids := walk.BeginEpoch(ep, active)
			walk.StepObjects(ep, ids)
			if walk.fullWalkResampleReaders() {
				resampled++
			}
			for n := src.Intn(4); n > 0; n-- {
				id := tag(src.Intn(pool))
				if list.CompressObject(id, 0) != walk.CompressObject(id, 0) {
					t.Fatalf("seed %d epoch %d: compressing %s disagreed", seed, epoch, id)
				}
			}

			if !reflect.DeepEqual(list.readers, walk.readers) || !slices.Equal(list.readerNorm, walk.readerNorm) {
				t.Fatalf("seed %d epoch %d: reader particles diverged", seed, epoch)
			}
			if list.src.Pos() != walk.src.Pos() {
				t.Fatalf("seed %d epoch %d: filter stream at %d vs %d", seed, epoch, list.src.Pos(), walk.src.Pos())
			}
			if list.NumTracked() != walk.NumTracked() {
				t.Fatalf("seed %d epoch %d: %d vs %d beliefs", seed, epoch, list.NumTracked(), walk.NumTracked())
			}
			var want []*ObjectBelief
			particles := len(walk.readers)
			for i, b := range list.beliefs {
				w := walk.beliefs[i]
				if b.ID != w.ID || b.IsCompressed() != w.IsCompressed() ||
					!slices.Equal(b.reader, w.reader) || !slices.Equal(b.locs, w.locs) ||
					!slices.Equal(b.logW, w.logW) || !slices.Equal(b.normW, w.normW) {
					t.Fatalf("seed %d epoch %d: belief %s diverged", seed, epoch, b.ID)
				}
				if !b.IsCompressed() {
					want = append(want, b)
					particles += b.NumParticles()
				}
			}
			if list.ParticleCount() != particles {
				t.Fatalf("seed %d epoch %d: ParticleCount %d, beliefs hold %d", seed, epoch, list.ParticleCount(), particles)
			}
			// Compression just ran; the list drops what it compressed only at
			// the next barrier.
			var listed []*ObjectBelief
			for _, b := range list.uncompressed {
				if !b.IsCompressed() {
					listed = append(listed, b)
				}
			}
			if !slices.Equal(listed, want) {
				t.Fatalf("seed %d epoch %d: uncompressed list is not the uncompressed beliefs in first-seen order", seed, epoch)
			}
		}
		if resampled < 10 {
			t.Fatalf("seed %d: readers resampled in only %d epochs; the run exercises too little", seed, resampled)
		}
	}
}
