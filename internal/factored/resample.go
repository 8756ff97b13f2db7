package factored

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/scratch"
	"repro/internal/stats"
)

// Arena is the per-worker scratch memory for the per-object hot path:
// resampling indices and the double-buffer columns the gather step writes
// into. Buffers grow to the largest particle set they have seen and are then
// reused forever, so steady-state resampling performs zero allocations. An
// arena is not safe for concurrent use — the engine creates one per
// worker, the serial filter owns a single one.
type Arena struct {
	idx    []int
	locs   []geom.Vec3
	reader []int32
}

// NewArena returns an empty arena; buffers are grown on first use.
func NewArena() *Arena { return &Arena{} }

// resampleObject resamples an object's particles in proportion to their
// normalized factored weights while preserving the reader pointers, as
// required by the factored representation (Section IV-B). The resampling
// indices are drawn from the object's private stream, so the operation is
// safe and deterministic under concurrent per-shard execution. The gather
// runs through the arena's double buffers, which are swapped with the
// belief's columns — no allocation once the buffers are warm.
func (f *Filter) resampleObject(b *ObjectBelief, a *Arena) {
	n := b.NumParticles()
	if n == 0 {
		return
	}
	a.idx = f.objectSrc(b).SystematicInto(a.idx[:0], b.normW, n)
	a.locs = scratch.Grow(a.locs, n)
	a.reader = scratch.Grow(a.reader, n)
	for i, j := range a.idx {
		a.locs[i] = b.locs[j]
		a.reader[i] = b.reader[j]
	}
	b.locs, a.locs = a.locs, b.locs
	b.reader, a.reader = a.reader, b.reader
	u := 1 / float64(n)
	for i := range b.logW {
		b.logW[i] = 0
		b.normW[i] = u
	}
}

// maybeResampleReaders resamples the reader particles when their effective
// sample size collapses. Unlike standard resampling, the selection
// probability of a reader particle is boosted by the posterior mass of the
// object particles associated with it, so that reader hypotheses supported by
// good object particles survive — the behaviour Section IV-B describes for
// the factored filter's reader resampling step. It runs at the epoch barrier
// (sequential), so it may use filter-owned scratch: the weight/score columns,
// the reader double buffer and the flat slot tables that replace the
// old-index -> new-slots map (systematic resampling emits ascending indices,
// so each old index's new slots form one contiguous run).
func (f *Filter) maybeResampleReaders() {
	if !f.cfg.UseMotionModel || len(f.readers) == 0 {
		return
	}
	nr := len(f.readers)
	f.normBuf = scratch.Grow(f.normBuf, nr)
	norm := f.normBuf
	for j := range f.readers {
		norm[j] = f.readers[j].normW
	}
	ess := stats.EffectiveSampleSize(norm)
	if ess >= f.cfg.ResampleThreshold*float64(nr) {
		return
	}

	// Aggregate object support per reader particle: how much normalized
	// object-particle mass points at each reader hypothesis. Only
	// recently-updated (uncompressed) beliefs contribute; the barrier has just
	// brought their list up to date, in the first-seen order a walk over
	// every belief would visit them in.
	f.supportBuf = scratch.Grow(f.supportBuf, nr)
	support := f.supportBuf
	for j := range support {
		support[j] = 0
	}
	totalSupport := 0.0
	for _, b := range f.uncompressed {
		for i, nw := range b.normW {
			if r := int(b.reader[i]); r >= 0 && r < len(support) {
				support[r] += nw
				totalSupport += nw
			}
		}
	}

	f.scoreBuf = scratch.Grow(f.scoreBuf, nr)
	scores := f.scoreBuf
	for j := range scores {
		s := norm[j]
		if totalSupport > 0 {
			s *= 1 + support[j]
		}
		scores[j] = s
	}

	f.resIdxBuf = f.src.SystematicInto(f.resIdxBuf[:0], scores, nr)
	idx := f.resIdxBuf
	// Systematic resampling emits nondecreasing indices, which the flat
	// slot tables below rely on (each old index's new slots must form one
	// contiguous run). The degenerate branch (all scores non-positive, e.g.
	// after a NaN weight) draws unordered uniform indices instead, so sort
	// to restore the invariant — a no-op on the normal path.
	sort.Ints(idx)

	// Record, per old index, the contiguous run of new slots descending from
	// it (idx is ascending), and rebuild the readers through the double
	// buffer.
	f.slotStart = scratch.Grow(f.slotStart, nr)
	f.slotCount = scratch.Grow(f.slotCount, nr)
	f.rotBuf = scratch.Grow(f.rotBuf, nr)
	for j := 0; j < nr; j++ {
		f.slotCount[j] = 0
		f.rotBuf[j] = 0
	}
	f.readersTmp = scratch.Grow(f.readersTmp, nr)
	newReaders := f.readersTmp
	u := 1 / float64(nr)
	for newSlot, oldIdx := range idx {
		newReaders[newSlot] = readerParticle{Pose: f.readers[oldIdx].Pose, logW: 0, normW: u}
		if f.slotCount[oldIdx] == 0 {
			f.slotStart[oldIdx] = newSlot
		}
		f.slotCount[oldIdx]++
	}
	f.readers, f.readersTmp = newReaders, f.readers
	for j := range f.readerNorm {
		f.readerNorm[j] = u
	}

	// Remap object particle pointers. Particles whose reader hypothesis was
	// dropped are re-attached to a uniformly drawn surviving slot; since the
	// resampled reader weights are uniform this introduces no bias.
	for _, b := range f.uncompressed {
		for i := range b.reader {
			old := int(b.reader[i])
			if old >= 0 && old < nr && f.slotCount[old] > 0 {
				// Round-robin across the slots that descended from the same
				// old reader particle.
				k := f.rotBuf[old] % f.slotCount[old]
				f.rotBuf[old]++
				b.reader[i] = int32(f.slotStart[old] + k)
			} else {
				b.reader[i] = int32(f.src.Intn(nr))
			}
		}
	}
}
