// Package factored implements the factored particle filter of Section IV-B,
// the paper's central scalability contribution: instead of joint particles
// over all objects, the filter maintains a list of reader particles and, for
// each object, a list of small object particles that reference reader
// particles. Factored weights make the representation equivalent to an
// exponentially large set of unfactored particles while using space linear in
// the number of objects.
package factored

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/stream"
)

// ObjectParticle is one hypothesis about a single object's location. It
// references the reader particle it was weighted against (Fig. 3(b) of the
// paper keeps a pointer to the reader particle; we store its index).
//
// The belief stores particles column-wise (structure of arrays); this struct
// is the row-wise view returned by ObjectBelief.Particle for callers that
// want one particle at a time.
type ObjectParticle struct {
	Loc    geom.Vec3
	Reader int
	logW   float64
	normW  float64
}

// Weight returns the particle's normalized factored weight from the most
// recent update.
func (p ObjectParticle) Weight() float64 { return p.normW }

// ObjectBelief is the filter's state for one object: either a weighted
// particle set or, after belief compression, a parametric Gaussian.
//
// Particles are stored as a structure of arrays — parallel slices for
// location, reader pointer, cumulative log weight and normalized weight — so
// that each hot-path pass (proposal sampling touches only locations,
// weighting reads locations and reader pointers and writes log weights,
// normalization touches only the two weight columns) streams through densely
// packed memory, and so that the weight columns can be handed to the stats
// and resampling routines directly, with no per-epoch gather copies.
type ObjectBelief struct {
	ID stream.TagID
	// seq is the belief's position in the filter's first-seen order; listed
	// reports whether it is on the filter's uncompressed list.
	seq    int
	listed bool

	// SoA particle columns; all four always have equal length.
	locs   []geom.Vec3
	reader []int32
	logW   []float64
	normW  []float64

	// Compressed is non-nil when the belief has been compressed into a
	// Gaussian (Section IV-D). While compressed, the particle columns are
	// released.
	Compressed *stats.Gaussian3
	// CompressionKL is the KL divergence between the particles and the
	// Gaussian that replaced them at the last compression, as measured by the
	// policy that chose the belief; zero when that policy measures none.
	CompressionKL float64

	// FirstSeen and LastSeen are the epochs of the first and most recent
	// reading of this tag.
	FirstSeen int
	LastSeen  int
	// LastSeenReaderPos is the reader position (reported, or estimated when
	// no report was available) at the most recent reading; it drives the
	// "has the object moved far away?" re-initialization logic.
	LastSeenReaderPos geom.Vec3
	// ScopeEntered is the epoch at which the object most recently entered
	// the reader's scope (first reading after an out-of-scope period); used
	// by the engine's report policy.
	ScopeEntered int

	// src is the object's private random stream, derived deterministically
	// from the filter seed and the tag id. Keeping every stochastic
	// per-object operation (particle initialization, proposal sampling,
	// resampling, decompression) on this stream makes the belief's evolution
	// independent of the processing order of other objects — the property
	// that lets chunks run concurrently yet produce output byte-identical to
	// a serial run.
	//
	// Compression releases src (its ~5KB generator state would otherwise
	// dominate the compressed belief) and records a continuation seed in
	// srcSeed, from which a fresh independent stream is derived on
	// decompression — still a pure function of (filter seed, tag id), so
	// determinism and schedule-independence are unaffected.
	src       *rng.Source
	srcSeed   int64
	srcSeeded bool
}

// IsCompressed reports whether the belief is currently in compressed form.
func (b *ObjectBelief) IsCompressed() bool { return b.Compressed != nil }

// NumParticles returns the number of particles backing the belief (zero while
// compressed).
func (b *ObjectBelief) NumParticles() int { return len(b.locs) }

// Particle returns the row-wise view of particle i.
func (b *ObjectBelief) Particle(i int) ObjectParticle {
	return ObjectParticle{
		Loc:    b.locs[i],
		Reader: int(b.reader[i]),
		logW:   b.logW[i],
		normW:  b.normW[i],
	}
}

// setLen resizes all particle columns to n, preserving the common prefix and
// reusing capacity. Elements beyond the previous length are stale; callers
// must overwrite them.
func (b *ObjectBelief) setLen(n int) {
	b.locs = scratch.Grow(b.locs, n)
	b.reader = scratch.Grow(b.reader, n)
	b.logW = scratch.Grow(b.logW, n)
	b.normW = scratch.Grow(b.normW, n)
}

// release drops the particle columns entirely (used by compression, where the
// particles are replaced by a Gaussian and their memory must be returned).
func (b *ObjectBelief) release() {
	b.locs, b.reader, b.logW, b.normW = nil, nil, nil, nil
}

// setParticles installs a row-wise particle set, used by tests to build
// beliefs in a fixed state.
func (b *ObjectBelief) setParticles(ps []ObjectParticle) {
	b.setLen(len(ps))
	for i, p := range ps {
		b.locs[i] = p.Loc
		b.reader[i] = int32(p.Reader)
		b.logW[i] = p.logW
		b.normW[i] = p.normW
	}
}

// weightsInto fills buf (grown as needed) with each particle's combined
// factored weight: its own normalized weight times the weight of its
// associated reader particle — exactly the semantics of factored weights
// (Eq. 5). The locations never need extracting: b.locs is already the
// matching column.
func (b *ObjectBelief) weightsInto(readerNorm []float64, buf []float64) []float64 {
	buf = scratch.Grow(buf, len(b.normW))
	for i, nw := range b.normW {
		rw := 1.0
		if r := int(b.reader[i]); r >= 0 && r < len(readerNorm) {
			rw = readerNorm[r]
		}
		buf[i] = nw * rw
	}
	return buf
}

// Mean returns the posterior mean and per-axis variance of the object's
// location under the current belief.
func (b *ObjectBelief) Mean(readerNorm []float64) (geom.Vec3, geom.Vec3) {
	mean, variance, _ := b.meanWith(readerNorm, nil)
	return mean, variance
}

// meanWith is Mean with a caller-provided weight scratch buffer (which is
// grown as needed and returned for reuse).
func (b *ObjectBelief) meanWith(readerNorm, buf []float64) (geom.Vec3, geom.Vec3, []float64) {
	if b.Compressed != nil {
		v := b.Compressed.Variance()
		return b.Compressed.Mean, v, buf
	}
	buf = b.weightsInto(readerNorm, buf)
	mean := stats.WeightedMeanVec(b.locs, buf)
	return mean, stats.WeightedVarianceDiag(b.locs, buf, mean), buf
}

// HasParticleIn reports whether any particle (or the compressed mean) lies
// inside the bounding box. The spatial index uses this to associate sensing
// regions with objects; it scans the location column in place.
func (b *ObjectBelief) HasParticleIn(box geom.BBox) bool {
	if b.Compressed != nil {
		return box.Contains(b.Compressed.Mean)
	}
	for _, loc := range b.locs {
		if box.Contains(loc) {
			return true
		}
	}
	return false
}

// normalizeParticles converts the particles' cumulative log weights into
// normalized weights and returns the effective sample size. It works entirely
// in the belief's own weight columns — no temporaries. Only the exps run in
// SIMD lanes (bit-identical); the max, sum, ESS and divide stay in order.
func (b *ObjectBelief) normalizeParticles() float64 {
	n := len(b.logW)
	if n == 0 {
		return 0
	}
	maxLog := math.Inf(-1)
	for _, lw := range b.logW {
		if lw > maxLog {
			maxLog = lw
		}
	}
	if math.IsInf(maxLog, -1) {
		u := 1 / float64(n)
		for i := range b.normW {
			b.normW[i] = u
		}
		return float64(n)
	}
	// normW temporarily holds the shifted linear weights; the ESS is taken
	// from exactly those values (as before the SoA rewrite), then the column
	// is normalized in place.
	sensor.ExpShifted(b.normW, b.logW, maxLog)
	sum := 0.0
	for _, e := range b.normW {
		sum += e
	}
	ess := stats.EffectiveSampleSize(b.normW)
	for i := range b.normW {
		b.normW[i] /= sum
	}
	return ess
}
