package factored

import (
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/stream"
)

// objectSrc returns the object's private random stream, deriving it lazily
// from the filter seed and the tag id (or from the continuation seed stored
// by compression). Every stochastic per-object operation draws from this
// stream (never from the filter-level stream), so an object's belief evolves
// identically no matter how many sibling objects exist, in which order they
// are processed, or on which worker they run.
func (f *Filter) objectSrc(b *ObjectBelief) *rng.Source {
	if b.src == nil {
		if !b.srcSeeded {
			b.srcSeed = rng.SeedFor(f.cfg.Seed, "object:"+string(b.ID))
			b.srcSeeded = true
		}
		b.src = rng.New(b.srcSeed)
	}
	return b.src
}

// stepObject performs the per-object part of the factored update: movement
// handling, decompression, proposal sampling, factored weighting and
// per-object resampling. The belief must already exist (beliefs for newly
// observed objects are registered in BeginEpoch); a fresh one only gets its
// particles drawn. It touches only the belief itself, the arena's scratch
// buffers and read-only filter state, so distinct objects may be stepped
// concurrently as long as each goroutine has its own arena. In steady state
// (no fresh belief, no decompression, no far-move rebuild) the whole update
// performs zero heap allocations.
func (f *Filter) stepObject(ep *stream.Epoch, id stream.TagID, readerPos geom.Vec3, a *Arena) {
	b, exists := f.objects[id]
	if !exists {
		return
	}
	if b.NumParticles() == 0 && !b.IsCompressed() {
		// Registered by this epoch's BeginEpoch. Weighting a belief against
		// the very reading that created it adds nothing, so drawing its
		// particles is all there is to do.
		f.initParticles(b, f.cfg.NumObjectParticles, 0)
		return
	}
	observed := ep.Contains(id)
	src := f.objectSrc(b)

	if observed && b.IsCompressed() {
		f.decompress(b)
	}
	if b.IsCompressed() {
		// Compressed and not observed: the belief stays parametric and
		// untouched (the object is out of scope).
		return
	}

	if observed {
		f.handleMovement(b, ep.Time, readerPos)
	}

	// Proposal: object locations evolve under the object location model.
	// Touches only the location column.
	if f.cfg.Params.Object.MoveProb > 0 {
		for i := range b.locs {
			b.locs[i] = f.cfg.Params.Object.Sample(b.locs[i], f.cfg.World, src)
		}
	}

	// Factored weighting: each object particle is weighted against its
	// associated reader particle only (Eq. 5). Reads the location and reader
	// columns, accumulates into the log-weight column. The parametric-model
	// batch kernel runs over the SoA columns with the per-epoch reader
	// frames; it bails out (and the scalar loop takes over) if any particle
	// references a reader index outside the frame table — the transient
	// state readerPoseFor's fallback exists for.
	kernelDone := false
	if f.hasModel && len(f.frames) == len(f.readers) {
		kernelDone = f.model.AccumLogObs(b.logW[:len(b.locs)], observed, f.frames, b.reader, b.locs, false)
	}
	if !kernelDone {
		for i := range b.locs {
			pose := f.readerPoseFor(int(b.reader[i]))
			b.logW[i] += sensor.LogObs(f.cfg.Sensor, observed, pose, b.locs[i])
		}
	}

	ess := b.normalizeParticles()
	if ess < f.cfg.ResampleThreshold*float64(b.NumParticles()) {
		f.resampleObject(b, a)
	}

	if observed {
		if ep.Time-b.LastSeen > f.scopeGapEpochs() {
			b.ScopeEntered = ep.Time
		}
		b.LastSeen = ep.Time
		b.LastSeenReaderPos = readerPos
	}
}

// scopeGapEpochs is the number of unobserved epochs after which a new reading
// counts as re-entering scope (a new scan visit).
func (f *Filter) scopeGapEpochs() int { return 30 }

// readerPoseFor returns the pose of the reader particle with the given index,
// falling back to the estimate for out-of-range indices (which can appear
// transiently after reader resampling). The fallback reads the pose cached by
// BeginEpoch rather than calling ReaderEstimate: this runs inside the
// concurrent per-object fan-out, where the estimate's scratch buffers must
// not be shared.
func (f *Filter) readerPoseFor(idx int) geom.Pose {
	if idx >= 0 && idx < len(f.readers) {
		return f.readers[idx].Pose
	}
	return f.estPose
}

// createBelief registers a belief for an object seen for the first time.
// Its particles are drawn from the sensor-model-based initialization cone
// when StepObjects reaches it (stepObject), which may run in the concurrent
// fan-out: the draw reads only the object's private stream and the reader
// particles, which nothing writes before EndEpoch.
func (f *Filter) createBelief(id stream.TagID, epoch int, readerPos geom.Vec3) {
	b := &ObjectBelief{
		ID:                id,
		seq:               len(f.beliefs),
		listed:            true,
		FirstSeen:         epoch,
		LastSeen:          epoch,
		ScopeEntered:      epoch,
		LastSeenReaderPos: readerPos,
	}
	f.objects[id] = b
	f.beliefs = append(f.beliefs, b)
	f.uncompressed = append(f.uncompressed, b)
}

// initParticles (re)draws n particles for the belief from the initialization
// cone, overwriting particles [from:n); callers pass from == 0 to rebuild the
// whole belief and from == n/2 to keep the first half. The columns are
// resized in place (prefix preserved, capacity reused), so rebuilding an
// existing belief does not allocate once its columns have reached capacity.
func (f *Filter) initParticles(b *ObjectBelief, n, from int) {
	src := f.objectSrc(b)
	if b.NumParticles() != n {
		b.setLen(n)
	}
	u := 1 / float64(n)
	for i := from; i < n; i++ {
		rIdx := f.sampleReaderIndex(src)
		loc := src.UniformInCone(f.readers[rIdx].Pose, f.cfg.InitConeHalfAngle, f.cfg.InitConeRange)
		if f.cfg.World != nil && len(f.cfg.World.Shelves) > 0 {
			loc = f.cfg.World.ClampToShelves(loc)
		}
		b.locs[i] = loc
		b.reader[i] = int32(rIdx)
		if from == 0 {
			b.logW[i] = 0
			b.normW[i] = u
		}
		// Partial re-initialization (from > 0) keeps the replaced particles'
		// weights so that weighting and resampling arbitrate between the old
		// and the new hypotheses.
	}
}

// handleMovement implements the subtlety discussed in Section IV-A: when an
// object is detected from a reader position far away from where it was last
// observed, either the whole belief is rebuilt (very far: the object clearly
// moved) or half the particles are re-initialized at the new location
// (moderately far: it may have moved, or the reading may be a reflection).
func (f *Filter) handleMovement(b *ObjectBelief, epoch int, readerPos geom.Vec3) {
	d := readerPos.Dist(b.LastSeenReaderPos)
	reinit := f.cfg.MoveReinitDistance
	switch {
	case d > 2*reinit:
		// Far: discard the old particles entirely and re-create them at the
		// new location (in place — the columns are overwritten, not
		// reallocated).
		f.initParticles(b, f.cfg.NumObjectParticles, 0)
	case d > reinit:
		// Moderate: keep half of the old particles and move the other half
		// to the new location; weighting and resampling will arbitrate.
		f.initParticles(b, b.NumParticles(), b.NumParticles()/2)
	}
}

// sampleReaderIndex draws a reader particle index from the given stream
// according to the current normalized reader weights.
func (f *Filter) sampleReaderIndex(src *rng.Source) int {
	if len(f.readerNorm) == 0 {
		return 0
	}
	return src.Categorical(f.readerNorm)
}

// CompressObject compresses an object's belief into its moment-matched
// Gaussian (Section IV-D) and records kl — the divergence the caller's policy
// measured through CompressionCandidateKL, zero when it measures none — as the
// belief's CompressionKL. It returns false when the object is unknown or
// already compressed.
func (f *Filter) CompressObject(id stream.TagID, kl float64) bool {
	b, ok := f.objects[id]
	if !ok || b.IsCompressed() || b.NumParticles() == 0 {
		return false
	}
	f.wBuf = b.weightsInto(f.readerNorm, f.wBuf)
	g := stats.FitGaussian3(b.locs, f.wBuf)
	b.Compressed = &g
	b.CompressionKL = kl
	b.release()
	// Release the private random stream — its generator state would dwarf
	// the compressed Gaussian — keeping only a continuation seed so the
	// post-decompression stream is fresh (no replay of earlier draws) yet
	// still deterministic.
	if b.src != nil {
		b.srcSeed = b.src.Int63()
		b.srcSeeded = true
		b.src = nil
	}
	return true
}

// CompressionCandidateKL returns the KL divergence the object's belief would
// incur if compressed now, without compressing it. It returns false for
// unknown or already-compressed objects.
func (f *Filter) CompressionCandidateKL(id stream.TagID) (float64, bool) {
	b, ok := f.objects[id]
	if !ok || b.IsCompressed() || b.NumParticles() == 0 {
		return 0, false
	}
	f.wBuf = b.weightsInto(f.readerNorm, f.wBuf)
	g := stats.FitGaussian3(b.locs, f.wBuf)
	return stats.KLToGaussian(b.locs, f.wBuf, g), true
}

// decompress re-creates a small particle set by sampling from the compressed
// Gaussian. The paper observes that far fewer particles are needed after
// decompression because the compressed belief is already well-behaved.
func (f *Filter) decompress(b *ObjectBelief) {
	src := f.objectSrc(b)
	n := f.cfg.NumDecompressParticles
	g := *b.Compressed
	b.setLen(n)
	u := 1 / float64(n)
	for i := 0; i < n; i++ {
		loc := g.Sample(src)
		if f.cfg.World != nil && len(f.cfg.World.Shelves) > 0 {
			loc = f.cfg.World.ClampToShelves(loc)
		}
		b.locs[i] = loc
		b.reader[i] = int32(f.sampleReaderIndex(src))
		b.logW[i] = 0
		b.normW[i] = u
	}
	b.Compressed = nil
}
