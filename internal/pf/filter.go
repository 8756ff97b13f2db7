// Package pf implements the basic (unfactorized) particle filter of Section
// IV-A: every particle carries a joint hypothesis about the reader pose and
// the locations of all tracked objects. It exists primarily as the baseline
// for the scalability experiments (Fig. 5(i)/(j)); the production engine uses
// the factored filter in package factored.
package pf

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Config configures the basic particle filter.
type Config struct {
	// NumParticles is the number of joint particles J.
	NumParticles int
	// Params are the model parameters (motion, sensing, object dynamics).
	Params model.Params
	// Sensor is the observation model used for weighting. It is typically
	// sensor.ModelProfile{Model: Params.Sensor} but may be any profile.
	Sensor sensor.Profile
	// World provides shelf geometry and shelf-tag locations.
	World *model.World
	// InitConeHalfAngle and InitConeRange define the sensor-model-based
	// initialization cone for newly seen objects; the range should be an
	// overestimate of the reader's true range.
	InitConeHalfAngle float64
	InitConeRange     float64
	// ResampleThreshold is the effective-sample-size fraction below which
	// resampling is triggered (default 0.5).
	ResampleThreshold float64
	// Seed seeds the filter's random source.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.NumParticles <= 0 {
		c.NumParticles = 1000
	}
	if c.Sensor == nil {
		c.Sensor = sensor.ModelProfile{Model: c.Params.Sensor}
	}
	if c.InitConeHalfAngle <= 0 {
		// Match the factored filter: cover everywhere the sensor can
		// plausibly read from, with a margin.
		c.InitConeHalfAngle = sensor.EffectiveHalfAngle(c.Sensor, 0.05) + 10*math.Pi/180
		if c.InitConeHalfAngle < 35*math.Pi/180 {
			c.InitConeHalfAngle = 35 * math.Pi / 180
		}
		if c.InitConeHalfAngle > math.Pi/2 {
			c.InitConeHalfAngle = math.Pi / 2
		}
	}
	if c.InitConeRange <= 0 {
		c.InitConeRange = c.Sensor.MaxRange() * 1.25
		if c.InitConeRange <= 0 {
			c.InitConeRange = 4
		}
	}
	if c.ResampleThreshold <= 0 {
		c.ResampleThreshold = 0.5
	}
}

// Filter is the basic particle filter. The joint particle set is stored as a
// structure of arrays: the reader poses in one column and all object location
// hypotheses in a single flat particle-major array (particle j's hypothesis
// for object k lives at objLocs[j*stride+k], with stride == the number of
// tracked objects). Resampling gathers whole rows through reusable double
// buffers, so a steady-state epoch performs zero heap allocations.
type Filter struct {
	cfg       Config
	src       *rng.Source
	objectIDs []stream.TagID
	objIndex  map[stream.TagID]int

	readers []geom.Pose // reader pose per particle
	objLocs []geom.Vec3 // flat particle-major object locations
	stride  int         // row width; equals len(objectIDs)
	logW    []float64
	normW   []float64
	started bool
	epoch   int

	prevReported geom.Vec3
	hasReported  bool
	lastDrift    geom.Vec3
	hasDrift     bool

	// Reusable scratch: resampling indices and double buffers, estimate
	// gather column, shelf-tag selection.
	idxBuf     []int
	locsTmp    []geom.Vec3
	readersTmp []geom.Pose
	vecBuf     []geom.Vec3
	shelfBuf   []stream.TagID

	// Sensor-model fast path (see the factored filter): the parametric
	// model unwrapped from the profile, the hoisted sensing-likelihood
	// covariance terms and the per-epoch hoisted observation flags and
	// shelf locations (one map lookup per tag per epoch instead of one per
	// particle-tag pair).
	model        sensor.Model
	hasModel     bool
	sensingHoist model.HoistedLocationSensing
	objObsBuf    []bool
	shelfObsBuf  []bool
	shelfLocsBuf []geom.Vec3
}

// New returns a basic particle filter.
func New(cfg Config) *Filter {
	cfg.applyDefaults()
	f := &Filter{
		cfg:          cfg,
		src:          rng.New(cfg.Seed),
		objIndex:     make(map[stream.TagID]int),
		sensingHoist: cfg.Params.Sensing.Hoist(),
	}
	if mp, ok := cfg.Sensor.(sensor.ModelProfile); ok {
		f.model, f.hasModel = mp.Model, true
	}
	return f
}

// NumParticles returns the configured particle count.
func (f *Filter) NumParticles() int { return f.cfg.NumParticles }

// TrackedObjects returns the ids of all objects the filter has seen so far,
// in first-seen order.
func (f *Filter) TrackedObjects() []stream.TagID {
	out := make([]stream.TagID, len(f.objectIDs))
	copy(out, f.objectIDs)
	return out
}

// NumTracked returns the number of objects the filter has seen so far.
func (f *Filter) NumTracked() int { return len(f.objectIDs) }

// row returns particle j's object location row.
func (f *Filter) row(j int) []geom.Vec3 {
	return f.objLocs[j*f.stride : (j+1)*f.stride]
}

func (f *Filter) ensureStarted(ep *stream.Epoch) {
	if f.started {
		return
	}
	f.started = true
	f.readers = make([]geom.Pose, f.cfg.NumParticles)
	f.logW = make([]float64, f.cfg.NumParticles)
	f.normW = make([]float64, f.cfg.NumParticles)
	var base geom.Pose
	if ep.HasPose {
		base = ep.ReportedPose
	}
	spread := f.cfg.Params.Sensing.Noise.Add(geom.Vec3{X: 0.05, Y: 0.05, Z: 0.01})
	for j := range f.readers {
		f.readers[j] = geom.Pose{
			Pos: base.Pos.Sub(f.cfg.Params.Sensing.Bias).Add(f.src.NormalVec(geom.Vec3{}, spread)),
			Phi: base.Phi + f.src.Normal(0, f.cfg.Params.Motion.PhiNoise+0.01),
		}
		f.normW[j] = 1 / float64(f.cfg.NumParticles)
	}
}

// addObject registers a newly observed object and initializes its location
// hypothesis in every particle from the initialization cone rooted at that
// particle's reader pose. The flat array is re-laid-out for the wider stride
// (an allocation, but only when a never-before-seen tag appears).
func (f *Filter) addObject(id stream.TagID) {
	idx := len(f.objectIDs)
	f.objectIDs = append(f.objectIDs, id)
	f.objIndex[id] = idx
	np := len(f.readers)
	oldStride := f.stride
	newStride := oldStride + 1
	newFlat := make([]geom.Vec3, np*newStride)
	for j := 0; j < np; j++ {
		copy(newFlat[j*newStride:j*newStride+oldStride], f.objLocs[j*oldStride:(j+1)*oldStride])
		loc := f.src.UniformInCone(f.readers[j], f.cfg.InitConeHalfAngle, f.cfg.InitConeRange)
		if f.cfg.World != nil && len(f.cfg.World.Shelves) > 0 {
			loc = f.cfg.World.ClampToShelves(loc)
		}
		newFlat[j*newStride+oldStride] = loc
	}
	f.objLocs = newFlat
	f.stride = newStride
}

// Step advances the filter by one epoch: proposal sampling, weighting against
// the epoch's observations and (if degeneracy demands it) resampling.
func (f *Filter) Step(ep *stream.Epoch) {
	f.ensureStarted(ep)
	f.epoch = ep.Time

	// Register newly seen objects.
	for _, id := range ep.ObservedList() {
		if f.cfg.World != nil && f.cfg.World.IsShelfTag(id) {
			continue
		}
		if _, ok := f.objIndex[id]; !ok {
			f.addObject(id)
		}
	}

	shelfIDs := f.relevantShelfTags(ep)
	motion := f.effectiveMotion(ep)

	// Hoist the per-epoch invariants out of the particle loop: the epoch's
	// observation flag per tracked object and per shelf tag (each a map
	// lookup previously repeated for every particle) and the shelf-tag
	// locations. Pure hoisting — the weighting below is unchanged bit for
	// bit.
	f.objObsBuf = scratch.Grow(f.objObsBuf, len(f.objectIDs))
	for k, id := range f.objectIDs {
		f.objObsBuf[k] = ep.Contains(id)
	}
	f.shelfObsBuf = scratch.Grow(f.shelfObsBuf, len(shelfIDs))
	f.shelfLocsBuf = scratch.Grow(f.shelfLocsBuf, len(shelfIDs))
	for k, sid := range shelfIDs {
		f.shelfObsBuf[k] = ep.Contains(sid)
		f.shelfLocsBuf[k] = f.cfg.World.ShelfTags[sid]
	}

	// Sampling and weighting: one pass per particle over its contiguous
	// object-location row. On the parametric-model path the particle's
	// heading cos/sin are computed once per particle (sensor.Frame) instead
	// of once per tag, and the logistic terms go through the kernels.
	for j := range f.readers {
		f.readers[j] = motion.Sample(f.readers[j], f.src)
		if ep.HasPose {
			// Track the reported heading directly (see the factored filter).
			f.readers[j].Phi = ep.ReportedPose.Phi + f.src.Normal(0, motion.PhiNoise)
		}
		row := f.row(j)
		for k := range row {
			row[k] = f.cfg.Params.Object.Sample(row[k], f.cfg.World, f.src)
		}

		lw := 0.0
		if ep.HasPose {
			lw += f.sensingHoist.LogProb(f.readers[j], ep.ReportedPose.Pos)
		}
		if f.hasModel {
			fr := sensor.FrameFor(f.readers[j])
			for k := range shelfIDs {
				lw += f.model.LogObsFrame(fr, f.shelfLocsBuf[k], f.shelfObsBuf[k])
			}
			for k := range row {
				lw += f.model.LogObsFrame(fr, row[k], f.objObsBuf[k])
			}
		} else {
			for k := range shelfIDs {
				lw += logObs(f.cfg.Sensor, f.shelfObsBuf[k], f.readers[j], f.shelfLocsBuf[k])
			}
			for k := range row {
				lw += logObs(f.cfg.Sensor, f.objObsBuf[k], f.readers[j], row[k])
			}
		}
		f.logW[j] += lw
	}

	// Normalize and resample when the effective sample size collapses.
	copy(f.normW, f.logW)
	stats.NormalizeLogWeights(f.normW)
	ess := stats.EffectiveSampleSize(f.normW)
	if ess < f.cfg.ResampleThreshold*float64(len(f.readers)) {
		f.resample()
	}
}

// effectiveMotion returns the motion model for the current epoch, taking the
// average displacement from consecutive reported locations when available
// (same data-driven velocity used by the factored filter).
func (f *Filter) effectiveMotion(ep *stream.Epoch) model.MotionModel {
	motion := f.cfg.Params.Motion
	if ep.HasPose {
		if f.hasReported {
			drift := ep.ReportedPose.Pos.Sub(f.prevReported)
			motion = motion.WithVelocity(drift)
			f.lastDrift = drift
			f.hasDrift = true
		}
		f.prevReported = ep.ReportedPose.Pos
		f.hasReported = true
	} else if f.hasDrift {
		motion = motion.WithVelocity(f.lastDrift)
	}
	return motion
}

// relevantShelfTags returns the shelf tags worth weighting this epoch: those
// observed, plus those within sensing range of the reported reader location.
// The returned slice is filter-owned scratch, valid until the next call.
func (f *Filter) relevantShelfTags(ep *stream.Epoch) []stream.TagID {
	if f.cfg.World == nil {
		return nil
	}
	maxR := f.cfg.Sensor.MaxRange() + 1
	out := f.shelfBuf[:0]
	for _, id := range f.cfg.World.ShelfTagIDs() {
		if ep.Contains(id) {
			out = append(out, id)
			continue
		}
		if ep.HasPose && f.cfg.World.ShelfTags[id].Dist(ep.ReportedPose.Pos) <= maxR {
			out = append(out, id)
		}
	}
	f.shelfBuf = out
	return out
}

// resample gathers whole particle rows (reader pose plus the object-location
// row) through the filter's double buffers and swaps them with the live
// columns — no allocation once the buffers are warm.
func (f *Filter) resample() {
	n := len(f.readers)
	f.idxBuf = f.src.SystematicInto(f.idxBuf[:0], f.normW, n)
	idx := f.idxBuf
	sort.Ints(idx)
	f.readersTmp = scratch.Grow(f.readersTmp, n)
	f.locsTmp = scratch.Grow(f.locsTmp, len(f.objLocs))
	for i, j := range idx {
		f.readersTmp[i] = f.readers[j]
		copy(f.locsTmp[i*f.stride:(i+1)*f.stride], f.row(j))
	}
	f.readers, f.readersTmp = f.readersTmp, f.readers
	f.objLocs, f.locsTmp = f.locsTmp, f.objLocs
	for j := range f.logW {
		f.logW[j] = 0
		f.normW[j] = 1 / float64(n)
	}
}

// Estimate returns the posterior mean and per-axis variance of the object's
// location, or ok == false for unknown objects. It gathers the object's
// column into a reusable scratch buffer, so it must not be called
// concurrently with itself or Step.
func (f *Filter) Estimate(id stream.TagID) (mean geom.Vec3, variance geom.Vec3, ok bool) {
	k, found := f.objIndex[id]
	if !found {
		return geom.Vec3{}, geom.Vec3{}, false
	}
	f.vecBuf = scratch.Grow(f.vecBuf, len(f.readers))
	locs := f.vecBuf
	for j := range f.readers {
		locs[j] = f.objLocs[j*f.stride+k]
	}
	m := stats.WeightedMeanVec(locs, f.normW)
	return m, stats.WeightedVarianceDiag(locs, f.normW, m), true
}

// ReaderEstimate returns the posterior mean of the reader pose.
func (f *Filter) ReaderEstimate() geom.Pose {
	if !f.started {
		return geom.Pose{}
	}
	f.vecBuf = scratch.Grow(f.vecBuf, len(f.readers))
	locs := f.vecBuf
	phiSin, phiCos := 0.0, 0.0
	for j := range f.readers {
		locs[j] = f.readers[j].Pos
		w := f.normW[j]
		phiSin += w * math.Sin(f.readers[j].Phi)
		phiCos += w * math.Cos(f.readers[j].Phi)
	}
	return geom.Pose{
		Pos: stats.WeightedMeanVec(locs, f.normW),
		Phi: math.Atan2(phiSin, phiCos),
	}
}

func logObs(s sensor.Profile, observed bool, pose geom.Pose, loc geom.Vec3) float64 {
	pr := s.DetectProb(pose, loc)
	const floor = 1e-9
	if observed {
		if pr < floor {
			pr = floor
		}
		return math.Log(pr)
	}
	q := 1 - pr
	if q < floor {
		q = floor
	}
	return math.Log(q)
}
