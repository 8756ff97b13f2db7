package factored

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Config configures the factored particle filter.
type Config struct {
	// NumReaderParticles is the number of reader particles (default 100).
	NumReaderParticles int
	// NumObjectParticles is the number of particles per object when a fresh
	// belief is created (default 1000, the value used in the paper's
	// experiments).
	NumObjectParticles int
	// NumDecompressParticles is the number of particles drawn when a
	// compressed belief is decompressed (default 10; the paper observes that
	// far fewer particles suffice after compression).
	NumDecompressParticles int
	// Params are the model parameters.
	Params model.Params
	// Sensor is the observation model used for weighting; defaults to the
	// parametric model in Params.
	Sensor sensor.Profile
	// World provides shelf geometry and shelf-tag locations.
	World *model.World
	// InitConeHalfAngle / InitConeRange define the sensor-model-based
	// initialization cone (an overestimate of the reader's range).
	InitConeHalfAngle float64
	InitConeRange     float64
	// ResampleThreshold is the ESS fraction below which resampling triggers
	// (default 0.5).
	ResampleThreshold float64
	// MoveReinitDistance is the distance between the current reading's reader
	// position and the position where the object was last observed beyond
	// which half of the object's particles are re-initialized at the new
	// location; at twice this distance the belief is rebuilt entirely
	// (default: the sensor's max range).
	MoveReinitDistance float64
	// UseMotionModel selects whether the reader pose is inferred (true, the
	// paper's system) or taken verbatim from the reported location (false,
	// the "motion model Off" baseline of Fig. 5(g)).
	UseMotionModel bool
	// Seed seeds the filter's random source.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.NumReaderParticles <= 0 {
		c.NumReaderParticles = 100
	}
	if c.NumObjectParticles <= 0 {
		c.NumObjectParticles = 1000
	}
	if c.NumDecompressParticles <= 0 {
		c.NumDecompressParticles = 10
	}
	if c.Sensor == nil {
		c.Sensor = sensor.ModelProfile{Model: c.Params.Sensor}
	}
	if c.InitConeHalfAngle <= 0 {
		// Size the initialization cone to cover everywhere the sensor can
		// plausibly read from (plus a margin), so that wide sensing regions
		// get a correspondingly wide cone. The cone is deliberately an
		// overestimate of the true range, as the paper prescribes.
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
	if c.MoveReinitDistance <= 0 {
		c.MoveReinitDistance = c.Sensor.MaxRange()
		if c.MoveReinitDistance <= 0 {
			c.MoveReinitDistance = 3
		}
	}
}

// readerParticle is one hypothesis about the reader pose.
type readerParticle struct {
	Pose  geom.Pose
	logW  float64
	normW float64
}

// Filter is the factored particle filter.
type Filter struct {
	cfg Config
	src *rng.Source

	readers    []readerParticle
	readerNorm []float64

	// beliefs holds every belief in first-seen order (beliefs[i].seq == i);
	// objects finds one by tag. Loops over all beliefs walk the slice, and
	// an epoch's step list is built from sequence numbers, so nothing per
	// epoch probes the map once per tracked object.
	objects map[stream.TagID]*ObjectBelief
	beliefs []*ObjectBelief

	// uncompressed lists, in first-seen order, the beliefs in particle form
	// as of the last epoch barrier plus those created since. Decompression
	// happens inside the concurrent fan-out and compression after the
	// barrier, so the list is brought up to date at the barrier (EndEpoch):
	// between barriers it may still hold beliefs the compression policy has
	// just compressed. Reader resampling, ParticleCount and AppendMaybeMoved
	// walk it instead of every tracked belief. stepped is the epoch's step
	// list as beliefs — the only ones the fan-out can have decompressed;
	// mergeBuf and freshBuf are the barrier's scratch.
	uncompressed []*ObjectBelief
	stepped      []*ObjectBelief
	mergeBuf     []*ObjectBelief
	freshBuf     []*ObjectBelief

	started      bool
	epoch        int
	prevReported geom.Vec3
	hasReported  bool
	lastDrift    geom.Vec3
	hasDrift     bool

	// stepReaderPos is the reader position used for per-object bookkeeping
	// during the current epoch, fixed in BeginEpoch so that concurrent
	// StepObjects calls all see the same value.
	stepReaderPos geom.Vec3

	// estPose is the posterior mean reader pose, refreshed at the end of the
	// epoch prologue. The concurrent per-object fan-out reads it (the
	// fallback pose for out-of-range reader indices) instead of calling
	// ReaderEstimate, whose scratch buffers are not safe to share across
	// goroutines.
	estPose geom.Pose

	// Sensor-model fast path: when the observation profile is the parametric
	// Model (the default), the weighting loops run through the batch kernels
	// of package sensor with per-epoch hoisted invariants — the reader
	// frames (heading cos/sin per reader particle) and the shelf-tag
	// locations/observation flags. sensingHoist carries the precomputed
	// covariance terms of the reader location-sensing likelihood.
	model        sensor.Model
	hasModel     bool
	sensingHoist model.HoistedLocationSensing
	frames       []sensor.Frame
	readerLw     []float64
	shelfLocsBuf []geom.Vec3
	shelfObsBuf  []bool

	// arena is the scratch memory used by the serial entry points (Step,
	// StepObjects without an explicit arena). Concurrent callers use
	// StepObjectsWith with their own per-worker arenas instead.
	arena *Arena

	// Reusable epoch-prologue and estimate scratch. These buffers are only
	// touched by the sequential phases (BeginEpoch, stepReaders, EndEpoch,
	// Estimate/compression at the barrier), never by the concurrent
	// per-object fan-out, so a single copy per filter suffices.
	seqBuf    []int
	idsBuf    []stream.TagID
	newIDsBuf []stream.TagID
	shelfBuf  []stream.TagID
	logBuf    []float64
	wBuf      []float64
	estLocs   []geom.Vec3
	estW      []float64

	// Reader-resampling scratch (EndEpoch barrier only): weight/score
	// columns, the resampling index buffer, the reader double buffer and the
	// flat old-slot -> new-slot-run tables.
	normBuf    []float64
	supportBuf []float64
	scoreBuf   []float64
	resIdxBuf  []int
	readersTmp []readerParticle
	slotStart  []int
	slotCount  []int
	rotBuf     []int
}

// New returns a factored particle filter. UseMotionModel defaults to true
// unless explicitly disabled via the config.
func New(cfg Config) *Filter {
	cfg.applyDefaults()
	f := &Filter{
		cfg:          cfg,
		src:          rng.New(cfg.Seed),
		objects:      make(map[stream.TagID]*ObjectBelief),
		arena:        NewArena(),
		sensingHoist: cfg.Params.Sensing.Hoist(),
	}
	if mp, ok := cfg.Sensor.(sensor.ModelProfile); ok {
		f.model, f.hasModel = mp.Model, true
	}
	return f
}

// Config returns the effective configuration (with defaults applied).
func (f *Filter) Config() Config { return f.cfg }

// TrackedObjects returns all objects the filter has seen, in first-seen order.
func (f *Filter) TrackedObjects() []stream.TagID {
	out := make([]stream.TagID, len(f.beliefs))
	for i, b := range f.beliefs {
		out[i] = b.ID
	}
	return out
}

// Belief returns the belief for an object, or nil if the object is unknown.
func (f *Filter) Belief(id stream.TagID) *ObjectBelief { return f.objects[id] }

// NumTracked returns the number of objects the filter has seen.
func (f *Filter) NumTracked() int { return len(f.beliefs) }

// ParticleCount returns the number of particles currently alive in the
// filter: the reader particles plus every uncompressed object belief's
// particle set. Compressed beliefs contribute nothing (their particles were
// replaced by a Gaussian), so the count also tracks compression activity.
func (f *Filter) ParticleCount() int {
	n := len(f.readers)
	for _, b := range f.uncompressed {
		n += b.NumParticles()
	}
	return n
}

// AppendMaybeMoved appends, in first-seen order, the ids of the objects whose
// estimate can have changed during the last epoch: every belief in particle
// form at its barrier — stepped or not, since its mean is weighted by the
// reader particles — including the beliefs created in the epoch and any the
// compression policy compressed after the barrier. A belief that was
// compressed before the epoch and not decompressed in it has a frozen
// estimate and is not listed.
func (f *Filter) AppendMaybeMoved(dst []stream.TagID) []stream.TagID {
	for _, b := range f.uncompressed {
		dst = append(dst, b.ID)
	}
	return dst
}

func (f *Filter) ensureStarted(ep *stream.Epoch) {
	if f.started {
		return
	}
	f.started = true
	f.readers = make([]readerParticle, f.cfg.NumReaderParticles)
	f.readerNorm = make([]float64, f.cfg.NumReaderParticles)
	var base geom.Pose
	if ep.HasPose {
		base = ep.ReportedPose
	}
	spread := f.cfg.Params.Sensing.Noise.Add(geom.Vec3{X: 0.05, Y: 0.05, Z: 0.01})
	for j := range f.readers {
		f.readers[j].Pose = geom.Pose{
			Pos: base.Pos.Sub(f.cfg.Params.Sensing.Bias).Add(f.src.NormalVec(geom.Vec3{}, spread)),
			Phi: base.Phi + f.src.Normal(0, f.cfg.Params.Motion.PhiNoise+0.01),
		}
		f.readerNorm[j] = 1 / float64(len(f.readers))
	}
}

// currentReaderPos returns the best available reader position for bookkeeping
// (reported when present, otherwise the estimate cached by the prologue).
func (f *Filter) currentReaderPos(ep *stream.Epoch) geom.Vec3 {
	if ep.HasPose {
		return ep.ReportedPose.Pos
	}
	return f.estPose.Pos
}

// Step advances the filter by one epoch. The active slice lists the object
// tags to process this epoch (the union of Case 1 and Case 2 from Section
// IV-C); passing nil processes every tracked object plus all newly observed
// ones (the behaviour without a spatial index).
//
// Step is the serial composition of the three epoch phases BeginEpoch /
// StepObjects / EndEpoch; the engine calls the phases directly and
// fans StepObjects out across workers. Because every per-object stochastic
// operation draws from the object's private random stream, the serial and
// sharded compositions produce byte-identical results.
func (f *Filter) Step(ep *stream.Epoch, active []stream.TagID) {
	ids := f.BeginEpoch(ep, active)
	f.StepObjects(ep, ids)
	f.EndEpoch()
}

// BeginEpoch runs the sequential epoch prologue: it advances the shared
// reader particles, registers fresh beliefs for newly observed objects (in
// sorted tag order, for determinism) and returns, in first-seen order, the
// ids StepObjects must process this epoch: the existing objects to step,
// then the fresh ones, whose particles StepObjects draws instead of stepping
// them. The returned ids may be partitioned arbitrarily and passed to
// concurrent StepObjects calls, as long as no id is processed twice and
// EndEpoch runs after all of them (the epoch barrier); a fresh belief has no
// particles until its StepObjects call. The returned slice is backed by
// filter-owned scratch and is valid until the next BeginEpoch call.
func (f *Filter) BeginEpoch(ep *stream.Epoch, active []stream.TagID) []stream.TagID {
	f.ensureStarted(ep)
	f.epoch = ep.Time

	f.stepReaders(ep)
	// Cache the posterior pose for the epoch: the concurrent fan-out reads
	// it (readerPoseFor's fallback) without touching the estimate scratch.
	f.estPose = f.ReaderEstimate()
	f.stepReaderPos = f.currentReaderPos(ep)

	// Observed objects are always processed (Case 1); an unknown observed
	// object gets a fresh belief. Unknown ids in active carry no information
	// and are dropped. newIDs inherits ObservedList's sorted order.
	seqs := f.seqBuf[:0]
	newIDs := f.newIDsBuf[:0]
	for _, id := range ep.ObservedList() {
		if b := f.objects[id]; b != nil {
			seqs = append(seqs, b.seq)
		} else if ep.Contains(id) && !(f.cfg.World != nil && f.cfg.World.IsShelfTag(id)) {
			newIDs = append(newIDs, id)
		}
	}
	f.newIDsBuf = newIDs

	// Existing objects, in first-seen order: all of them without an active
	// set, else active ∪ observed by ascending sequence number — work
	// proportional to the objects in range, not to the tracked population.
	ids := f.idsBuf[:0]
	stepped := f.stepped[:0]
	if active == nil {
		for _, b := range f.beliefs {
			ids = append(ids, b.ID)
			stepped = append(stepped, b)
		}
	} else {
		for _, id := range active {
			if b := f.objects[id]; b != nil {
				seqs = append(seqs, b.seq)
			}
		}
		slices.Sort(seqs)
		for i, s := range seqs {
			if i == 0 || s != seqs[i-1] {
				ids = append(ids, f.beliefs[s].ID)
				stepped = append(stepped, f.beliefs[s])
			}
		}
	}
	// Fresh beliefs come last in first-seen order. They stay off stepped:
	// they are on the uncompressed list from the start.
	for _, id := range newIDs {
		f.createBelief(id, ep.Time, f.stepReaderPos)
		ids = append(ids, id)
	}
	f.seqBuf = seqs
	f.idsBuf = ids
	f.stepped = stepped
	return ids
}

// StepObjects steps the listed objects for the epoch begun by BeginEpoch
// using the filter's own scratch arena. Use StepObjectsWith for concurrent
// calls.
func (f *Filter) StepObjects(ep *stream.Epoch, ids []stream.TagID) {
	f.StepObjectsWith(f.arena, ep, ids)
}

// StepObjectsWith steps the listed objects for the epoch begun by BeginEpoch
// (drawing the particles of the fresh ones), taking all scratch memory from
// the caller's arena. Distinct calls may run concurrently on disjoint id sets
// as long as each goroutine passes its own arena: each call mutates only the
// listed objects' beliefs and its arena, and reads shared filter state
// (reader particles, configuration, world) that no concurrent phase writes.
func (f *Filter) StepObjectsWith(a *Arena, ep *stream.Epoch, ids []stream.TagID) {
	if a == nil {
		a = f.arena
	}
	for _, id := range ids {
		f.stepObject(ep, id, f.stepReaderPos, a)
	}
}

// EndEpoch runs the sequential epoch epilogue at the barrier after all
// StepObjects calls have returned: it brings the uncompressed list up to
// date, then resamples the reader particles, which reads every uncompressed
// object's particles and may remap their reader pointers.
func (f *Filter) EndEpoch() {
	f.syncUncompressed()
	f.maybeResampleReaders()
}

// syncUncompressed drops the beliefs compressed since the last barrier from
// the uncompressed list and merges in, by sequence number, the ones the
// fan-out decompressed — the stepped beliefs in particle form that are not
// listed yet. The step list is in first-seen order, so this is one merge of
// two sorted lists, proportional to the uncompressed and stepped beliefs.
func (f *Filter) syncUncompressed() {
	fresh := f.freshBuf[:0]
	for _, b := range f.stepped {
		if !b.listed && !b.IsCompressed() {
			fresh = append(fresh, b)
		}
	}
	f.freshBuf = fresh
	out := f.mergeBuf[:0]
	i := 0
	for _, b := range f.uncompressed {
		if b.IsCompressed() {
			b.listed = false
			continue
		}
		for ; i < len(fresh) && fresh[i].seq < b.seq; i++ {
			fresh[i].listed = true
			out = append(out, fresh[i])
		}
		out = append(out, b)
	}
	for ; i < len(fresh); i++ {
		fresh[i].listed = true
		out = append(out, fresh[i])
	}
	f.uncompressed, f.mergeBuf = out, f.uncompressed
}

// stepReaders propagates the reader particles and applies the reader-side
// evidence: the reported location and the observations of shelf tags with
// known positions. The loop is split into a propagation pass (which consumes
// the filter-level random stream in the same per-reader order as before) and
// a weighting pass over per-epoch hoisted invariants: the reader frames
// (heading cos/sin), the shelf-tag locations and observation flags, and the
// precomputed covariance terms of the sensing likelihood. On the default
// path every expression matches the pre-split code bit for bit.
func (f *Filter) stepReaders(ep *stream.Epoch) {
	if !f.cfg.UseMotionModel {
		// Baseline: trust the reported location outright.
		pose := ep.ReportedPose
		if !ep.HasPose {
			pose = f.ReaderEstimate()
		}
		for j := range f.readers {
			f.readers[j].Pose = pose
			f.readers[j].logW = 0
			f.readerNorm[j] = 1 / float64(len(f.readers))
		}
		f.updateFrames()
		return
	}

	shelfIDs := f.relevantShelfTags(ep)
	// Hoist the per-tag map lookups out of the per-reader loop: one location
	// fetch and one observation test per shelf tag per epoch.
	f.shelfLocsBuf = scratch.Grow(f.shelfLocsBuf, len(shelfIDs))
	f.shelfObsBuf = scratch.Grow(f.shelfObsBuf, len(shelfIDs))
	for k, sid := range shelfIDs {
		f.shelfLocsBuf[k] = f.cfg.World.ShelfTags[sid]
		f.shelfObsBuf[k] = ep.Contains(sid)
	}

	motion := f.effectiveMotion(ep)
	for j := range f.readers {
		r := &f.readers[j]
		r.Pose = motion.Sample(r.Pose, f.src)
		if ep.HasPose {
			// The reported pose carries the reader heading (from the
			// positioning system or the robot's own odometry); unlike the
			// position it is not corrected by shelf-tag evidence, so the
			// particles track it directly with a little jitter.
			r.Pose.Phi = ep.ReportedPose.Phi + f.src.Normal(0, motion.PhiNoise)
		}
	}
	f.updateFrames()

	if f.hasModel {
		// Column-wise weighting through the batch kernels: the sensing term
		// first, then each shelf tag in order — the same per-accumulator
		// addition order as the scalar path.
		f.readerLw = scratch.Grow(f.readerLw, len(f.readers))
		lw := f.readerLw
		for j := range lw {
			lw[j] = 0
		}
		if ep.HasPose {
			for j := range f.readers {
				lw[j] += f.sensingHoist.LogProb(f.readers[j].Pose, ep.ReportedPose.Pos)
			}
		}
		for k := range shelfIDs {
			f.model.AccumLogObsFixed(lw, f.shelfObsBuf[k], f.frames, f.shelfLocsBuf[k], false)
		}
		for j := range f.readers {
			f.readers[j].logW += lw[j]
		}
	} else {
		for j := range f.readers {
			r := &f.readers[j]
			lw := 0.0
			if ep.HasPose {
				lw += f.sensingHoist.LogProb(r.Pose, ep.ReportedPose.Pos)
			}
			for k := range shelfIDs {
				lw += sensor.LogObs(f.cfg.Sensor, f.shelfObsBuf[k], r.Pose, f.shelfLocsBuf[k])
			}
			r.logW += lw
		}
	}
	f.normalizeReaders()
}

// updateFrames refreshes the per-reader frames (hoisted heading cos/sin) to
// the readers' current poses; the weighting kernels and the per-object
// fan-out read them for the rest of the epoch. Frames are only maintained on
// the parametric-model fast path.
func (f *Filter) updateFrames() {
	if !f.hasModel {
		return
	}
	f.frames = scratch.Grow(f.frames, len(f.readers))
	for j := range f.readers {
		f.frames[j] = sensor.FrameFor(f.readers[j].Pose)
	}
}

// effectiveMotion returns the motion model for the current epoch. The
// reader's per-epoch displacement is taken from the difference between
// consecutive reported locations when available (the "constant velocity that
// varies somewhat over time" of Section III-A), falling back to the last
// observed drift and finally to the configured average velocity.
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

// relevantShelfTags returns shelf tags observed this epoch or close enough to
// the reported reader location that their non-observation is informative. The
// returned slice is filter-owned scratch, valid until the next call.
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

func (f *Filter) normalizeReaders() {
	f.logBuf = scratch.Grow(f.logBuf, len(f.readers))
	logs := f.logBuf
	for j, r := range f.readers {
		logs[j] = r.logW
	}
	stats.NormalizeLogWeights(logs)
	for j := range f.readers {
		f.readers[j].normW = logs[j]
		f.readerNorm[j] = logs[j]
	}
}

// ReaderEstimate returns the posterior mean reader pose. It gathers into
// filter-owned scratch buffers, so — like Estimate — it must not be called
// concurrently with itself or with the epoch phases; the engine only calls
// it from the sequential prologue and report/serving paths, and the
// concurrent fan-out reads the per-epoch cached estPose instead.
func (f *Filter) ReaderEstimate() geom.Pose {
	if !f.started || len(f.readers) == 0 {
		return geom.Pose{}
	}
	f.estLocs = scratch.Grow(f.estLocs, len(f.readers))
	f.estW = scratch.Grow(f.estW, len(f.readers))
	locs, w := f.estLocs, f.estW
	sinSum, cosSum := 0.0, 0.0
	for j, r := range f.readers {
		locs[j] = r.Pose.Pos
		w[j] = f.readerNorm[j]
		sinSum += w[j] * math.Sin(r.Pose.Phi)
		cosSum += w[j] * math.Cos(r.Pose.Phi)
	}
	return geom.Pose{Pos: stats.WeightedMeanVec(locs, w), Phi: math.Atan2(sinSum, cosSum)}
}

// Estimate returns the posterior mean and per-axis variance of an object's
// location. It reuses the filter's weight scratch buffer, so it must not be
// called concurrently with itself or with the epoch phases (the engine only
// calls it from the sequential report/serving paths).
func (f *Filter) Estimate(id stream.TagID) (geom.Vec3, geom.Vec3, bool) {
	b, ok := f.objects[id]
	if !ok {
		return geom.Vec3{}, geom.Vec3{}, false
	}
	mean, variance, buf := b.meanWith(f.readerNorm, f.wBuf)
	f.wBuf = buf
	return mean, variance, true
}
