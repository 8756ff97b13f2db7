package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/belief"
	"repro/internal/factored"
	"repro/internal/geom"
	"repro/internal/pf"
	"repro/internal/sensor"
	"repro/internal/spatial"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Engine translates noisy, raw mobile RFID streams into a clean event stream
// with object locations. It encapsulates the factored particle filter (or the
// basic filter for baseline runs), the spatial index over sensing regions and
// the belief-compression policy.
//
// The factored filter makes objects conditionally independent given the
// reader particles, so each epoch partitions objects across Config.ShardCount
// shards by a stable hash of their tag id and fans the per-object work out to
// Config.Workers goroutines (stepSharded); one worker runs the shards inline.
// Output is byte-identical for any Workers and ShardCount.
type Engine struct {
	cfg     Config
	profile sensor.Profile
	// fp is cfg.Fingerprint(), computed once: checkpoint writes and restores
	// ask for it, and hashing the world's shelves and tags is not free.
	fp uint64

	fact  *factored.Filter
	basic *pf.Filter

	index     *spatial.SensingIndex
	beliefMgr *belief.Manager

	// Report bookkeeping.
	lastSeen map[stream.TagID]int
	pending  map[stream.TagID]int
	inScope  map[stream.TagID]bool

	// Compression watchlist: objects recently in scope whose beliefs may
	// become compression candidates, one watchlist shard per object shard so
	// workers can mark entries without locks.
	watch *belief.Watchlist

	// Reusable per-epoch scratch, only ever touched from the sequential
	// phases of an epoch (prologue and barrier): the observed-object list,
	// the Case-1/Case-2 active set with its de-dup map, the spatial-index
	// probe buffer, and the compression candidate list.
	observedBuf []stream.TagID
	activeBuf   []stream.TagID
	activeSeen  map[stream.TagID]bool
	case2Buf    []stream.TagID
	mergedBuf   []stream.TagID
	candBuf     []belief.Candidate

	// arenas[w] is worker w's private scratch arena: all scratch memory of
	// the per-object hot path (resampling indices, gather double buffers)
	// lives there, so the fan-out performs zero steady-state heap allocations
	// and workers never contend on shared scratch.
	arenas []*factored.Arena

	// Reusable per-epoch fan-out scratch (written in the prologue, read-only
	// or disjointly indexed during the fan-out, reset at the next prologue).
	stepsBuf [][]stream.TagID
	watchBuf [][]stream.TagID
	hasBuf   []bool
	posBuf   [][]int
	assocBuf []stream.TagID

	// Fan-out plumbing. The work channel is created once (buffered to hold a
	// full epoch's shard indices plus one termination sentinel per worker) and
	// the per-epoch fan-out state lives in fields, so dispatching an epoch
	// allocates nothing: no fresh channel, no closures capturing epoch
	// variables, and workerFns[w] is worker w's body built once so that
	// starting it allocates no per-epoch closure either; the dispatching
	// caller runs worker 0's itself. Workers are spawned per epoch and exit on
	// the -1 sentinel, so the engine needs no Close lifecycle and never leaks
	// goroutines.
	work      chan int
	wg        sync.WaitGroup
	workerFns []func()

	// Per-epoch fan-out state, written by the prologue before workers start
	// and read-only (or disjointly indexed) during the fan-out.
	curEp     *stream.Epoch
	curActive []stream.TagID
	curBox    geom.BBox
	curAssoc  bool

	stats     Stats
	lastEpoch int

	// rec, when non-nil, receives per-stage timings of every epoch (prologue,
	// step, estimate). Timing is observational only: it never changes control
	// flow, RNG consumption or output, so traced runs stay byte-identical to
	// untraced ones.
	rec *trace.Recorder
}

// New returns a configured Engine.
func New(cfg Config) (*Engine, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		profile:    cfg.observationProfile(),
		fp:         cfg.Fingerprint(),
		lastSeen:   make(map[stream.TagID]int),
		pending:    make(map[stream.TagID]int),
		inScope:    make(map[stream.TagID]bool),
		watch:      belief.NewWatchlist(cfg.ShardCount),
		activeSeen: make(map[stream.TagID]bool),
	}
	if cfg.Factored {
		e.fact = factored.New(factored.Config{
			NumReaderParticles:     cfg.NumReaderParticles,
			NumObjectParticles:     cfg.NumObjectParticles,
			NumDecompressParticles: cfg.NumDecompressParticles,
			Params:                 cfg.Params,
			Sensor:                 e.profile,
			World:                  cfg.World,
			InitConeHalfAngle:      cfg.InitConeHalfAngle,
			InitConeRange:          cfg.InitConeRange,
			UseMotionModel:         !cfg.DisableMotionModel,
			Seed:                   cfg.Seed,
		})
		if cfg.SpatialIndex {
			e.index = spatial.NewSensingIndex()
		}
		if cfg.Compression {
			e.beliefMgr = belief.NewManager(cfg.CompressionPolicy)
		}
		e.arenas = make([]*factored.Arena, cfg.Workers)
		e.workerFns = make([]func(), cfg.Workers)
		for w := range e.arenas {
			e.arenas[w] = factored.NewArena()
			e.workerFns[w] = func() { e.shardWorker(w) }
		}
		// Sized so a full epoch (every shard index plus one sentinel per
		// worker) enqueues without blocking — the dispatcher never parks.
		e.work = make(chan int, cfg.ShardCount+cfg.Workers)
	} else {
		e.basic = pf.New(pf.Config{
			NumParticles:      cfg.NumBasicParticles,
			Params:            cfg.Params,
			Sensor:            e.profile,
			World:             cfg.World,
			InitConeHalfAngle: cfg.InitConeHalfAngle,
			InitConeRange:     cfg.InitConeRange,
			Seed:              cfg.Seed,
		})
	}
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Fingerprint returns Config().Fingerprint(), computed when the engine was
// built.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// SetTraceRecorder installs (or, with nil, removes) the per-epoch stage
// recorder.
func (e *Engine) SetTraceRecorder(r *trace.Recorder) { e.rec = r }

// Stats returns the cumulative work counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	if e.cfg.Factored {
		s.TrackedObjects = e.fact.NumTracked()
	} else {
		s.TrackedObjects = e.basic.NumTracked()
	}
	return s
}

// ProcessEpoch feeds one synchronized epoch into the engine and returns the
// location events emitted at this epoch (possibly none).
func (e *Engine) ProcessEpoch(ep *stream.Epoch) ([]stream.Event, error) {
	if ep == nil {
		return nil, fmt.Errorf("core: nil epoch")
	}
	e.stats.Epochs++
	e.stats.Readings += len(ep.Observed)
	e.lastEpoch = ep.Time

	rec := e.rec
	var t time.Time
	if rec != nil {
		t = time.Now()
	}
	observed := e.observedObjects(ep)
	if rec != nil {
		rec.Add(trace.StagePrologue, time.Since(t))
	}
	if e.cfg.Factored {
		// stepSharded splits its own prologue/step timing.
		e.stepSharded(ep, observed)
	} else {
		if rec != nil {
			t = time.Now()
		}
		e.basic.Step(ep)
		e.stats.ObjectsProcessed += e.basic.NumTracked()
		if rec != nil {
			rec.Add(trace.StageStep, time.Since(t))
		}
	}

	if rec != nil {
		t = time.Now()
	}
	events := e.report(ep, observed)
	if rec != nil {
		rec.Add(trace.StageEstimate, time.Since(t))
	}
	e.stats.EventsEmitted += len(events)
	return events, nil
}

// observedObjects returns the object (non-shelf) tags read in the epoch. The
// returned slice is engine-owned scratch, valid until the next epoch.
func (e *Engine) observedObjects(ep *stream.Epoch) []stream.TagID {
	out := e.observedBuf[:0]
	for _, id := range ep.ObservedList() {
		if e.cfg.World.IsShelfTag(id) {
			continue
		}
		out = append(out, id)
	}
	e.observedBuf = out
	return out
}

// countPendingDecompressions counts the observed objects whose beliefs are
// currently compressed; stepping them will decompress.
func (e *Engine) countPendingDecompressions(observed []stream.TagID) {
	for _, id := range observed {
		if b := e.fact.Belief(id); b != nil && b.IsCompressed() {
			e.stats.Decompressions++
		}
	}
}

// selectActive computes the epoch's active object set through the spatial
// index: the observed tags (Case 1) plus the indexed tags with particles near
// the current sensing region (Case 2), de-duplicated in that order, skipping
// compressed Case-2 beliefs (they are only touched when read again). Only
// valid when the spatial index is enabled.
func (e *Engine) selectActive(ep *stream.Epoch, observed []stream.TagID) ([]stream.TagID, geom.BBox) {
	box := e.sensingBox(ep)
	e.case2Buf = e.index.QueryInto(box, e.case2Buf[:0])
	case2 := e.case2Buf
	seen := e.activeSeen
	clear(seen)
	active := e.activeBuf[:0]
	for _, id := range observed {
		if !seen[id] {
			seen[id] = true
			active = append(active, id)
		}
	}
	for _, id := range case2 {
		if b := e.fact.Belief(id); b != nil && b.IsCompressed() {
			continue
		}
		if !seen[id] {
			seen[id] = true
			active = append(active, id)
		}
	}
	e.activeBuf = active
	return active, box
}

// sensingBox returns the bounding box of the current sensing region, centered
// at the reported reader location when available and at the estimated reader
// location otherwise.
func (e *Engine) sensingBox(ep *stream.Epoch) geom.BBox {
	var center geom.Vec3
	if ep.HasPose {
		center = ep.ReportedPose.Pos
	} else {
		center = e.fact.ReaderEstimate().Pos
	}
	r := e.profile.MaxRange()
	if r <= 0 {
		r = 3
	}
	// Expand slightly so that reader location noise does not hide Case-2
	// objects near the region's edge.
	return geom.BBoxAround(center, r+0.5)
}

// runCompression asks the policy which watched objects to compress and
// applies the filter's compression operator to them. It runs at the epoch
// barrier, reading the merged view of all watchlist shards.
func (e *Engine) runCompression(epoch int) {
	if e.watch.Len() == 0 {
		return
	}
	e.mergedBuf = e.watch.AppendMerged(e.mergedBuf[:0])
	watched := e.mergedBuf
	candidates := e.candBuf[:0]
	for _, id := range watched {
		b := e.fact.Belief(id)
		if b == nil || b.IsCompressed() {
			e.watch.Drop(id)
			continue
		}
		candidates = append(candidates, belief.Candidate{ID: id, LastSeen: b.LastSeen})
	}
	e.candBuf = candidates
	if len(candidates) == 0 {
		return
	}
	for _, c := range e.beliefMgr.Select(epoch, candidates, filterAdapter{e.fact}) {
		if e.fact.CompressObject(c.ID, c.KL) {
			e.stats.Compressions++
		}
		e.watch.Drop(c.ID)
	}
}

// filterAdapter adapts *factored.Filter to the belief.Filter interface.
type filterAdapter struct{ f *factored.Filter }

// CandidateKL implements belief.Filter.
func (a filterAdapter) CandidateKL(id stream.TagID) (float64, bool) {
	return a.f.CompressionCandidateKL(id)
}

// Estimate returns the current location estimate for an object together with
// summary statistics, or ok == false for unknown objects.
func (e *Engine) Estimate(id stream.TagID) (geom.Vec3, stream.EventStats, bool) {
	if e.cfg.Factored {
		mean, variance, ok := e.fact.Estimate(id)
		if !ok {
			return geom.Vec3{}, stream.EventStats{}, false
		}
		st := stream.EventStats{Variance: variance}
		if b := e.fact.Belief(id); b != nil {
			st.Compressed = b.IsCompressed()
			st.NumParticles = b.NumParticles()
		}
		return mean, st, true
	}
	mean, variance, ok := e.basic.Estimate(id)
	if !ok {
		return geom.Vec3{}, stream.EventStats{}, false
	}
	return mean, stream.EventStats{Variance: variance, NumParticles: e.basic.NumParticles()}, true
}

// ReaderEstimate returns the engine's current estimate of the true reader
// pose.
func (e *Engine) ReaderEstimate() geom.Pose {
	if e.cfg.Factored {
		return e.fact.ReaderEstimate()
	}
	return e.basic.ReaderEstimate()
}

// TrackedObjects returns the ids of all objects the engine has seen.
func (e *Engine) TrackedObjects() []stream.TagID {
	if e.cfg.Factored {
		return e.fact.TrackedObjects()
	}
	return e.basic.TrackedObjects()
}

// AppendMaybeMoved appends the ids of the objects whose Estimate can have
// changed during the last processed epoch; every other tracked object's
// estimate is what it was before that epoch. For the factored filter these
// are the beliefs in particle form (see factored.Filter.AppendMaybeMoved);
// the basic filter's joint particles move every object, so it lists them all.
func (e *Engine) AppendMaybeMoved(dst []stream.TagID) []stream.TagID {
	if e.cfg.Factored {
		return e.fact.AppendMaybeMoved(dst)
	}
	return append(dst, e.basic.TrackedObjects()...)
}

// ParticleCount returns the number of particles currently alive in the
// engine (reader particles plus per-object particles for the factored
// filter, the joint particle set for the basic filter); exposed for serving
// metrics and diagnostics.
func (e *Engine) ParticleCount() int {
	if e.cfg.Factored {
		return e.fact.ParticleCount()
	}
	return e.basic.NumParticles()
}

// IndexSize returns the number of sensing regions currently indexed (zero
// when spatial indexing is disabled); exposed for diagnostics and tests.
func (e *Engine) IndexSize() int {
	if e.index == nil {
		return 0
	}
	return e.index.Len()
}
