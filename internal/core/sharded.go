package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/scratch"
	"repro/internal/stream"
	"repro/internal/trace"
)

// stepSharded runs one epoch of the factored pipeline:
//
//	prologue (sequential): reader particle step, Case-1/Case-2 selection,
//	    fresh-belief creation, shard partition
//	fan-out (parallel):    per-shard object steps, per-shard sensing-region
//	    membership tests, shard-local compression watchlist marking
//	barrier (sequential):  reader resampling, spatial-index maintenance,
//	    belief compression
//
// Because every per-object stochastic operation draws from a private random
// stream derived from (seed, tag id), the output is byte-identical for any
// Workers and ShardCount — parallelism changes only wall-clock time, never
// results.
func (e *Engine) stepSharded(ep *stream.Epoch, observed []stream.TagID) {
	rec := e.rec
	var t time.Time
	if rec != nil {
		t = time.Now()
	}
	e.countPendingDecompressions(observed)

	// Case-1/Case-2 selection through the spatial index (sequential: it
	// reads and later writes the shared index).
	var active []stream.TagID
	var box geom.BBox
	useIndex := e.index != nil
	if useIndex {
		active, box = e.selectActive(ep, observed)
	}

	// Prologue: reader step and fresh-belief creation, then partition the
	// step set across shards (into the reusable per-shard batches).
	var stepIDs []stream.TagID
	if useIndex {
		stepIDs = e.fact.BeginEpoch(ep, active)
	} else {
		stepIDs = e.fact.BeginEpoch(ep, nil)
		active = observed
	}
	e.stepsBuf = stream.PartitionTagsInto(e.stepsBuf, stepIDs, e.cfg.ShardCount)

	// Sensing-region membership is tested per shard during the fan-out so
	// the O(active x particles) scans are amortized across workers; results
	// land in a position-indexed slice and are merged in active order at the
	// barrier, keeping index contents independent of the shard layout.
	assocNeeded := useIndex && !box.IsEmpty()
	if assocNeeded {
		e.hasBuf = scratch.Grow(e.hasBuf, len(active))
		for i := range e.hasBuf {
			e.hasBuf[i] = false
		}
		e.posBuf = scratch.Grow(e.posBuf, e.cfg.ShardCount)
		for s := range e.posBuf {
			e.posBuf[s] = e.posBuf[s][:0]
		}
		for i, id := range active {
			s := id.Shard(e.cfg.ShardCount)
			e.posBuf[s] = append(e.posBuf[s], i)
		}
	}

	// Watch marking is shard-local: each worker touches only its own
	// watchlist shard, merged at the barrier by runCompression.
	if e.beliefMgr != nil {
		e.watchBuf = stream.PartitionTagsInto(e.watchBuf, active, e.cfg.ShardCount)
	}
	if rec != nil {
		// Prologue ends where the parallel fan-out begins; everything from
		// here (fan-out, barrier, index maintenance, compression) is the step.
		rec.Add(trace.StagePrologue, time.Since(t))
		t = time.Now()
	}

	// Fan-out: per-shard object steps (shardTask). Workers mutate only
	// beliefs of their own shard and their private arena, and read shared
	// filter state that no one writes during this phase. The epoch's fan-out
	// inputs are published as fields (not closure captures) so dispatching an
	// epoch performs no heap allocations.
	e.curEp, e.curActive, e.curBox, e.curAssoc = ep, active, box, assocNeeded
	e.forEachShard()
	e.curEp, e.curActive = nil, nil

	// Barrier: reader resampling and all shared-state maintenance.
	e.fact.EndEpoch()
	if useIndex {
		e.stats.ObjectsProcessed += len(active)
	} else {
		e.stats.ObjectsProcessed += e.fact.NumTracked()
	}

	if assocNeeded {
		assoc := e.assocBuf[:0]
		for i, id := range active {
			if e.hasBuf[i] {
				assoc = append(assoc, id)
			}
		}
		e.assocBuf = assoc
		e.index.Insert(box, assoc)
	}

	if e.beliefMgr != nil {
		e.runCompression(ep.Time)
	}
	if rec != nil {
		rec.Add(trace.StageStep, time.Since(t))
	}
}

// forEachShard runs shardTask(worker, shard) for every shard on up to
// e.cfg.Workers workers; the worker index selects the worker-private arena.
// The caller is worker 0 and starts the others as goroutines, so it works
// instead of parking until they finish; with a single worker nothing else
// starts and there is no synchronization. The persistent buffered work
// channel holds the whole epoch (shard indices plus one -1 sentinel per
// worker), so the dispatcher enqueues everything up front without blocking
// and each worker drains shards until it takes a sentinel and exits — per
// epoch this allocates nothing.
func (e *Engine) forEachShard() {
	n := e.cfg.ShardCount
	w := e.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for s := 0; s < n; s++ {
			e.shardTask(0, s)
		}
		return
	}
	for s := 0; s < n; s++ {
		e.work <- s
	}
	for i := 0; i < w; i++ {
		e.work <- -1
	}
	e.wg.Add(w)
	for i := 1; i < w; i++ {
		go e.workerFns[i]()
	}
	e.workerFns[0]()
	e.wg.Wait()
}

// shardWorker drains shard indices from the work channel until it consumes a
// termination sentinel. Exactly w sentinels are enqueued per epoch and each
// worker exits on the first one it takes, so every goroutine terminates by
// the time wg.Wait returns and none survives the epoch.
func (e *Engine) shardWorker(worker int) {
	defer e.wg.Done()
	for {
		s := <-e.work
		if s < 0 {
			return
		}
		e.shardTask(worker, s)
	}
}

// shardTask is the per-shard body of the epoch fan-out, reading the epoch's
// inputs from the fields published by stepSharded.
func (e *Engine) shardTask(worker, s int) {
	if len(e.stepsBuf) > s {
		e.fact.StepObjectsWith(e.arenas[worker], e.curEp, e.stepsBuf[s])
	}
	if e.curAssoc {
		for _, i := range e.posBuf[s] {
			if b := e.fact.Belief(e.curActive[i]); b != nil && b.HasParticleIn(e.curBox) {
				e.hasBuf[i] = true
			}
		}
	}
	if e.beliefMgr != nil && len(e.watchBuf) > s {
		for _, id := range e.watchBuf[s] {
			e.watch.Mark(id)
		}
	}
}
