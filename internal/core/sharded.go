package core

import (
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/scratch"
	"repro/internal/stream"
	"repro/internal/trace"
)

// stepSharded runs one epoch of the factored pipeline:
//
//	prologue (sequential): reader particle step, Case-1/Case-2 selection,
//	    fresh-belief registration
//	fan-out (parallel):    object steps and fresh-belief particle draws over
//	    contiguous chunks of the step list, each object's
//	    sensing-region membership tested right after its step
//	barrier (sequential):  reader resampling, spatial-index maintenance,
//	    compression watchlist marking, belief compression
//
// Because every per-object stochastic operation draws from a private random
// stream derived from (seed, tag id), the output is byte-identical for any
// Workers and chunk count — parallelism changes only wall-clock time, never
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

	// Prologue: reader step and fresh-belief registration. The step list,
	// fresh beliefs included, is what the fan-out splits into chunks.
	var steps []stream.TagID
	if useIndex {
		steps = e.fact.BeginEpoch(ep, active)
	} else {
		steps = e.fact.BeginEpoch(ep, nil)
		active = observed
	}

	// Sensing-region membership is tested during the fan-out, right after
	// each object's step, so the O(active x particles) scans are amortized
	// across workers; results land at the object's position in active
	// (activePos) and are collected in active order at the barrier, keeping
	// index contents independent of the chunking.
	assocNeeded := useIndex && !box.IsEmpty()
	if assocNeeded {
		e.hasBuf = scratch.Grow(e.hasBuf, len(active))
		clear(e.hasBuf)
	}
	if rec != nil {
		// Prologue ends where the parallel fan-out begins; everything from
		// here (fan-out, barrier, index maintenance, compression) is the step.
		rec.Add(trace.StagePrologue, time.Since(t))
		t = time.Now()
	}

	// Fan-out: chunked object steps (shardTask). Workers mutate only the
	// beliefs of their own chunks and their private arena, and read shared
	// filter state that no one writes during this phase. The epoch's fan-out
	// inputs are published as fields (not closure captures) so dispatching an
	// epoch performs no heap allocations.
	e.curEp, e.curSteps, e.curBox, e.curAssoc = ep, steps, box, assocNeeded
	e.forEachShard()
	e.curEp, e.curSteps = nil, nil

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
		for _, id := range active {
			e.watch[id] = true
		}
		e.runCompression(ep.Time)
	}
	if rec != nil {
		rec.Add(trace.StageStep, time.Since(t))
	}
}

// forEachShard runs shardTask(worker, s) for every chunk s on up to
// e.cfg.Workers workers; the worker index selects the worker-private arena.
// With a single worker the caller runs every chunk inline and nothing is
// synchronized. Otherwise the caller is worker 0 and helpers 1..w-1 join it:
// each worker claims chunk indices from one atomic counter until they run
// out, so per epoch this allocates nothing. Helper 1, if still waiting from
// the last epoch (see helperLinger), is handed the epoch with one atomic
// state change; otherwise, and for every other helper, a goroutine is
// started.
//
// Worker 0 then polls until no helper is left working, yielding between
// polls, instead of parking: a parked caller was woken on the last helper's
// CPU and ran the rest of its epoch there against a cold cache (330 against
// 280 µs per epoch, medians of 5 whole-trace runs each, on a 2-vCPU VM), and
// a started helper that no CPU has picked up yet runs on worker 0's own CPU
// when it yields. The poll lasts no longer than the helpers' last chunks.
func (e *Engine) forEachShard() {
	n := e.chunks
	w := min(e.cfg.Workers, n)
	if w <= 1 {
		for s := 0; s < n; s++ {
			e.shardTask(0, s)
		}
		return
	}
	e.linger = e.mayWait && time.Since(e.lastFanOut) <= helperLinger
	e.nextShard.Store(0)
	e.working.Store(int32(w - 1))
	if !e.waiter.CompareAndSwap(helperWaiting, helperAssigned) {
		go e.workerFns[1]()
	}
	for i := 2; i < w; i++ {
		go e.workerFns[i]()
	}
	e.drainShards(0)
	for e.working.Load() > 0 {
		runtime.Gosched()
	}
	e.lastFanOut = time.Now()
}

// drainShards runs shardTask for the chunks the worker claims until none is
// left.
func (e *Engine) drainShards(worker int) {
	for {
		s := int(e.nextShard.Add(1)) - 1
		if s >= e.chunks {
			return
		}
		e.shardTask(worker, s)
	}
}

// helperLinger is how long fan-out helper 1, having drained its chunks,
// keeps waiting for the next epoch before its goroutine exits, and how close
// to the end of the previous fan-out an epoch must begin for it to wait at
// all. Starting a goroutine per epoch wakes an idle CPU, which took 80 µs on
// average on a 2-vCPU VM, about half of a 170 µs fan-out; a helper that is
// still waiting takes the next epoch within a microsecond. Between the
// back-to-back epochs of a batch run the gap was 85 µs at the median and
// 270 µs at the 99th percentile, so 500 µs covers nearly all of them. A
// served session whose epochs arrive farther apart (1.1 ms on average for
// stream ingest at saturation, with other sessions and the clients wanting
// the CPUs) never waits, and starts its helpers afresh each epoch. Only one
// helper waits, whatever the worker and CPU counts, so waiting costs an
// engine at most helperLinger of CPU per epoch, and an engine that stops
// receiving epochs keeps no goroutine beyond it.
const helperLinger = 500 * time.Microsecond

// States of helper 1 (Engine.waiter).
const (
	helperExited   int32 = iota // no goroutine: the next fan-out starts one
	helperWaiting               // polling for the next epoch
	helperAssigned              // handed an epoch by the fan-out
)

// helper is the body of fan-out helper i > 1: it drains the epoch's chunks
// and exits.
func (e *Engine) helper(i int) {
	e.drainShards(i)
	e.working.Add(-1)
}

// waitingHelper is the body of fan-out helper 1. It drains the epoch's
// chunks, then waits for the next epoch if this one came back to back
// (e.linger), and exits otherwise or when its wait expires unassigned. It
// sets its state before leaving the epoch's working count, so once worker 0
// sees no helper working, helper 1 is either waiting to be handed the next
// epoch or marked exited.
func (e *Engine) waitingHelper() {
	for {
		e.drainShards(1)
		wait := e.linger
		if wait {
			e.waiter.Store(helperWaiting)
		} else {
			e.waiter.Store(helperExited)
		}
		e.working.Add(-1)
		if !wait || !e.awaitEpoch() {
			return
		}
	}
}

// awaitEpoch polls helper 1's state for up to helperLinger and reports
// whether it was handed another epoch; if not, it marks the helper exited.
// Between polls it yields, so GC workers and other goroutines on its P still
// run.
func (e *Engine) awaitEpoch() bool {
	deadline := time.Now().Add(helperLinger)
	for e.waiter.Load() != helperAssigned {
		if time.Now().After(deadline) && e.waiter.CompareAndSwap(helperWaiting, helperExited) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// chunk returns the bounds [lo, hi) of chunk s when a list of n items is
// split into k contiguous chunks of sizes differing by at most one.
func chunk(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// shardTask is the body of the epoch fan-out for the s-th chunk claimed,
// reading the epoch's inputs from the fields published by stepSharded.
// Chunks are claimed last first. The step list ends with the fresh beliefs,
// and a fresh belief's first step, which draws its particles, is the costly
// one: on the stream-dense shelf (about 175 objects stepped per epoch, 1.6 of
// them fresh, 25 particles each) it took 27 µs against 2.3 µs for any other
// object, so the last of 8 chunks cost 1.7 times the others. Claimed last, it
// kept worker 0 waiting for the helper 46-63 µs per epoch; claimed first,
// 26-30 µs (2 workers, 2 vCPUs).
func (e *Engine) shardTask(worker, s int) {
	k := e.chunks
	lo, hi := chunk(len(e.curSteps), k, k-1-s)
	for j := lo; j < hi; j++ {
		e.fact.StepObjectsWith(e.arenas[worker], e.curEp, e.curSteps[j:j+1])
		if !e.curAssoc {
			continue
		}
		id := e.curSteps[j]
		if i, ok := e.activePos[id]; ok && e.fact.Belief(id).HasParticleIn(e.curBox) {
			e.hasBuf[i] = true
		}
	}
}
