package serve

import (
	"runtime"
	"sync"
)

// The shared session scheduler: a fixed worker pool (default GOMAXPROCS) pulls
// runnable sessions off a FIFO run queue and drains their bounded op queues. A
// session's op queue is its pending-work list; the run queue holds sessions
// that have work (or a pending startup).
//
// Determinism: per-session ordering is preserved by pinning — a session is on
// the run queue at most once (the schedState CAS below) and a popped session
// is drained under its pinMu, so at most one worker ever mutates a session's
// engine, WAL or registry at a time. Ops still apply in exactly the order the
// bounded channel received them, which is the same order the WAL logs them;
// the pool size therefore changes only *when* a session runs, never *what*
// it computes. The worker holding a session's pin is its "pinned worker".
//
// Lost-wakeup freedom: producers wake(s) after enqueueing an op. If the CAS
// idle->queued fails the session is already queued or running; a running
// worker re-checks s.runnable() after it stores schedIdle back, so an op that
// arrived during the dispatch (and lost its wake to the running state)
// re-queues the session then.

// Session scheduling states (session.schedState).
const (
	schedIdle int32 = iota
	schedQueued
	schedRunning
)

// dispatchQuantum bounds how many ops one dispatch drains before the session
// yields the worker, so a hot session cannot starve others on the shared
// pool.
const dispatchQuantum = 32

// scheduler is the shared run queue + worker pool.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*session // FIFO of runnable sessions, each present at most once
	closed bool
	wg     sync.WaitGroup
}

// newScheduler starts a scheduler with the given worker-pool size
// (0 = GOMAXPROCS).
func newScheduler(workers int) *scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := &scheduler{}
	sc.cond = sync.NewCond(&sc.mu)
	sc.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go sc.worker()
	}
	return sc
}

// wake marks a session runnable. Idempotent and cheap when the session is
// already queued or running; must be called after every op enqueued outside a
// dispatch.
func (sc *scheduler) wake(s *session) {
	if s.stopped() {
		return
	}
	if !s.schedState.CompareAndSwap(schedIdle, schedQueued) {
		return // already queued, or running (the worker re-checks on exit)
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		s.schedState.Store(schedIdle)
		return
	}
	sc.queue = append(sc.queue, s)
	sc.cond.Signal()
	sc.mu.Unlock()
}

// next blocks until a session is runnable (nil when the scheduler stopped).
func (sc *scheduler) next() *session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.queue) == 0 && !sc.closed {
		sc.cond.Wait()
	}
	if sc.closed {
		return nil
	}
	s := sc.queue[0]
	sc.queue[0] = nil
	sc.queue = sc.queue[1:]
	if len(sc.queue) == 0 {
		sc.queue = nil // reclaim the crept backing array
	}
	return s
}

// worker is one pool goroutine: pop, pin, drain, repeat.
func (sc *scheduler) worker() {
	defer sc.wg.Done()
	for {
		s := sc.next()
		if s == nil {
			return
		}
		s.schedState.Store(schedRunning)
		s.dispatch()
		s.schedState.Store(schedIdle)
		// Ops that arrived while schedState was running lost their wake to
		// the failed CAS; re-queue the session for them here.
		if s.runnable() {
			sc.wake(s)
		}
	}
}

// stop shuts the pool down. Sessions must already be closed (stopped); their
// queued ops are abandoned.
func (sc *scheduler) stop() {
	sc.mu.Lock()
	sc.closed = true
	sc.queue = nil
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.wg.Wait()
}

// runnable reports whether the session has pending work for the pool.
func (s *session) runnable() bool {
	return !s.stopped() && (len(s.ops) > 0 || s.life.load().phase() == phaseStarting)
}

// dispatch drains up to dispatchQuantum ops while holding the session pin.
// This (plus recovery in startup and hydrate) is the ONLY place session
// engine state mutates.
func (s *session) dispatch() {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if s.stopped() {
		return
	}
	if s.life.load().phase() == phaseStarting {
		if err := s.startup(); err != nil {
			s.log.Error("startup failed", "err", err)
			// Keep draining ops so clients get errors instead of hangs.
		}
	}
	touched := false
	defer func() {
		if touched {
			s.res.touch(s)
		}
	}()
	for n := 0; n < dispatchQuantum; n++ {
		if s.stopped() {
			return
		}
		select {
		case o := <-s.ops:
			if o.kind == opEvict {
				res := s.handleEvictOp()
				if o.done != nil {
					o.done <- res
				}
				continue
			}
			// First touch of an evicted session: transparently restore the
			// engine from its spill (or checkpoint + WAL) before the op
			// applies. A shutdown op must NOT hydrate — closing an evicted
			// session has nothing to seal (its durable state is already its
			// checkpoint plus its closed WAL), and rebuilding a particle
			// filter just to close it is the bug the DELETE fast path exists
			// to avoid.
			if o.kind != opShutdown && s.life.load().phase() == phaseEvicted {
				if err := s.hydrate(); err != nil {
					s.log.Error("hydration failed", "err", err)
				}
			}
			res := s.handleOp(o)
			if o.done != nil {
				o.done <- res
			}
			if o.kind != opShutdown {
				touched = true
			}
		default:
			return
		}
	}
}
