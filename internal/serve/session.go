package serve

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// op is one unit of work on a session's pending-work list: a mutation (an
// ingest batch, a flush, a query registration or removal) or a control op (a
// fence, an eviction request, the graceful shutdown, a replication command).
type op struct {
	kind opKind
	// rec is the mutation, already in the form the WAL logs it: the handler
	// that decoded the request filled it, and the pinned worker appends it and
	// applies it (see mutate). Everything that changes replicated state rides
	// the op queue as its own log record, so the order of mutations relative to
	// epoch processing is exactly the order the WAL records. HTTP ops are
	// synchronous (done != nil), so a 202 means the batch was applied — after
	// it reached the WAL on a durable session.
	rec wal.Record
	// sb, when non-nil, marks an ingest batch that arrived over a stream
	// connection: rec's readings and locations alias the batch's scratch
	// slices, and after applying, the pinned worker recycles the batch and
	// raises the connection's ack mark instead of answering a done channel.
	sb *streamBatch
	// repl is what the follower shipped for opReplApply and opReplBootstrap;
	// see replica.go.
	repl *replOp
	// done, when non-nil, receives the op's outcome.
	done chan opResult
}

// opKind is what an op asks of the pinned worker.
type opKind uint8

const (
	opMutate opKind = iota // append and apply rec
	// opFence completes at once: whoever awaits it knows every op enqueued
	// before it has applied (and that an evicted session has hydrated).
	opFence
	opEvict         // spill the session image unless newer work is queued behind
	opShutdown      // seal, write a final checkpoint, close the WAL
	opReplApply     // mirror and apply one shipped record (see replica.go)
	opReplBootstrap // restart from a shipped checkpoint image
	opReplPromote   // stop mirroring and become writable
)

// opResult is what an op did. For a mutation it is what applyWALRecord
// reports of the record, wherever the record came from.
type opResult struct {
	events  int
	results int
	report  rfid.IngestReport
	info    query.Info
	found   bool
	// wake asks for the long-poll readers to be woken although no rows were
	// fed: a query was removed, or a history-mode registration buffered its
	// result set.
	wake bool
	// err is why the op was refused, or — on an applied mutation — the
	// epoch-processing error or the registry's refusal of the registration.
	err error
}

// cachedStats is the last engine view captured at eviction, so listings and
// metric scrapes answer without hydrating.
type cachedStats struct {
	st      rfid.RunnerStats
	queries int
}

// sessionDeps is the server-shared machinery every session hooks into.
type sessionDeps struct {
	set   *metrics.Set
	sched *scheduler
	res   *residency
	// repl is the server-level replication tracker (follower acks on a
	// primary, apply metrics on a replica).
	repl *replTracker
	// node is the server's closed flag and replication role. Sessions built
	// on a follower node start in the replica role.
	node *node
}

// session is one isolated inference world behind the HTTP surface: its own
// Runner, query registry, bounded op queue drained by the shared scheduler's
// worker pool, per-session metric series and (when the server is durable) its
// own WAL/checkpoint directory. The v1 API exposes sessions as resources
// under /v1/sessions/{id}.
//
// Concurrency model: all ingest and flush work funnels through one bounded
// channel drained under the session pin (see sched.go), so epochs are
// processed strictly in arrival order by at most one worker at a time and the
// pipeline's determinism is preserved; the channel bound is the backpressure
// mechanism (ingest blocks briefly, then fails with 503 when the engine
// cannot keep up). Snapshot reads go straight to the Runner, whose mutex
// serializes them against epoch processing, so they always observe a
// consistent post-epoch state; on an evicted session they hydrate first via a
// fence through the queue.
type session struct {
	id     string
	label  string // metric-series label suffix, {session="<id>"}
	source string // normalized world source
	cfg    Config // effective config; DataDir is THIS session's directory
	// restored marks a session built by boot restore or a replica bootstrap
	// rather than a create call: the ones /v1/healthz waits on.
	restored bool

	// manifest is the api.CreateSessionRequest the session was built from.
	// Hydration rebuilds the engine from it, which is what makes the
	// checkpoint fingerprint match.
	manifest api.CreateSessionRequest
	// world is the manifest's world, built once and shared by every runner
	// the session builds (see newRunner); nil on a session that booted
	// evicted, until its first hydration. Pinned worker only.
	world *rfid.World

	// eng and reg are the resident engine and query registry; both are nil
	// while the session is evicted. Swapped only under the session pin; read
	// lock-free by snapshot/results handlers (a reader racing an eviction
	// sees either nil or the consistent pre-evict state, never a torn one).
	eng atomic.Pointer[rfid.Runner]
	reg atomic.Pointer[query.Registry]

	ops  chan op
	quit chan struct{} // closed by stop: waiters give up, dispatch no longer runs
	life lifecycle
	node *node

	// Scheduler plumbing (see sched.go): the pin is what keeps at most one
	// worker on the session at a time.
	sched      *scheduler
	res        *residency
	schedState atomic.Int32
	pinMu      sync.Mutex

	// evictPending reserves the session for one in-flight eviction request.
	evictPending atomic.Bool
	// lastStats caches the engine view at eviction time for listings and
	// scrapes; nil until the first eviction (a lazily-restored session
	// reports zeros until its first touch).
	lastStats atomic.Pointer[cachedStats]

	set   *metrics.Set // shared with the server; series are label-suffixed
	log   *slog.Logger // structured logger, pre-tagged with the session id
	start time.Time

	// resultNotify is closed and replaced whenever new query results were
	// buffered (or a query was removed); long-poll result readers wait on it.
	notifyMu     sync.Mutex
	resultNotify chan struct{}

	// stream is the session's single active stream connection (nil when
	// none); a new stream claims the slot and takes the old one down. A live
	// stream also pins the session resident.
	stream atomic.Pointer[streamConn]
	// lastStreamSeq is the highest stream batch sequence durably applied;
	// written under the pin (and by recovery), read by stream handshakes
	// after a fence. It is persisted through RecBatch WAL records and the
	// checkpoint's serve.stream section, so stream resume survives eviction.
	lastStreamSeq atomic.Uint64

	// Replication (see replica.go). repl is the server-level follower
	// tracker; replSeg/replOff/appliedEpoch are the atomically published apply
	// cursor HTTP handlers and ack senders read without the pin, valid while
	// the session is a serving replica.
	repl         *replTracker
	replSeg      atomic.Uint64
	replOff      atomic.Int64
	appliedEpoch atomic.Int64
	// histReg holds a replica's local history-mode queries (ids prefixed "h"
	// so they can never collide with replicated "q" ids); installed beside
	// every runner a replica installs, discarded at promotion.
	histReg atomic.Pointer[query.Registry]

	// Durability (nil / zero when cfg.DataDir is empty). The WAL and the
	// checkpoint writer run exclusively under the session pin. On a replica
	// wal is the mirror of the primary's log (wal.OpenMirror), written only by
	// shipped records.
	wal           *wal.Log
	ready         chan struct{} // closed when startup has run
	lastCkptEpoch atomic.Int64
	lastCkptNanos atomic.Int64
	epochsAtCkpt  int64     // pinned-worker-local
	lastWal       wal.Stats // pinned-worker-local metric mirror
	// spill is where the log stood when this process last wrote the
	// session's eviction spill, or zero when there is no spill it may
	// restore (see hydrate.go). Pinned-worker-local.
	spill spillToken

	// op-processing counters (written only under the pin)
	engineErrs  *metrics.Counter
	batches     *metrics.Counter
	streamConns *metrics.Counter
	rejected    *metrics.Counter
	readings    *metrics.Counter
	lateDropped *metrics.Counter
	epochs      *metrics.Counter
	results     *metrics.Counter

	// durability counters/gauges
	walRecords      *metrics.Counter
	walBytes        *metrics.Counter
	walFsyncs       *metrics.Counter
	checkpoints     *metrics.Counter
	replayedRecords *metrics.Counter
	walFsyncMax     *metrics.Gauge
	walSegment      *metrics.Gauge
	ckptEpoch       *metrics.Gauge
	ckptAge         *metrics.Gauge

	// scrape-time gauges
	queueDepth  *metrics.Gauge
	particles   *metrics.Gauge
	lastEpochsN int64 // pinned-worker-local: epochs seen at last delta

	// latency histograms (lock-free; observed from handlers and the pinned
	// worker without coordination)
	ingestHist   *metrics.Histogram
	longpollHist *metrics.Histogram
	walFsyncHist *metrics.Histogram
	ckptHist     *metrics.Histogram
	epochHist    *metrics.Histogram

	// stageCum mirrors the trace recorder's cumulative per-stage totals into
	// Prometheus counters at scrape time (RaiseTo keeps them monotone across
	// evict/hydrate cycles, where the recorder restarts from zero).
	stageCum [trace.NumStages]*metrics.FloatCounter
}

// series suffixes a metric name with the session's label so every session
// owns its own Prometheus series while sharing the server's Set.
func (s *session) series(name string) string { return name + s.label }

// engine returns the resident runner (nil while evicted).
func (s *session) engine() *rfid.Runner { return s.eng.Load() }

// runnerStats returns live engine stats when resident, the eviction-time
// cache otherwise (zeros for a lazily-restored session before first touch).
func (s *session) runnerStats() rfid.RunnerStats {
	if r := s.eng.Load(); r != nil {
		return r.Stats()
	}
	if c := s.lastStats.Load(); c != nil {
		return c.st
	}
	return rfid.RunnerStats{}
}

// watermark is runnerStats().Watermark for stream acks, which go out once per
// batch: a resident runner answers without the pass over the tracked
// population that a full Stats makes to count particles.
func (s *session) watermark() int {
	if r := s.eng.Load(); r != nil {
		return r.Position().Watermark
	}
	return s.runnerStats().Watermark
}

// queryCount mirrors runnerStats for the registered-query count.
func (s *session) queryCount() int {
	if reg := s.reg.Load(); reg != nil {
		return reg.Count()
	}
	if c := s.lastStats.Load(); c != nil {
		return c.queries
	}
	return 0
}

// newSession builds a session around its resident engine and schedules its
// startup on the shared worker pool. cfg must already carry the session's
// effective settings (its own DataDir, queue size, ...); manifest is the
// creation request runner was built from over world, which hydration rebuilds
// it from.
func newSession(id string, cfg Config, deps sessionDeps, manifest api.CreateSessionRequest, world *rfid.World, runner *rfid.Runner) *session {
	s := buildSession(id, cfg, deps, manifest, phaseStarting)
	s.world = world
	s.install(runner)
	// Schedule startup (recovery for durable sessions) on the worker pool.
	s.sched.wake(s)
	return s
}

// install makes a freshly built runner the resident engine, with an empty
// query registry beside it (and on a replica an empty history registry).
// Wherever a runner becomes resident (creation, hydration, replica
// re-bootstrap) recovery then restores the engine and registry from disk.
func (s *session) install(runner *rfid.Runner) {
	s.observeRunner(runner)
	s.eng.Store(runner)
	s.reg.Store(s.newRegistry(runner))
	if s.life.load().replica() {
		hr := s.newRegistry(runner)
		hr.SetIDPrefix("h")
		s.histReg.Store(hr)
	}
}

// newRegistry returns an empty query registry whose history-mode queries
// evaluate over runner's time-travel ring ("no history" without one).
func (s *session) newRegistry(runner *rfid.Runner) *query.Registry {
	reg := query.NewRegistry(0)
	reg.SetHistorySource(runner)
	return reg
}

// newEvictedSession builds a session that boots directly in the evicted
// state: no engine, no registry, no WAL replay — just the manifest and the
// metric series. The first touch hydrates it. Used by boot restore once the
// resident set is full, which is what keeps a 10k-session restart from
// rebuilding 10k particle filters up front. cfg.DataDir must be set: the
// session restores from it.
func newEvictedSession(id string, cfg Config, deps sessionDeps, manifest api.CreateSessionRequest) *session {
	s := buildSession(id, cfg, deps, manifest, phaseEvicted)
	close(s.ready)
	deps.res.addEvicted()
	return s
}

// buildSession is the shared construction: struct, channels, metric series.
// The session starts in phase p, in the replica role on a follower node.
func buildSession(id string, cfg Config, deps sessionDeps, manifest api.CreateSessionRequest, p phase) *session {
	s := &session{
		id:           id,
		label:        fmt.Sprintf(`{session=%q}`, id),
		cfg:          cfg,
		manifest:     manifest,
		ops:          make(chan op, cfg.QueueSize),
		quit:         make(chan struct{}),
		ready:        make(chan struct{}),
		resultNotify: make(chan struct{}),
		set:          deps.set,
		sched:        deps.sched,
		res:          deps.res,
		node:         deps.node,
		repl:         deps.repl,
		start:        time.Now(),
	}
	s.log = cfg.Logger.With("session", id)
	l := primaryIn(p) // the initial state, set before the session is shared
	if deps.node.role.Load() == roleReplica {
		l = replicaIn(p)
	}
	s.life.word.Store(uint32(l))
	s.lastCkptEpoch.Store(-1)
	s.appliedEpoch.Store(-1)
	s.engineErrs = s.counter("rfidserve_engine_errors_total", "epoch-processing errors (failing epochs are skipped)")
	s.batches = s.counter("rfidserve_batches_total", "ingest batches accepted")
	s.streamConns = s.counter("rfidserve_stream_connections_total", "streaming ingest connections established")
	s.rejected = s.counter("rfidserve_batches_rejected_total", "ingest batches rejected by backpressure")
	s.readings = s.counter("rfidserve_readings_total", "raw tag readings accepted")
	s.lateDropped = s.counter("rfidserve_late_dropped_total", "records dropped for already-processed epochs")
	s.epochs = s.counter("rfidserve_epochs_total", "epochs processed by the inference engine")
	s.results = s.counter("rfidserve_query_results_total", "continuous-query result rows produced")
	s.walRecords = s.counter("rfidserve_wal_records_total", "records appended to the write-ahead log")
	s.walBytes = s.counter("rfidserve_wal_appended_bytes_total", "bytes appended to the write-ahead log (including framing)")
	s.walFsyncs = s.counter("rfidserve_wal_fsyncs_total", "write-ahead-log fsync calls")
	s.checkpoints = s.counter("rfidserve_checkpoints_total", "checkpoints durably written")
	s.replayedRecords = s.counter("rfidserve_recovery_replayed_records_total", "WAL records replayed during recovery")
	s.walFsyncMax = s.gauge("rfidserve_wal_fsync_max_seconds", "slowest WAL fsync observed")
	s.walSegment = s.gauge("rfidserve_wal_segment", "sequence number of the WAL segment open for appends")
	s.ckptEpoch = s.gauge("rfidserve_checkpoint_last_epoch", "last epoch covered by a durable checkpoint (-1 before the first)")
	s.ckptAge = s.gauge("rfidserve_checkpoint_age_seconds", "seconds since the last durable checkpoint")
	s.queueDepth = s.gauge("rfidserve_queue_depth", "ingest batches waiting in the bounded queue")
	s.particles = s.gauge("rfidserve_particles", "particles currently alive in the engine")
	s.ingestHist = s.histogram("rfidserve_ingest_seconds", "ingest request latency from arrival to 202 ack")
	s.longpollHist = s.histogram("rfidserve_longpoll_seconds", "long-poll results delivery latency (wait included)")
	s.walFsyncHist = s.histogram("rfidserve_wal_fsync_seconds", "write-ahead-log fsync latency")
	s.ckptHist = s.histogram("rfidserve_checkpoint_write_seconds", "durable checkpoint write latency")
	s.epochHist = s.histogram("rfidserve_epoch_seconds", "wall time per sealed epoch (tracing must be enabled)")
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		s.stageCum[st] = s.set.FloatCounter(s.stageSeries(st.String()),
			"cumulative seconds spent per epoch-processing stage")
	}
	return s
}

func (s *session) counter(name, help string) *metrics.Counter {
	return s.set.Counter(s.series(name), help)
}

func (s *session) gauge(name, help string) *metrics.Gauge {
	return s.set.Gauge(s.series(name), help)
}

func (s *session) histogram(name, help string) *metrics.Histogram {
	return s.set.Histogram(s.series(name), help)
}

// stageSeries builds the per-stage counter series. The stage label comes
// FIRST so every series of a session keeps the `session="id"}` suffix that
// removeSession drops by.
func (s *session) stageSeries(stage string) string {
	return fmt.Sprintf(`rfidserve_epoch_stage_seconds_total{stage=%q,%s`, stage, s.label[1:])
}

// observeRunner wires a freshly resident runner's trace recorder into the
// session's metric surface: every committed epoch lands in the epoch-latency
// histogram. The hook runs under the runner's mutex on the pinned worker, so
// it must stay cheap and must not call back into the runner.
func (s *session) observeRunner(r *rfid.Runner) {
	rec := r.TraceRecorder()
	if rec == nil {
		return
	}
	rec.SetOnCommit(func(et trace.EpochTrace) {
		s.epochHist.ObserveNanos(int64(et.Wall))
	})
}

// resultsChan returns the channel long-poll readers wait on; it is closed (and
// replaced) the next time results are buffered or removed. Grab the channel
// BEFORE checking the registry, so a concurrent notify cannot be missed.
func (s *session) resultsChan() <-chan struct{} {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	return s.resultNotify
}

// notifyResults wakes every long-poll reader waiting for this session.
func (s *session) notifyResults() {
	s.notifyMu.Lock()
	close(s.resultNotify)
	s.resultNotify = make(chan struct{})
	s.notifyMu.Unlock()
}

// waitReady blocks until the session finished starting up (for durable
// sessions: until recovery completed) and returns the startup error, if any.
func (s *session) waitReady(done <-chan struct{}) error {
	select {
	case <-s.ready:
		return s.life.startErr()
	case <-done:
		return fmt.Errorf("serve: canceled waiting for session %q", s.id)
	}
}

// stop shuts the session down; only the first call does anything. A graceful
// stop is the durable shutdown sequence: the pinned worker seals the current
// epoch, feeds the resulting events to the registered queries, writes a final
// checkpoint and closes the WAL. Batches still queued behind the shutdown are
// dropped; new ingests fail with 503. A stop that is not graceful is the
// crash-simulation hook the recovery tests use: no final seal, no final
// checkpoint, the WAL is left exactly as the last append left it — what a
// kill -9 would leave behind (an in-flight dispatch finishes its current op).
func (s *session) stop(graceful bool) {
	if !s.life.markClosing() {
		return
	}
	// Disconnect any active stream first, so its reader cannot keep feeding
	// batches behind the shutdown op (clients reconnect and are refused).
	if sc := s.stream.Load(); sc != nil {
		sc.kill()
	}
	// An EVICTED session closes at once, without hydrating: its durable state
	// is its checkpoint plus its WAL, which the eviction closed — the fast path
	// DELETE /v1/sessions/{sid} relies on. Under the pin so it cannot race a
	// dispatch that is mid-hydration; queued ops (they would have hydrated)
	// are dropped, as ops queued behind the shutdown op are.
	s.pinMu.Lock()
	cur := s.life.load()
	evicted := cur.phase() == phaseEvicted
	if evicted {
		s.transition(cur, cur.in(phaseClosed), nil)
	}
	s.pinMu.Unlock()
	if graceful && !evicted {
		done := make(chan opResult, 1)
		select {
		case s.ops <- op{kind: opShutdown, done: done}:
			s.sched.wake(s)
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				s.log.Warn("graceful shutdown timed out; forcing")
			}
		default:
			// Queue full (or the pool wedged): skip the graceful pass.
			s.log.Warn("op queue full at shutdown; skipping final checkpoint")
		}
	}
	// Release every waiter, wait out the in-flight dispatch (it stops after
	// its current op) and close the session under the pin: no worker touches
	// its engine or WAL again.
	close(s.quit)
	s.pinMu.Lock()
	if cur := s.life.load(); cur.phase() != phaseClosed {
		s.transition(cur, cur.in(phaseClosed), nil)
	}
	s.pinMu.Unlock()
	// A graceful pass closed the WAL in shutdownDurable; otherwise release it
	// here — a replica's mirror as much as a primary's log — as the only
	// writer left (a plain close flushes nothing the kernel does not already
	// have, so kill -9 semantics are preserved).
	if err := s.closeWAL(); err != nil {
		s.log.Error("closing wal failed", "err", err)
	}
	s.res.drop(s, evicted)
}

// stopped reports whether stop released the waiters: no worker may run the
// session any more. (Until then a session the shutdown op closed drains,
// refusing the ops queued behind it.)
func (s *session) stopped() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// handleOp runs one op under the session pin.
func (s *session) handleOp(o op) opResult {
	cur := s.life.load()
	switch cur.phase() {
	case phaseFailed:
		return opResult{err: fmt.Errorf("session failed to recover: %v", s.life.cause)}
	case phaseClosed:
		// An op that slipped into the queue behind the shutdown op must not
		// be applied: the final checkpoint is already written and the WAL is
		// closed, so applying (and worse, acking) it would lose the data on
		// the next restart.
		if o.done == nil {
			s.log.Warn("dropping op queued behind shutdown")
		}
		return opResult{err: fmt.Errorf("session is shut down")}
	}
	switch o.kind {
	case opShutdown:
		s.shutdownDurable()
		s.syncWALMetrics()
		return opResult{}
	case opFence:
		// Nothing to do: completing the op proves every earlier op applied
		// (and dispatch hydrated the session first if it was evicted).
		return opResult{}
	case opReplApply:
		return s.handleReplApply(o.repl)
	case opReplBootstrap:
		return s.handleReplBootstrap(o.repl)
	case opReplPromote:
		return s.handleReplPromote()
	}
	if cur.replica() {
		// Defense in depth: the HTTP layer already refuses writes on a
		// replica, but an op that slipped through (e.g. queued just before a
		// demotion) must not mutate state the primary does not know about.
		return opResult{err: fmt.Errorf("session %q is a replica (read-only)", s.id)}
	}
	// Dispatch hydrated an evicted session, so it is serving: resident.
	r, reg := s.eng.Load(), s.reg.Load()
	res, ok := s.mutate(r, reg, o.rec)
	if !ok {
		if o.sb != nil {
			// A stream batch has no done channel; the refusal terminates the
			// stream instead (the batch stays unacknowledged, so the client
			// resends it on reconnect).
			o.sb.conn.fatal(api.ErrInternal, fmt.Sprintf("wal append: %v", res.err), 0)
		}
		return res
	}
	s.maybeCheckpoint()
	s.syncWALMetrics()
	if o.sb != nil {
		// Recycle the batch and advance the ack mark — strictly after the WAL
		// append and application above, so the ack the writer sends is a
		// durability receipt. Epoch-processing errors are NOT refusals (the
		// runner skips failing epochs on the HTTP path too), so the batch is
		// acknowledged all the same.
		s.batches.Inc()
		o.sb.conn.applied(o.sb)
	}
	return res
}

// mutate is the one way live traffic changes replicated state: write-ahead,
// apply, account. The record is appended to the WAL first (a refused append
// refuses the mutation — ok is false and nothing was applied — rather than
// accept data that would vanish on crash), then applied by the same
// applyWALRecord that recovery and replicas interpret the log with, so
// replaying the log reproduces the live run by construction. Pinned worker
// only.
func (s *session) mutate(r *rfid.Runner, reg *query.Registry, rec wal.Record) (res opResult, ok bool) {
	if rec.Type == wal.RecSeal {
		// Watermark-driven sealing is deterministic from the batches alone and
		// needs no record; a client-initiated flush is an external event and is
		// logged with the horizon it seals to. One that would change nothing
		// (no epoch buffered, no held-back windows to flush) is not a mutation.
		pos := r.Position()
		if pos.Watermark < pos.NextEpoch && !rec.FlushWindows {
			return opResult{}, true
		}
		rec.UpTo = pos.Watermark
	}
	if s.wal != nil {
		t0 := time.Now()
		if err := s.wal.Append(rec); err != nil {
			s.engineErrs.Inc()
			s.log.Error("wal append failed", "record", rec.Type, "err", err)
			return opResult{err: err}, false
		}
		r.TraceRecorder().Add(trace.StageWALAppend, time.Since(t0))
	}
	res, err := s.applyWALRecord(r, reg, rec)
	if err != nil {
		return opResult{err: err}, false
	}
	s.account(r, res)
	return res, true
}

// account books an applied record on the session's counters and wakes the
// long-poll readers it gave something to see. Recovery replay applies records
// without it: those were accounted when they were first applied, so the
// counters count each reading once across evict/hydrate cycles. Pinned worker
// only.
func (s *session) account(r *rfid.Runner, res opResult) {
	s.readings.Add(res.report.Readings)
	s.lateDropped.Add(res.report.LateDropped)
	s.results.Add(res.results)
	if res.results > 0 || res.wake {
		s.notifyResults()
	}
	if n := int64(r.Position().Epochs); n > s.lastEpochsN {
		s.epochs.Add(int(n - s.lastEpochsN))
		s.lastEpochsN = n
	}
}

// call places o on the bounded queue, waiting up to the session's IngestWait
// for space, wakes the scheduler and waits for the pinned worker's result.
// The error is why the op never ran: the queue stayed full
// (errBackpressure), the caller canceled (errCanceled) or the session
// stopped (errSessionClosed).
func (s *session) call(o op, cancel <-chan struct{}) (opResult, error) {
	o.done = make(chan opResult, 1)
	timer := time.NewTimer(s.cfg.IngestWait)
	defer timer.Stop()
	select {
	case s.ops <- o:
		s.sched.wake(s)
	case <-cancel:
		return opResult{}, errCanceled
	case <-timer.C:
		return opResult{}, errBackpressure
	}
	select {
	case res := <-o.done:
		return res, nil
	case <-s.quit:
		return opResult{}, errSessionClosed
	case <-cancel:
		return opResult{}, errCanceled
	}
}

// scrapeGauges refreshes the gauges derived from live state at scrape time.
func (s *session) scrapeGauges() {
	st := s.runnerStats()
	s.queueDepth.Set(float64(len(s.ops)))
	s.particles.Set(float64(st.Particles))
	s.ckptEpoch.Set(float64(s.lastCkptEpoch.Load()))
	if nanos := s.lastCkptNanos.Load(); nanos > 0 {
		s.ckptAge.Set(time.Since(time.Unix(0, nanos)).Seconds())
	}
	if r := s.eng.Load(); r != nil {
		if rec := r.TraceRecorder(); rec != nil {
			cum := rec.CumulativeStages()
			for st, fc := range s.stageCum {
				fc.RaiseTo(cum[st].Seconds())
			}
		}
	}
}

// Sentinel queueing errors; the HTTP layer maps them onto 503 responses.
var (
	errBackpressure  = fmt.Errorf("op queue full (backpressure); retry")
	errCanceled      = fmt.Errorf("request canceled")
	errSessionClosed = fmt.Errorf("session closed")
)
