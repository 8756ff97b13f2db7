package rfid

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stream"
)

// RunnerConfig tunes the continuous driving behavior of a Runner on top of
// the engine Config.
type RunnerConfig struct {
	// HoldEpochs is the lateness slack: an epoch t is sealed and processed
	// only once the ingest watermark (the largest epoch time seen so far)
	// reaches t + HoldEpochs. Zero processes an epoch as soon as any data
	// for it has arrived — right when each ingest batch carries whole
	// epochs; use one or more when a single epoch's readings may be split
	// across batches.
	HoldEpochs int
	// HistoryEpochs, when positive, keeps a bounded ring of per-epoch MAP
	// location snapshots: after each sealed epoch the runner records every
	// tracked object's posterior-mean location, retaining the newest
	// HistoryEpochs epochs. The ring backs time-travel reads (HistoryEvents,
	// the serving layer's GET /snapshot?epoch=N and history-mode queries) and
	// rides along in checkpoints. Zero disables history — and its per-epoch
	// estimate cost — entirely.
	HistoryEpochs int
	// TraceEpochs, when positive, enables epoch-stage tracing: the runner
	// creates a TraceRecorder retaining the last TraceEpochs sealed epochs
	// and threads it through the engine, timing decode, prologue, step,
	// estimate and seal for every epoch (the serving layer adds query-eval
	// and WAL-append). Zero disables tracing entirely — the kill switch; the
	// record path is allocation-free and tracing never changes output.
	TraceEpochs int
}

// RunnerStats extends the engine's work counters with the continuous
// driver's own bookkeeping.
type RunnerStats struct {
	// Stats are the underlying engine's cumulative counters.
	Stats
	// Particles is the number of particles currently alive in the engine.
	Particles int
	// BufferedEpochs is the number of ingested epochs not yet processed.
	BufferedEpochs int
	// NextEpoch is the first epoch time that has not been processed yet.
	NextEpoch int
	// Watermark is the largest epoch time seen on ingest (-1 before any
	// data).
	Watermark int
	// LateDropped counts readings and location reports that arrived for an
	// already-processed epoch and were discarded.
	LateDropped int
}

// RunnerPosition is where a Runner stands in its stream: the fields of
// RunnerStats that the serving layer reads after every batch.
type RunnerPosition struct {
	// Epochs is the number of epochs processed so far (Stats.Epochs).
	Epochs int
	// NextEpoch and Watermark are as in RunnerStats.
	NextEpoch int
	Watermark int
}

// IngestReport summarizes one Ingest call.
type IngestReport struct {
	// Readings and Locations are the numbers of accepted records.
	Readings  int
	Locations int
	// LateDropped is the number of records discarded because their epoch was
	// already processed.
	LateDropped int
	// Watermark is the ingest watermark after the call.
	Watermark int
}

// Runner drives a Pipeline continuously: instead of consuming a fixed trace,
// it accepts raw readings and reader-location reports incrementally, buffers
// them into epochs, and processes each epoch once the ingest watermark has
// moved past it (external clocking — the data, not a wall clock, advances
// time). All methods are safe for concurrent use, so a serving layer can
// ingest batches and answer snapshot reads from different goroutines; epoch
// processing is serialized internally, which preserves the engine's
// deterministic, seed-reproducible behavior.
type Runner struct {
	mu     sync.Mutex
	pipe   *Pipeline
	sync   *stream.Synchronizer
	hold   int
	next   int // first epoch time not yet processed
	mark   int // ingest watermark (max epoch time seen); -1 before any data
	late   int // late records dropped
	closed bool

	// histCap bounds the epoch-snapshot ring; history is the ring itself, in
	// ascending epoch order with a dead prefix [0:histStart) compacted
	// lazily (same amortized-O(1) eviction the query result buffers use).
	histCap   int
	history   []epochSnapshot
	histStart int

	// rec is the epoch-stage recorder (nil when tracing is disabled).
	rec *TraceRecorder
}

// epochSnapshot is one retained time-travel entry: the MAP location of every
// tracked object right after the epoch was sealed, in tag order.
type epochSnapshot struct {
	epoch  int
	events []Event
}

// NewRunner builds a Runner around a new Pipeline for cfg.
func NewRunner(cfg Config, rc RunnerConfig) (*Runner, error) {
	pipe, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if rc.HoldEpochs < 0 {
		rc.HoldEpochs = 0
	}
	if rc.HistoryEpochs < 0 {
		rc.HistoryEpochs = 0
	}
	rec := NewTraceRecorder(rc.TraceEpochs)
	pipe.SetTraceRecorder(rec)
	return &Runner{
		pipe:    pipe,
		sync:    stream.NewSynchronizer(),
		hold:    rc.HoldEpochs,
		mark:    -1,
		histCap: rc.HistoryEpochs,
		rec:     rec,
	}, nil
}

// TraceRecorder returns the runner's epoch-stage recorder; nil (a valid,
// disabled recorder) when RunnerConfig.TraceEpochs was zero. The serving
// layer uses it to accrue the query-eval and WAL-append stages and to serve
// trace snapshots.
func (r *Runner) TraceRecorder() *TraceRecorder { return r.rec }

// Ingest buffers a batch of raw readings and location reports. Records for
// epochs that were already processed are dropped (and counted); everything
// else is merged into the pending epochs. Ingest never processes epochs —
// call Advance (or Flush) to run the engine over the sealed ones.
func (r *Runner) Ingest(readings []Reading, locations []LocationReport) IngestReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := IngestReport{}
	for _, rd := range readings {
		if r.closed || rd.Time < r.next {
			rep.LateDropped++
			continue
		}
		r.sync.AddReading(rd)
		rep.Readings++
		if rd.Time > r.mark {
			r.mark = rd.Time
		}
	}
	for _, l := range locations {
		if r.closed || l.Time < r.next {
			rep.LateDropped++
			continue
		}
		r.sync.AddLocation(l)
		rep.Locations++
		if l.Time > r.mark {
			r.mark = l.Time
		}
	}
	r.late += rep.LateDropped
	rep.Watermark = r.mark
	return rep
}

// Advance seals and processes every pending epoch the watermark has moved
// past (epoch t is sealed once watermark >= t + HoldEpochs) and returns the
// location events those epochs emitted, in time order.
func (r *Runner) Advance() ([]Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mark < 0 {
		return nil, nil
	}
	return r.processUpTo(r.mark - r.hold)
}

// Flush processes every pending epoch regardless of the hold slack. It does
// not finalize the engine; ingest can continue afterwards (with anything
// older than the flushed epochs counting as late).
func (r *Runner) Flush() ([]Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.processUpTo(r.mark)
}

// processUpTo drains and runs the buffered epochs with time <= upTo. A
// failing epoch is skipped rather than aborting the loop — the epochs were
// already drained from the buffer, so stopping would silently lose the rest
// of the batch; the first error is returned alongside the events that did
// process. Caller holds r.mu.
func (r *Runner) processUpTo(upTo int) ([]Event, error) {
	var all []Event
	var firstErr error
	rec := r.rec
	if rec == nil {
		for _, ep := range r.sync.DrainUpTo(upTo) {
			events, err := r.pipe.ProcessEpoch(ep)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("epoch %d: %w", ep.Time, err)
			}
			if ep.Time+1 > r.next {
				r.next = ep.Time + 1
			}
			r.recordHistory(ep.Time)
			all = append(all, events...)
		}
		return all, firstErr
	}

	// Traced variant: identical control flow plus timestamps. Decode covers
	// the drain (attributed to the first epoch of the batch); each epoch's
	// wall time spans ProcessEpoch through seal, and the seal stage covers
	// the history snapshot and watermark bookkeeping.
	t0 := time.Now()
	epochs := r.sync.DrainUpTo(upTo)
	if len(epochs) > 0 {
		rec.Add(TraceStageDecode, time.Since(t0))
	}
	for _, ep := range epochs {
		tEp := time.Now()
		events, err := r.pipe.ProcessEpoch(ep)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("epoch %d: %w", ep.Time, err)
		}
		if ep.Time+1 > r.next {
			r.next = ep.Time + 1
		}
		tSeal := time.Now()
		r.recordHistory(ep.Time)
		rec.Add(TraceStageSeal, time.Since(tSeal))
		rec.Commit(ep.Time, time.Since(tEp))
		all = append(all, events...)
	}
	return all, firstErr
}

// recordHistory snapshots every tracked object's MAP location right after an
// epoch was sealed, appending to the bounded ring. Caller holds r.mu.
func (r *Runner) recordHistory(epoch int) {
	if r.histCap <= 0 {
		return
	}
	tags := r.pipe.TrackedObjects()
	snap := epochSnapshot{epoch: epoch, events: make([]Event, 0, len(tags))}
	sortTagIDs(tags)
	for _, id := range tags {
		loc, st, ok := r.pipe.Estimate(id)
		if !ok {
			continue
		}
		snap.events = append(snap.events, Event{Time: epoch, Tag: id, Loc: loc, Stats: st})
	}
	r.history = append(r.history, snap)
	if over := len(r.history) - r.histStart - r.histCap; over > 0 {
		r.histStart += over
	}
	if r.histStart > r.histCap {
		r.history = append([]epochSnapshot(nil), r.history[r.histStart:]...)
		r.histStart = 0
	}
}

// liveHistory returns the retained snapshots, oldest first. Caller holds
// r.mu.
func (r *Runner) liveHistory() []epochSnapshot { return r.history[r.histStart:] }

// HistoryBounds returns the oldest and newest retained history epochs; ok is
// false while no epoch has been recorded (or history is disabled). Together
// with HistoryEvents it implements query.HistorySource, so history-mode
// queries evaluate directly over the runner's ring.
func (r *Runner) HistoryBounds() (oldest, newest int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.liveHistory()
	if len(live) == 0 {
		return 0, 0, false
	}
	return live[0].epoch, live[len(live)-1].epoch, true
}

// HistoryEvents returns the per-object MAP location events recorded when the
// given epoch was sealed, in tag order, or ok == false outside the retained
// window. The returned slice is shared immutable state; callers must not
// modify it.
func (r *Runner) HistoryEvents(epoch int) ([]Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.liveHistory()
	// Snapshots are appended in strictly increasing epoch order but need not
	// be contiguous (epochs with no data are never sealed); binary search.
	lo, hi := 0, len(live)
	for lo < hi {
		mid := (lo + hi) / 2
		if live[mid].epoch < epoch {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(live) && live[lo].epoch == epoch {
		return live[lo].events, true
	}
	return nil, false
}

// sortTagIDs sorts tag ids in place (insertion sort: history snapshots are
// small and mostly sorted already, since TrackedObjects is first-seen order).
func sortTagIDs(ids []TagID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// SealTo seals and processes every buffered epoch with time <= upTo,
// regardless of the watermark or hold slack. It is the replay primitive the
// durability layer uses: an explicit flush is logged with its horizon, and
// recovery re-drives the exact same seal through SealTo, keeping the
// recovered epoch sequence identical to the original run's.
func (r *Runner) SealTo(upTo int) ([]Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.processUpTo(upTo)
}

// Close flushes all pending epochs, emits the engine's final location events
// for every tracked object, and marks the runner closed (subsequent ingests
// are dropped as late). The returned slice contains the events of the
// flushed epochs followed by the final flush.
func (r *Runner) Close() ([]Event, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil
	}
	events, err := r.processUpTo(r.mark)
	if err != nil {
		return events, err
	}
	r.closed = true
	return append(events, r.pipe.Finish()...), nil
}

// Snapshot returns the engine's current location estimate for a tag. It is
// safe to call concurrently with Ingest/Advance; reads observe the state
// after the most recently completed epoch.
func (r *Runner) Snapshot(id TagID) (Vec3, EventStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pipe.Estimate(id)
}

// ReaderSnapshot returns the current estimate of the true reader pose.
func (r *Runner) ReaderSnapshot() Pose {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pipe.ReaderEstimate()
}

// Tracked returns the ids of all objects the engine has seen so far.
func (r *Runner) Tracked() []TagID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pipe.TrackedObjects()
}

// Position returns the O(1) part of Stats, for callers on the per-batch path:
// a full Stats also counts the live particles, a pass over the tracked
// population.
func (r *Runner) Position() RunnerPosition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerPosition{Epochs: r.pipe.Stats().Epochs, NextEpoch: r.next, Watermark: r.mark}
}

// Stats returns the engine counters plus the driver's own bookkeeping.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Stats:          r.pipe.Stats(),
		Particles:      r.pipe.Particles(),
		BufferedEpochs: r.sync.Pending(),
		NextEpoch:      r.next,
		Watermark:      r.mark,
		LateDropped:    r.late,
	}
}
