package serve

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/rfid"
)

// The durability layer of the server: a write-ahead log of every ingested
// batch and explicit seal, periodic checkpoints of the full engine + query
// state, and crash recovery that restores the newest valid checkpoint and
// replays the WAL tail through the same deterministic epoch path — so a
// recovered server's snapshots, events and query results are byte-identical
// to an uninterrupted run's.
//
// Everything here runs under the session pin (recovery is the first act of a
// session's first dispatch, appends and checkpoints happen between ops), so
// the WAL and checkpoint files have exactly one writer and no locking.

// durable reports whether the server was configured with a data directory.
func (s *session) durable() bool { return s.cfg.DataDir != "" }

// serveStreamSection marks the serve-level checkpoint section holding the
// stream resume point, appended after the runner and registry state.
const serveStreamSection = "serve.stream"

// startup runs once, under the session pin, on the session's first dispatch:
// recover durable state if configured, then open the WAL for appends and move
// to serving. The returned error has already been recorded for WaitReady.
func (s *session) startup() error {
	defer close(s.ready)
	starting := s.life.load().in(phaseStarting)
	err := s.openDurable(starting.replica())
	if err != nil {
		err = fmt.Errorf("serve: session %q %w", s.id, err)
	}
	s.transition(starting, starting.in(phaseServing), err)
	return err
}

// openDurable recovers a durable session's state and opens its log: the WAL,
// or on a replica the mirror. Pinned worker only, at startup.
func (s *session) openDurable(replica bool) error {
	if !s.durable() {
		return nil
	}
	if err := s.recoverLocked(); err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	if replica {
		// A replica session never appends its own records: its log is a
		// mirror positioned at the end of the last whole mirrored frame —
		// exactly where the replay above stopped — and it resumes tailing the
		// primary from there.
		if err := s.openMirrorLocked(); err != nil {
			return fmt.Errorf("open mirror: %w", err)
		}
		return nil
	}
	lg, err := wal.Open(s.cfg.DataDir, s.walOptions())
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	s.wal = lg
	return nil
}

// walOptions are the options the session opens its log with, in either role.
func (s *session) walOptions() wal.Options {
	return wal.Options{
		Sync:         s.cfg.Fsync,
		SyncObserver: s.walFsyncHist.ObserveDuration,
	}
}

// recoverLocked restores the newest valid checkpoint (if any) and replays the
// WAL tail. Runs under the session pin, during startup or hydration.
func (s *session) recoverLocked() error {
	r, reg := s.eng.Load(), s.reg.Load()
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("create data dir: %w", err)
	}
	// With no checkpoint the log must start at its first segment.
	fromSeg := uint64(1)
	path, snap, ok, err := checkpoint.Latest(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("scan checkpoints: %w", err)
	}
	if ok {
		if err := s.restoreImage(r, reg, snap, path); err != nil {
			return err
		}
		fromSeg = snap.WALSegment
		s.lastCkptEpoch.Store(int64(snap.Epoch))
		s.lastCkptNanos.Store(time.Now().UnixNano())
	}

	// Replay the tail through applyWALRecord, the function that applied these
	// records when they were live, so the rebuilt state is byte-identical to
	// the pre-crash run — and a log that was serveable live never becomes
	// unrecoverable. No account step: the records were counted then.
	st, err := wal.Replay(s.cfg.DataDir, fromSeg, func(rec wal.Record) error {
		_, aerr := s.applyWALRecord(r, reg, rec)
		return aerr
	})
	s.replayedRecords.Add(st.Records)
	// The checkpoint GC deletes every WAL segment older than the newest
	// checkpoint's replay start. If that checkpoint file is later corrupted,
	// Latest falls back to an older one whose segments may be gone; with no
	// readable checkpoint at all (every one corrupt, or of a payload version
	// newer than this binary's) the log may no longer start at segment 1.
	// Either way the log cannot reproduce the run: fail loudly.
	switch {
	case errors.Is(err, wal.ErrSegmentGone) && ok:
		return fmt.Errorf("replay wal from segment %d (the checkpoint's replay start): %w — garbage-collected by a newer checkpoint that is no longer readable; restore from backup", fromSeg, err)
	case errors.Is(err, wal.ErrSegmentGone):
		return fmt.Errorf("no readable checkpoint, and the wal is incomplete (%w) — garbage-collected behind a checkpoint this binary cannot read (corrupt, or of a later payload version); restore from backup", err)
	case err != nil:
		return fmt.Errorf("replay wal: %w", err)
	}
	s.lastEpochsN = int64(r.Position().Epochs)
	// Seed the epochs counter with what recovery (re)built, but never
	// double-count: hydration recovers epochs the counter already saw before
	// the eviction (boot recovery starts from a zero counter, so this is the
	// full amount there).
	if d := s.lastEpochsN - s.epochs.Value(); d > 0 {
		s.epochs.Add(int(d))
	}
	return nil
}

// restoreImage restores the runner, the registry and the stream resume point
// from a session image (a checkpoint, or an eviction spill) read from path.
// The image must have been written under the running engine configuration.
func (s *session) restoreImage(r *rfid.Runner, reg *query.Registry, snap checkpoint.Snapshot, path string) error {
	if snap.Fingerprint != r.Fingerprint() {
		return fmt.Errorf("%s was produced under a different engine configuration (fingerprint %#x, running %#x)",
			path, snap.Fingerprint, r.Fingerprint())
	}
	dec := snap.PayloadDecoder()
	if err := r.RestoreState(dec); err != nil {
		return fmt.Errorf("restore runner from %s: %w", path, err)
	}
	if err := reg.RestoreState(dec); err != nil {
		return fmt.Errorf("restore query registry from %s: %w", path, err)
	}
	// The serve-level section (stream resume point) was appended to the
	// payload after the registry state; checkpoints written before it existed
	// simply end here, which is a valid empty resume point.
	if dec.Remaining() > 0 {
		dec.Section(serveStreamSection)
		seq := dec.Uvarint()
		if err := dec.Err(); err != nil {
			return fmt.Errorf("restore stream state from %s: %w", path, err)
		}
		s.lastStreamSeq.Store(seq)
	}
	return nil
}

// image encodes the runner, the registry and the stream resume point as the
// snapshot of epoch whose replay starts at WAL segment seg: the content of a
// checkpoint, and of an eviction spill. Pinned worker only.
func (s *session) image(epoch int, seg uint64) checkpoint.Snapshot {
	r, reg := s.eng.Load(), s.reg.Load()
	enc := checkpoint.NewEncoder()
	r.SaveState(enc)
	reg.SaveState(enc)
	enc.Section(serveStreamSection)
	enc.Uvarint(s.lastStreamSeq.Load())
	return checkpoint.Snapshot{
		Version:     checkpoint.Version,
		Fingerprint: r.Fingerprint(),
		Epoch:       epoch,
		WALSegment:  seg,
		Payload:     enc.Bytes(),
	}
}

// applyWALRecord applies one log record to the runner and the registry and
// reports what that did. It is the only interpretation of a record there is:
// live traffic (mutate), recovery replay and a replica applying shipped records
// all come through here, and nothing else drives the runner's ingest and seal
// paths or changes the replicated registry — which is what makes a recovered
// or replicated state byte-identical to the live run's at every position.
// res.err carries the outcomes that are not failures of the log: an epoch the
// engine could not process (skipped, counted and logged wherever the record
// is applied) and a registration the registry refuses (refused identically
// everywhere, so the registry ends in the same state). Only a registration
// that does not parse is returned as err, because the log then cannot mean
// what it meant when it was written. Pinned worker only.
func (s *session) applyWALRecord(r *rfid.Runner, reg *query.Registry, rec wal.Record) (res opResult, err error) {
	var events []rfid.Event
	switch rec.Type {
	case wal.RecBatch:
		// Stream batches carry their client-assigned sequence number in the
		// log (HTTP batches log 0): the resume point.
		if rec.StreamSeq > s.lastStreamSeq.Load() {
			s.lastStreamSeq.Store(rec.StreamSeq)
		}
		res.report = r.Ingest(rec.Readings, rec.Locations)
		events, res.err = r.Advance()
	case wal.RecSeal:
		events, res.err = r.SealTo(rec.UpTo)
	case wal.RecRegister:
		spec, perr := query.ParseSpec([]byte(rec.SpecJSON))
		if perr != nil {
			return res, fmt.Errorf("logged registration: %w", perr)
		}
		// History-mode registrations are records too: they evaluate against
		// the identically rebuilt history and buffer the same rows.
		res.info, res.err = reg.Register(spec)
		res.wake = res.info.Buffered > 0
		return res, nil
	case wal.RecUnregister:
		res.found = reg.Unregister(rec.QueryID)
		res.wake = res.found
		return res, nil
	default: // RecCheckpoint and future types: informational
		return res, nil
	}
	if res.err != nil {
		s.engineErrs.Inc()
		s.log.Warn("epoch processing failed; epoch skipped", "err", res.err)
	}
	// Query evaluation runs on the events of epochs that already sealed, so
	// its time lands on the most recently committed trace.
	t0 := time.Now()
	res.results = reg.Feed(events)
	if rec.FlushWindows {
		// Flushing the held-back windows mutates operator state and result
		// sequences, which is why the seal record carries the flag.
		res.results += reg.FlushAll()
	}
	r.TraceRecorder().AddToLast(trace.StageQueryEval, time.Since(t0))
	res.events = len(events)
	return res, nil
}

// maybeCheckpoint writes a checkpoint when enough epochs have been processed
// since the last one. Pinned worker only.
func (s *session) maybeCheckpoint() {
	if s.wal == nil || s.life.load().replica() {
		return
	}
	epochs := int64(s.eng.Load().Position().Epochs)
	if epochs-s.epochsAtCkpt < int64(s.cfg.CheckpointEvery) {
		return
	}
	if err := s.writeCheckpoint(); err != nil {
		s.engineErrs.Inc()
		s.log.Error("checkpoint write failed", "err", err)
	}
}

// writeCheckpoint rotates the WAL, snapshots the runner + registry and
// persists the checkpoint atomically; on success older checkpoints and fully
// covered WAL segments are garbage-collected. Pinned worker only.
func (s *session) writeCheckpoint() error {
	t0 := time.Now()
	seg, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	epoch := max(s.eng.Load().Position().NextEpoch-1, 0)
	if err := s.persistCheckpoint(t0, epoch, seg); err != nil {
		return err
	}
	// Best-effort bookkeeping: a marker in the new segment and GC of what the
	// checkpoint supersedes.
	_ = s.wal.Append(wal.Record{Type: wal.RecCheckpoint, Epoch: epoch})
	// Replication slot: segments a connected follower has not acknowledged yet
	// are held back from GC, so a briefly-lagging follower keeps tailing
	// instead of being forced through a full re-bootstrap. A disconnected
	// follower holds nothing back (it re-bootstraps from this checkpoint).
	gcSeg := seg
	if min, ok := s.repl.minAckedSegment(s.id); ok && min < gcSeg {
		gcSeg = min
	}
	if err := s.wal.RemoveSegmentsBefore(gcSeg); err != nil {
		s.log.Warn("pruning covered wal segments failed", "err", err)
	}
	return nil
}

// persistCheckpoint snapshots the runner, the registry and the stream resume
// point as the checkpoint of epoch whose replay starts at WAL segment seg,
// writes it atomically and prunes older checkpoints. A primary calls it when
// it checkpoints and a replica at the shipped marker of that moment; the
// engine states are equal then and the encoder is deterministic, so the two
// files are byte-identical. Pinned worker only.
func (s *session) persistCheckpoint(t0 time.Time, epoch int, seg uint64) error {
	if _, err := checkpoint.Write(s.cfg.DataDir, s.image(epoch, seg)); err != nil {
		return err
	}
	s.ckptHist.ObserveDuration(time.Since(t0))
	s.epochsAtCkpt = int64(s.eng.Load().Position().Epochs)
	s.lastCkptEpoch.Store(int64(epoch))
	s.lastCkptNanos.Store(time.Now().UnixNano())
	s.checkpoints.Inc()
	if err := checkpoint.Prune(s.cfg.DataDir, keepCheckpoints); err != nil {
		s.log.Warn("pruning old checkpoints failed", "err", err)
	}
	return nil
}

// shutdownDurable seals the current epoch, writes a final checkpoint and
// closes the WAL — the graceful-shutdown sequence SIGTERM triggers. Pinned
// worker only. On an evicted session there is nothing to do: its durable
// state is its checkpoint plus its WAL, which the eviction closed (sealing
// would require hydrating a session that is being torn down). A replica only
// closes its mirror: no seal, no checkpoint — the mirrored directory must
// stay byte-exact with what the primary shipped.
func (s *session) shutdownDurable() {
	cur := s.life.load()
	defer s.transition(cur, cur.in(phaseClosed), nil)
	if r := s.eng.Load(); r != nil && !cur.replica() {
		// The run is over: seal what is buffered, as a flush would (a refused
		// or failing seal is logged by mutate and the checkpoint below still
		// lands).
		s.mutate(r, s.reg.Load(), wal.Record{Type: wal.RecSeal})
		if s.wal != nil {
			if err := s.writeCheckpoint(); err != nil {
				s.log.Error("final checkpoint failed", "err", err)
			}
		}
	}
	if err := s.closeWAL(); err != nil {
		s.log.Error("closing wal failed", "err", err)
	}
}

// closeWAL closes the session's log, in either role, and drops it. Pinned
// worker, or stop once no worker runs the session.
func (s *session) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// syncWALMetrics mirrors the counters of the WAL (on a replica, of its
// mirror) into the metric set (counters take deltas so they stay monotone).
// Pinned worker only.
func (s *session) syncWALMetrics() {
	if s.wal == nil {
		return
	}
	st := s.wal.Stats()
	s.walRecords.Add(int(st.AppendedRecords - s.lastWal.AppendedRecords))
	s.walBytes.Add(int(st.AppendedBytes - s.lastWal.AppendedBytes))
	s.walFsyncs.Add(int(st.Fsyncs - s.lastWal.Fsyncs))
	s.walFsyncMax.Set(st.MaxFsyncLatency.Seconds())
	s.walSegment.Set(float64(st.Segment))
	s.lastWal = st
}
