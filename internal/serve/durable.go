package serve

import (
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/query"
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

// serverState is a session's lifecycle, and — derived from the sessions'
// (see Server.state) — the one /v1/healthz reports for the server.
type serverState int32

const (
	// stateRecovering: the pinned worker is restoring a checkpoint and
	// replaying the WAL (startup or hydration); ingest and flush requests
	// queue behind recovery.
	stateRecovering serverState = iota
	// stateServing: normal operation.
	stateServing
	// stateFailed: recovery failed; the server answers health checks and
	// rejects everything else.
	stateFailed
	// stateClosed: graceful shutdown completed.
	stateClosed
	// stateEvicted: the session's engine has been spilled to its checkpoint
	// and released from memory; the first touch hydrates it back to serving.
	stateEvicted
)

// String implements fmt.Stringer.
func (s serverState) String() string {
	switch s {
	case stateRecovering:
		return "recovering"
	case stateServing:
		return "serving"
	case stateFailed:
		return "failed"
	case stateClosed:
		return "closed"
	case stateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// durable reports whether the server was configured with a data directory.
func (s *session) durable() bool { return s.cfg.DataDir != "" }

// serveStreamSection marks the serve-level checkpoint section holding the
// stream resume point, appended after the runner and registry state.
const serveStreamSection = "serve.stream"

// startup runs once, under the session pin, on the session's first dispatch:
// recover durable state if configured, then open the WAL for appends and flip
// to serving. The returned error has already been recorded for WaitReady.
func (s *session) startup() error {
	defer close(s.ready)
	if !s.durable() {
		s.state.Store(int32(stateServing))
		return nil
	}
	if err := s.recoverLocked(); err != nil {
		s.readyErr = fmt.Errorf("serve: session %q recovery failed: %w", s.id, err)
		s.fail(s.readyErr)
		return s.readyErr
	}
	if s.replica.Load() {
		// A replica session never appends its own records: instead of a Log it
		// opens a Mirror positioned at the end of the last whole mirrored
		// frame — exactly where the replay above stopped — and resumes tailing
		// the primary from there.
		if err := s.openMirrorLocked(); err != nil {
			s.readyErr = fmt.Errorf("serve: session %q open mirror: %w", s.id, err)
			s.fail(s.readyErr)
			return s.readyErr
		}
		s.state.Store(int32(stateServing))
		return nil
	}
	lg, err := wal.Open(s.cfg.DataDir, s.walOptions())
	if err != nil {
		s.readyErr = fmt.Errorf("serve: session %q open wal: %w", s.id, err)
		s.fail(s.readyErr)
		return s.readyErr
	}
	s.wal = lg
	s.state.Store(int32(stateServing))
	return nil
}

// walOptions are the options the session opens its log (or, on a replica, its
// mirror) with.
func (s *session) walOptions() wal.Options {
	return wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Sync:         s.cfg.Fsync,
		SyncEvery:    s.cfg.FsyncInterval,
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
	var fromSeg uint64
	path, snap, ok, err := checkpoint.Latest(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("scan checkpoints: %w", err)
	}
	if ok {
		if snap.Fingerprint != r.Fingerprint() {
			return fmt.Errorf("checkpoint %s was produced under a different engine configuration (fingerprint %#x, running %#x)",
				path, snap.Fingerprint, r.Fingerprint())
		}
		dec := checkpoint.NewDecoder(snap.Payload)
		if err := r.RestoreState(dec); err != nil {
			return fmt.Errorf("restore runner from %s: %w", path, err)
		}
		if err := reg.RestoreState(dec); err != nil {
			return fmt.Errorf("restore query registry from %s: %w", path, err)
		}
		// The serve-level section (stream resume point) was appended to the
		// payload after the registry state; checkpoints written before it
		// existed simply end here, which is a valid empty resume point.
		if dec.Remaining() > 0 {
			dec.Section(serveStreamSection)
			seq := dec.Uvarint()
			if err := dec.Err(); err != nil {
				return fmt.Errorf("restore stream state from %s: %w", path, err)
			}
			s.lastStreamSeq.Store(seq)
		}
		fromSeg = snap.WALSegment
		s.lastCkptEpoch.Store(int64(snap.Epoch))
		s.lastCkptNanos.Store(time.Now().UnixNano())
	}

	// The checkpoint GC deletes every WAL segment older than the newest
	// checkpoint's replay start. If that checkpoint file is later corrupted,
	// Latest falls back to an older one whose segments may be gone — replay
	// would then silently skip the gap and recover wrong state. Fail loudly
	// instead: a missing-segment gap means the log cannot reproduce the run.
	if segs, err := wal.Segments(s.cfg.DataDir); err != nil {
		return fmt.Errorf("scan wal segments: %w", err)
	} else if len(segs) > 0 {
		tail := segs
		if ok {
			for len(tail) > 0 && tail[0] < fromSeg {
				tail = tail[1:]
			}
			if len(tail) == 0 || tail[0] != fromSeg {
				return fmt.Errorf("wal segment %d (the checkpoint's replay start) is missing — the segments were garbage-collected by a newer checkpoint that is no longer readable; restore from backup", fromSeg)
			}
		}
		for i := 1; i < len(tail); i++ {
			if tail[i] != tail[i-1]+1 {
				return fmt.Errorf("wal segments %d..%d are missing; the log cannot reproduce the run", tail[i-1]+1, tail[i]-1)
			}
		}
	}

	// Replay the tail through the exact paths live ingestion uses: batches
	// re-ingest and advance the watermark, explicit seals re-seal the same
	// horizon (and window flush), so the rebuilt state is byte-identical to
	// the pre-crash run. Epoch-processing errors are handled exactly as the
	// live path handles them — counted and logged, the failing epoch skipped
	// — so a log that was serveable live never becomes unrecoverable.
	st, err := wal.Replay(s.cfg.DataDir, fromSeg, func(rec wal.Record) error {
		_, _, aerr := s.applyWALRecord(r, reg, rec)
		return aerr
	})
	s.replayedRecords.Add(st.Records)
	if err != nil {
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

// applyWALRecord applies one logged record through the exact paths live
// ingestion uses. It is the single interpretation of the log, shared by
// recovery replay and the replication apply path (a replica applying shipped
// records runs the same code a crashed primary runs at restart, which is what
// makes replica state byte-identical to the primary at every position).
// Epoch-processing errors are counted and logged but not returned — the live
// path skips failing epochs too; only a registration that cannot parse is
// fatal, because the log then cannot mean what it meant live. Pinned worker
// only.
func (s *session) applyWALRecord(r *rfid.Runner, reg *query.Registry, rec wal.Record) (events, rows int, err error) {
	switch rec.Type {
	case wal.RecBatch:
		if rec.StreamSeq > s.lastStreamSeq.Load() {
			s.lastStreamSeq.Store(rec.StreamSeq)
		}
		r.Ingest(rec.Readings, rec.Locations)
		evs, aerr := r.Advance()
		rows = reg.Feed(evs)
		events = len(evs)
		if aerr != nil {
			s.engineErrs.Inc()
			s.log.Warn("replay epoch processing failed; epoch skipped", "err", aerr)
		}
	case wal.RecSeal:
		evs, serr := r.SealTo(rec.UpTo)
		rows = reg.Feed(evs)
		events = len(evs)
		if rec.FlushWindows {
			rows += reg.FlushAll()
		}
		if serr != nil {
			s.engineErrs.Inc()
			s.log.Warn("replay epoch processing failed; epoch skipped", "err", serr)
		}
	case wal.RecRegister:
		spec, perr := query.ParseSpec([]byte(rec.SpecJSON))
		if perr != nil {
			return 0, 0, fmt.Errorf("replay registration: %w", perr)
		}
		// A registration that failed live (e.g. a history range that had
		// already been evicted) fails identically here; either way the
		// registry ends in the same state, so the error is not fatal.
		if _, rerr := reg.Register(spec); rerr != nil {
			s.log.Warn("replay registration refused (matching the live refusal)", "err", rerr)
		}
	case wal.RecUnregister:
		reg.Unregister(rec.QueryID)
	}
	return events, rows, nil // RecCheckpoint and future types: informational
}

// logBatch appends an ingest batch to the WAL before the engine applies it
// (the write-ahead ordering). Pinned worker only.
func (s *session) logBatch(o op) error {
	if s.wal == nil {
		return nil
	}
	rec := wal.Record{Type: wal.RecBatch, Readings: o.readings, Locations: o.locations}
	if o.sb != nil {
		// Stream batches carry their client-assigned sequence number into the
		// log (HTTP batches log 0), so recovery rebuilds the resume point.
		rec.StreamSeq = o.sb.seq
	}
	return s.wal.Append(rec)
}

// logSeal appends an explicit-seal record with the horizon a flush is about
// to process (and whether it also flushes the queries' held-back windows).
// Watermark-driven sealing is deterministic from the batches alone and needs
// no record; client-initiated flushes are external events and must be logged
// to replay identically.
func (s *session) logSeal(upTo int, flushWindows bool) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Append(wal.Record{Type: wal.RecSeal, UpTo: upTo, FlushWindows: flushWindows})
}

// handleRegisterOp applies a query registration under the session pin:
// write-ahead first (so the registration survives a crash with its id and
// sequence numbers), then register. History-mode registrations are also
// logged — replay re-evaluates them against the identically rebuilt history
// ring, reproducing the same rows.
func (s *session) handleRegisterOp(o op) opResult {
	if s.wal != nil {
		if err := s.wal.Append(wal.Record{Type: wal.RecRegister, SpecJSON: o.registerJSON}); err != nil {
			s.engineErrs.Inc()
			s.log.Error("wal register append failed", "err", err)
			return opResult{err: err}
		}
	}
	info, err := s.reg.Load().Register(*o.register)
	if err == nil && info.Buffered > 0 {
		// History-mode queries buffer their full result set at registration.
		s.notifyResults()
	}
	s.syncWALMetrics()
	return opResult{info: info, err: err}
}

// handleUnregisterOp applies a query removal under the session pin,
// write-ahead first.
func (s *session) handleUnregisterOp(o op) opResult {
	if s.wal != nil {
		if err := s.wal.Append(wal.Record{Type: wal.RecUnregister, QueryID: o.unregister}); err != nil {
			s.engineErrs.Inc()
			s.log.Error("wal unregister append failed", "err", err)
			return opResult{err: err}
		}
	}
	found := s.reg.Load().Unregister(o.unregister)
	if found {
		// Wake long-poll readers so they observe the deletion promptly.
		s.notifyResults()
	}
	s.syncWALMetrics()
	return opResult{found: found}
}

// maybeCheckpoint writes a checkpoint when enough epochs have been processed
// since the last one. Pinned worker only.
func (s *session) maybeCheckpoint() {
	if s.wal == nil {
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
	epoch := s.eng.Load().Stats().NextEpoch - 1
	if epoch < 0 {
		epoch = 0
	}
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
	r, reg := s.eng.Load(), s.reg.Load()
	enc := checkpoint.NewEncoder()
	r.SaveState(enc)
	reg.SaveState(enc)
	enc.Section(serveStreamSection)
	enc.Uvarint(s.lastStreamSeq.Load())
	snap := checkpoint.Snapshot{
		Version:     checkpoint.Version,
		Fingerprint: r.Fingerprint(),
		Epoch:       epoch,
		WALSegment:  seg,
		Payload:     enc.Bytes(),
	}
	if _, err := checkpoint.Write(s.cfg.DataDir, snap); err != nil {
		return err
	}
	s.ckptHist.ObserveDuration(time.Since(t0))
	s.epochsAtCkpt = int64(r.Position().Epochs)
	s.lastCkptEpoch.Store(int64(epoch))
	s.lastCkptNanos.Store(time.Now().UnixNano())
	s.checkpoints.Inc()
	if err := checkpoint.Prune(s.cfg.DataDir, s.cfg.KeepCheckpoints); err != nil {
		s.log.Warn("pruning old checkpoints failed", "err", err)
	}
	return nil
}

// shutdownDurable seals the current epoch, writes a final checkpoint and
// closes the WAL — the graceful-shutdown sequence SIGTERM triggers. Pinned
// worker only. On an evicted session there is nothing to do: its durable
// state already equals the checkpoint written at eviction and its WAL is
// closed (sealing would require hydrating a session that is being torn down).
func (s *session) shutdownDurable() {
	if s.replica.Load() {
		// A replica owns no log of its own: flush the mirror and stop. No
		// seal, no checkpoint — the mirrored directory must stay byte-exact
		// with what the primary shipped.
		if s.mirror != nil {
			if err := s.mirror.Sync(); err != nil {
				s.log.Error("syncing mirror at shutdown failed", "err", err)
			}
			if err := s.mirror.Close(); err != nil {
				s.log.Error("closing mirror failed", "err", err)
			}
			s.mirror = nil
		}
		s.state.Store(int32(stateClosed))
		return
	}
	r := s.eng.Load()
	if r == nil {
		s.state.Store(int32(stateClosed))
		return
	}
	if st := r.Stats(); st.BufferedEpochs > 0 {
		if err := s.logSeal(st.Watermark, false); err != nil {
			s.log.Error("logging the shutdown seal failed", "err", err)
		}
		events, err := r.SealTo(st.Watermark)
		if err != nil {
			s.log.Warn("sealing at shutdown failed", "err", err)
		}
		rows := s.reg.Load().Feed(events)
		s.events.Add(len(events))
		s.results.Add(rows)
	}
	if s.wal != nil {
		if err := s.writeCheckpoint(); err != nil {
			s.log.Error("final checkpoint failed", "err", err)
		}
		if err := s.wal.Close(); err != nil {
			s.log.Error("closing wal failed", "err", err)
		}
		s.wal = nil
	}
	s.state.Store(int32(stateClosed))
}

// syncWALMetrics mirrors the counters of the WAL — on a replica, of the mirror
// that stands in for it — into the metric set (counters take deltas so they
// stay monotone). Pinned worker only.
func (s *session) syncWALMetrics() {
	var st wal.Stats
	switch {
	case s.wal != nil:
		st = s.wal.Stats()
	case s.mirror != nil:
		st = s.mirror.Stats()
	default:
		return
	}
	s.walRecords.Add(int(st.AppendedRecords - s.lastWal.AppendedRecords))
	s.walBytes.Add(int(st.AppendedBytes - s.lastWal.AppendedBytes))
	s.walFsyncs.Add(int(st.Fsyncs - s.lastWal.Fsyncs))
	s.walFsyncMax.Set(st.MaxFsyncLatency.Seconds())
	s.walSegment.Set(float64(st.Segment))
	s.lastWal = st
}
