package serve

import (
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
		dec := snap.PayloadDecoder()
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
	// The same holds with no readable checkpoint at all (every one corrupt,
	// or written in a payload version newer than this binary's) once the log
	// no longer starts at its first segment.
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
		} else if segs[0] != 1 {
			return fmt.Errorf("no readable checkpoint, and wal segments 1..%d are missing — they were garbage-collected behind a checkpoint this binary cannot read (corrupt, or of a later payload version); restore from backup", segs[0]-1)
		}
		for i := 1; i < len(tail); i++ {
			if tail[i] != tail[i-1]+1 {
				return fmt.Errorf("wal segments %d..%d are missing; the log cannot reproduce the run", tail[i-1]+1, tail[i]-1)
			}
		}
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
	epoch := s.eng.Load().Position().NextEpoch - 1
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
	// The run is over: seal what is buffered, as a flush would (a refused or
	// failing seal is logged by mutate and the checkpoint below still lands).
	s.mutate(r, s.reg.Load(), wal.Record{Type: wal.RecSeal})
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
