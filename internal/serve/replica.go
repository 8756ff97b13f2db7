package serve

// The replica side of WAL shipping: a session on a follower node mirrors the
// primary's log byte-for-byte (s.wal, opened by wal.OpenMirror and written
// with Log.AppendAt), applies every shipped record
// through the exact replay path recovery uses (applyWALRecord), and writes its
// own checkpoints only at shipped RecCheckpoint markers — the moments the
// primary checkpointed — so the replica's data directory is indistinguishable
// from the primary's at every acknowledged position. Promotion seals nothing:
// it closes the mirror and reopens the directory with wal.Open, which
// continues in a fresh segment, exactly what a restarted primary would do.
//
// All mutation runs on the pinned worker through replication ops, so shipped
// records are ordered against reads and against each other exactly like live
// ingest is.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// replOp is what the follower shipped for a replication op: one WAL record
// at seg/off (opReplApply), or a checkpoint image with the position shipping
// will begin at (opReplBootstrap).
type replOp struct {
	seg       uint64
	off       int64
	shipNanos int64
	// payload is an owned copy of the record payload (unframed), or the
	// checkpoint image (nil = fresh start).
	payload []byte
}

// openMirrorLocked opens the session's WAL mirror positioned at the end of the
// last whole mirrored frame and publishes the resume cursor. Pinned worker
// only, after recoverLocked.
func (s *session) openMirrorLocked() error {
	m, err := wal.OpenMirror(s.cfg.DataDir, s.walOptions())
	if err != nil {
		return err
	}
	s.wal = m
	s.lastWal = wal.Stats{}
	seg, off := m.Pos()
	s.replSeg.Store(seg)
	s.replOff.Store(off)
	s.appliedEpoch.Store(lastSealedEpoch(s.eng.Load()))
	return nil
}

// lastSealedEpoch is the applied-epoch a replica reports: the newest sealed
// epoch, -1 before any.
func lastSealedEpoch(r *rfid.Runner) int64 {
	if r == nil {
		return -1
	}
	ep := int64(r.Position().NextEpoch) - 1
	if ep < 0 {
		ep = -1
	}
	return ep
}

// handleReplApply mirrors one shipped record (write-ahead, like live ingest)
// and applies it through the shared replay path. A duplicate — position
// strictly before the mirror's — is skipped and re-acked; a desync terminates
// the connection (the follower reconnects and resumes from the mirror's
// position, which heals gaps and duplicates alike).
func (s *session) handleReplApply(ro *replOp) opResult {
	if !s.life.load().replica() || s.wal == nil {
		return opResult{err: fmt.Errorf("session %q is not following a primary", s.id)}
	}
	mseg, moff := s.wal.Pos()
	if ro.seg < mseg || (ro.seg == mseg && ro.off < moff) {
		return opResult{} // already mirrored and applied; ack resyncs the primary
	}
	if err := s.wal.AppendAt(ro.seg, ro.off, ro.payload); err != nil {
		s.engineErrs.Inc()
		s.log.Error("mirror append failed", "err", err)
		return opResult{err: err}
	}
	rec, err := wal.DecodeRecord(ro.payload)
	if err != nil {
		// The frame CRC matched on the primary's disk and on the wire; this is
		// corruption or a format bug, not a transient.
		return opResult{err: fmt.Errorf("decode shipped record: %w", err)}
	}
	r, reg := s.eng.Load(), s.reg.Load()
	if rec.Type == wal.RecCheckpoint {
		if err := s.replicaCheckpoint(rec.Epoch, ro.seg); err != nil {
			s.engineErrs.Inc()
			s.log.Error("replica checkpoint failed", "err", err)
		}
	} else {
		res, aerr := s.applyWALRecord(r, reg, rec)
		if aerr != nil {
			return opResult{err: aerr}
		}
		s.account(r, res)
	}
	seg, off := s.wal.Pos()
	s.replSeg.Store(seg)
	s.replOff.Store(off)
	s.appliedEpoch.Store(lastSealedEpoch(r))
	s.repl.noteApplied(ro.shipNanos)
	s.syncWALMetrics()
	return opResult{}
}

// replicaCheckpoint writes the replica's checkpoint at a shipped RecCheckpoint
// marker. The marker is the first record of the segment the primary rotated
// into, so the mirror has just finished the previous segment and the replica's
// engine state at this instant equals the primary's at its checkpoint. GC
// mirrors the primary's: old checkpoints pruned, covered segments removed.
func (s *session) replicaCheckpoint(epoch int, seg uint64) error {
	if err := s.persistCheckpoint(time.Now(), epoch, seg); err != nil {
		return err
	}
	if err := s.wal.RemoveSegmentsBefore(seg); err != nil {
		s.log.Warn("pruning covered wal segments failed", "err", err)
	}
	return nil
}

// handleReplBootstrap discards the session's local durable state and restarts
// from a shipped checkpoint image (nil = from nothing): the mirror closes, the
// WAL and checkpoint files are wiped, the image is written as the sole
// checkpoint, a fresh engine is built and recovered through the normal startup
// path, and the mirror reopens at the announced shipping position.
func (s *session) handleReplBootstrap(ro *replOp) opResult {
	serving := s.life.load()
	if !serving.replica() {
		return opResult{err: fmt.Errorf("session %q is not a replica", s.id)}
	}
	recovering := serving.in(phaseRecovering)
	s.transition(serving, recovering, nil)
	err := s.rebootstrap(ro)
	s.transition(recovering, serving, err)
	return opResult{err: err}
}

// rebootstrap is handleReplBootstrap's work.
func (s *session) rebootstrap(ro *replOp) error {
	if err := s.closeWAL(); err != nil {
		s.log.Warn("closing mirror for re-bootstrap failed", "err", err)
	}
	// Only the log and checkpoints are replaced; the manifest stays.
	for _, pat := range durableFilePatterns {
		matches, _ := filepath.Glob(filepath.Join(s.cfg.DataDir, pat))
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				return fmt.Errorf("wipe stale durable state: %w", err)
			}
		}
	}
	checkpoint.SyncDir(s.cfg.DataDir)
	if ro.payload != nil {
		snap, err := checkpoint.Decode(ro.payload)
		if err != nil {
			return fmt.Errorf("bootstrap image: %w", err)
		}
		if err := checkpoint.WriteFileAtomic(s.cfg.DataDir, checkpoint.FileName(snap.Epoch), ro.payload); err != nil {
			return fmt.Errorf("write bootstrap checkpoint: %w", err)
		}
	}
	runner, err := s.newRunner()
	if err != nil {
		return fmt.Errorf("rebuild engine: %w", err)
	}
	// Replica-local history queries evaluated against the old engine are gone
	// with it: install replaces them with an empty registry.
	s.install(runner)
	s.lastStreamSeq.Store(0)
	if err := s.recoverLocked(); err != nil {
		return fmt.Errorf("recover from bootstrap image: %w", err)
	}
	if err := s.openMirrorLocked(); err != nil {
		return fmt.Errorf("reopen mirror: %w", err)
	}
	// An image-bootstrapped mirror is empty; the ack cursor must name the
	// announced shipping start, not (0,0), so the primary's GC holdback and a
	// reconnect resume line up with what was announced.
	s.setReplCursor(ro.seg, ro.off)
	return nil
}

// setReplCursor publishes an explicit resume position (normalized past the
// segment header, matching wal.OpenCursor). Only an empty mirror adopts it —
// a mirror with mirrored frames already knows its true position.
func (s *session) setReplCursor(seg uint64, off int64) {
	if off < wal.HeaderLen {
		off = wal.HeaderLen
	}
	if mseg, moff := s.wal.Pos(); mseg == 0 && moff == 0 {
		s.replSeg.Store(seg)
		s.replOff.Store(off)
	}
}

// handleReplPromote turns the session writable: flush + close the mirror, then
// reopen the directory with wal.Open, which continues in a fresh segment after
// the mirrored ones — the same continuation a restarted primary performs. No
// seal and no checkpoint, so a promoted replica's subsequent output is
// byte-identical to a primary that crashed at the same position and recovered.
// Idempotent: promoting a non-replica session is a no-op.
func (s *session) handleReplPromote() opResult {
	cur := s.life.load()
	if !cur.replica() {
		return opResult{}
	}
	err := s.openWritable()
	s.transition(cur, primaryIn(phaseServing), err)
	return opResult{err: err}
}

// openWritable closes the mirror and opens the directory as the session's
// WAL (handleReplPromote's work).
func (s *session) openWritable() error {
	if err := s.closeWAL(); err != nil {
		return fmt.Errorf("close mirror at promotion: %w", err)
	}
	lg, err := wal.Open(s.cfg.DataDir, s.walOptions())
	if err != nil {
		return fmt.Errorf("open wal at promotion: %w", err)
	}
	s.wal = lg
	s.lastWal = wal.Stats{}
	// Replica-local history queries ("h" ids) are not WAL-logged and do not
	// survive the role change.
	s.histReg.Store(nil)
	return nil
}

// --- the follower's hand-offs (follow.go calls these in shipping order) ---

// errReplNoSID refuses a shipped frame that names no session. A session's wire
// id is its id; an empty one comes from a primary this node cannot follow (one
// that still hosts an unnamed session) or a corrupt frame, and guessing a
// target would apply records to the wrong world.
var errReplNoSID = fmt.Errorf("replication frame carries an empty session id; refusing to guess a session")

// replCursors reports every session's resume cursor for the follower hello.
func (sv *Server) replCursors() []wire.ReplCursor {
	var out []wire.ReplCursor
	for _, s := range sv.snapshotSessions() {
		if l := s.life.load(); !l.replica() || l.phase() != phaseServing {
			continue
		}
		out = append(out, wire.ReplCursor{
			SID:          s.id,
			Seg:          s.replSeg.Load(),
			Off:          s.replOff.Load(),
			AppliedEpoch: s.appliedEpoch.Load(),
		})
	}
	return out
}

// replBootstrap (re)starts a session from a shipped checkpoint image. An
// unknown session is created from the shipped manifest — its directory seeded
// with the image before the normal restore path builds and recovers it; an
// existing session re-bootstraps through its op queue.
func (sv *Server) replBootstrap(id, manifest string, image []byte, seg uint64, off int64) error {
	if id == "" {
		return errReplNoSID
	}
	if sess, ok := sv.session(id); ok {
		if err := sess.admit(admitReplicate); err != nil {
			return err
		}
		res, err := sess.call(op{kind: opReplBootstrap, repl: &replOp{seg: seg, off: off, payload: image}}, nil)
		if err != nil {
			return fmt.Errorf("session %q bootstrap: %w", id, err)
		}
		return res.err
	}
	if manifest == "" {
		return fmt.Errorf("unknown session %q announced without a manifest", id)
	}
	var req api.CreateSessionRequest
	if err := json.Unmarshal([]byte(manifest), &req); err != nil {
		return fmt.Errorf("session %q manifest: %w", id, err)
	}
	req.ID = id
	dir := sv.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create session dir: %w", err)
	}
	if image != nil {
		snap, err := checkpoint.Decode(image)
		if err != nil {
			return fmt.Errorf("session %q bootstrap image: %w", id, err)
		}
		if err := checkpoint.WriteFileAtomic(dir, checkpoint.FileName(snap.Epoch), image); err != nil {
			return fmt.Errorf("write bootstrap checkpoint: %w", err)
		}
	}
	sess, err := sv.addSession(req, true)
	if err != nil {
		return err
	}
	if err := sess.waitReady(nil); err != nil {
		return err
	}
	sess.setReplCursor(seg, off)
	return nil
}

// replApply routes one shipped record onto its session's op queue and waits
// for the pinned worker to mirror + apply it, returning the post-apply cursor
// the follower acks with.
func (sv *Server) replApply(rec wire.ReplRecord) (wire.ReplCursor, error) {
	id := rec.SID
	if id == "" {
		return wire.ReplCursor{}, errReplNoSID
	}
	sess, ok := sv.session(id)
	if !ok {
		return wire.ReplCursor{}, fmt.Errorf("record for unknown session %q", id)
	}
	if err := sess.admit(admitReplicate); err != nil {
		return wire.ReplCursor{}, err
	}
	ro := &replOp{
		seg:       rec.Seg,
		off:       rec.Off,
		shipNanos: rec.ShipNanos,
		// The payload borrows the frame reader's buffer; the op outlives this
		// call only on error paths, so keep an owned copy.
		payload: append([]byte(nil), rec.Payload...),
	}
	res, err := sess.call(op{kind: opReplApply, repl: ro}, nil)
	if err != nil {
		return wire.ReplCursor{}, fmt.Errorf("session %q: %w", id, err)
	}
	if res.err != nil {
		return wire.ReplCursor{}, res.err
	}
	return wire.ReplCursor{
		SID:          rec.SID,
		Seg:          sess.replSeg.Load(),
		Off:          sess.replOff.Load(),
		AppliedEpoch: sess.appliedEpoch.Load(),
	}, nil
}

// --- replica-served reads ---

// replicaHeaders stamps the staleness headers on a replica-served read. A
// primary serves the same endpoints without them.
func (sv *Server) replicaHeaders(w http.ResponseWriter, sess *session) {
	role := sv.roleName()
	if role == api.RolePrimary {
		return
	}
	w.Header().Set(api.HeaderRole, role)
	w.Header().Set(api.HeaderAppliedEpoch, strconv.FormatInt(sess.appliedEpoch.Load(), 10))
	w.Header().Set(api.HeaderReplicationLag, strconv.FormatFloat(sv.repl.lagSeconds(), 'f', 3, 64))
}
