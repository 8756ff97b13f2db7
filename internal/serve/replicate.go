package serve

// The primary side of WAL shipping: POST /v1/replicate upgrades the connection
// (upgrade, shared with the streaming-ingest endpoint, with token
// wire.ReplUpgrade), the follower (follow.go) opens with a ReplHello carrying
// a resume cursor per session it already mirrors, and this handler ships
// every durable session's log: a ReplSession announcement per session (with
// the newest checkpoint image chunked in ReplSnapshot frames when the
// follower must bootstrap), then ReplRecord frames — raw WAL record payloads
// stamped with the exact (segment, offset) they occupy, read by a tailing
// wal.Cursor that coexists with the live appender. The follower answers with
// cumulative ReplAck frames; unacknowledged segments are held back from
// checkpoint GC (the replication slot), so a briefly-lagging follower keeps
// tailing instead of re-bootstrapping.

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// Replication tuning knobs.
const (
	// replChunkBytes sizes the ReplSnapshot chunks a checkpoint image ships in.
	replChunkBytes = 1 << 20
	// replShipBurst caps the records shipped per session per round, so one
	// deep-backlogged session cannot starve the others on a shared connection.
	replShipBurst = 256
	// replIdleSleep is the poll interval while every cursor is at the log end.
	replIdleSleep = 25 * time.Millisecond
	// replHeartbeatEvery is the idle gap after which a heartbeat keeps the
	// connection measurably alive (and the follower's staleness clock ticking).
	replHeartbeatEvery = time.Second
)

// replTracker is the server-level replication state shared by both roles: the
// connected followers' acknowledged cursors on a primary (the GC holdback),
// the lag estimate on a replica, and the metric series for both.
type replTracker struct {
	mu    sync.Mutex
	conns map[*replConnState]struct{}

	// lagNanos is the replica-side staleness estimate: wall-clock delta
	// between the primary shipping the newest applied record (or heartbeat)
	// and this node observing it.
	lagNanos atomic.Int64

	lag            *metrics.Gauge
	followers      *metrics.Gauge
	reconnects     *metrics.Counter
	shippedRecords *metrics.Counter
	appliedRecords *metrics.Counter
}

func newReplTracker(set *metrics.Set) *replTracker {
	return &replTracker{
		conns:          make(map[*replConnState]struct{}),
		lag:            set.Gauge("rfidserve_replication_lag_seconds", "replica staleness estimate: seconds between the primary shipping the newest applied record (or heartbeat) and this node applying it"),
		followers:      set.Gauge("rfidserve_replication_followers", "replica connections this primary is currently shipping to"),
		reconnects:     set.Counter("rfidserve_replication_reconnects_total", "follower connections accepted (every reconnect increments)"),
		shippedRecords: set.Counter("rfidserve_replication_shipped_records_total", "WAL records shipped to followers"),
		appliedRecords: set.Counter("rfidserve_replication_applied_records_total", "shipped WAL records mirrored and applied on this replica"),
	}
}

// replConnState is one follower connection's acknowledged cursors.
type replConnState struct {
	name  string
	mu    sync.Mutex
	acked map[string]wire.ReplCursor
}

// register admits a follower connection, seeding its acked cursors from the
// hello so the GC holdback covers the follower from the first round.
func (t *replTracker) register(hello wire.ReplHello) *replConnState {
	cs := &replConnState{name: hello.Name, acked: make(map[string]wire.ReplCursor)}
	for _, c := range hello.Cursors {
		cs.acked[c.SID] = c
	}
	t.mu.Lock()
	t.conns[cs] = struct{}{}
	t.followers.Set(float64(len(t.conns)))
	t.mu.Unlock()
	t.reconnects.Inc()
	return cs
}

func (t *replTracker) unregister(cs *replConnState) {
	t.mu.Lock()
	delete(t.conns, cs)
	t.followers.Set(float64(len(t.conns)))
	t.mu.Unlock()
}

// ack records a follower's cumulative progress.
func (cs *replConnState) ack(a wire.ReplAck) {
	cs.mu.Lock()
	for _, c := range a.Cursors {
		cs.acked[c.SID] = c
	}
	cs.mu.Unlock()
}

// followerCount returns the number of connected followers.
func (t *replTracker) followerCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// minAckedSegment returns the lowest WAL segment any connected follower still
// needs for a session — the checkpoint GC's holdback floor. ok is false when
// no connected follower tracks the session (nothing is held back; a
// disconnected follower re-bootstraps from the next checkpoint).
func (t *replTracker) minAckedSegment(sid string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min uint64
	ok := false
	for cs := range t.conns {
		cs.mu.Lock()
		c, has := cs.acked[sid]
		cs.mu.Unlock()
		if has && (!ok || c.Seg < min) {
			min, ok = c.Seg, true
		}
	}
	return min, ok
}

// noteApplied records one applied record on a replica: counters + lag.
func (t *replTracker) noteApplied(shipNanos int64) {
	t.appliedRecords.Inc()
	t.noteLag(shipNanos)
}

// noteLag updates the staleness estimate from a shipped wall-clock stamp.
func (t *replTracker) noteLag(shipNanos int64) {
	if shipNanos <= 0 {
		return
	}
	lag := time.Now().UnixNano() - shipNanos
	if lag < 0 {
		lag = 0
	}
	t.lagNanos.Store(lag)
	t.lag.Set(time.Duration(lag).Seconds())
}

// lagSeconds returns the replica's current staleness estimate.
func (t *replTracker) lagSeconds() float64 {
	return time.Duration(t.lagNanos.Load()).Seconds()
}

// shipState is one session's shipping position on one follower connection.
type shipState struct {
	sess *session
	cur  *wal.Cursor
	// noResume forces the next announcement to bootstrap from a checkpoint
	// even if the follower's hello carried a cursor (set when GC outran it).
	noResume bool
}

// handleReplicate answers POST /v1/replicate on a primary: hijack + 101
// upgrade, read the follower's hello, then ship until the connection ends.
func (sv *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if sv.closed.Load() {
		writeUnavailable(w, 1000, "server is shutting down")
		return
	}
	if sv.role.Load() != rolePrimary {
		writeError(w, http.StatusConflict, api.ErrConflict, "node is %s, not a primary", sv.roleName())
		return
	}
	if sv.cfg.DataDir == "" {
		writeError(w, http.StatusConflict, api.ErrConflict, "replication requires a durable primary (data dir)")
		return
	}
	conn, bufrw := upgrade(w, wire.ReplUpgrade)
	if conn == nil {
		return
	}
	defer conn.Close()
	if err := bufrw.Flush(); err != nil {
		return
	}

	// The follower speaks first: its hello carries the resume cursors.
	maxFrame := maxBodyBytes + (4 << 10) // record payload + framing/envelope slack
	fr := wire.NewFrameReader(bufrw.Reader, maxFrame)
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := fr.Next()
	if err != nil {
		return
	}
	var dec wire.Decoder
	dec.Reset(payload)
	if kind := dec.Uvarint(); kind != wire.KindReplHello {
		sv.cfg.Logger.Warn("replication connection opened without a hello", "kind", kind)
		return
	}
	hello, err := wire.DecodeReplHello(&dec)
	if err != nil {
		sv.cfg.Logger.Warn("bad replication hello", "err", err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	cs := sv.repl.register(hello)
	defer sv.repl.unregister(cs)
	log := sv.cfg.Logger.With("follower", hello.Name)
	log.Info("follower connected", "cursors", len(hello.Cursors))

	// The ack reader owns the read half from here; the handler goroutine is
	// the connection's single writer.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(90 * time.Second))
			payload, err := fr.Next()
			if err != nil {
				return
			}
			var d wire.Decoder
			d.Reset(payload)
			if kind := d.Uvarint(); kind != wire.KindReplAck {
				log.Warn("unexpected follower frame", "kind", kind)
				return
			}
			a, err := wire.DecodeReplAck(&d)
			if err != nil {
				log.Warn("bad follower ack", "err", err)
				return
			}
			cs.ack(a)
		}
	}()

	sv.shipLoop(conn, hello, stop, log)
	_ = conn.Close() // unblocks the ack reader promptly
	log.Info("follower disconnected")
}

// shipLoop rounds over every durable session, announcing newly seen ones and
// shipping up to replShipBurst records each, until the connection or server
// ends. Sessions created mid-connection are adopted on the next round; deleted
// sessions are dropped.
func (sv *Server) shipLoop(conn net.Conn, hello wire.ReplHello, stop <-chan struct{}, log *slog.Logger) {
	helloCur := make(map[string]wire.ReplCursor, len(hello.Cursors))
	for _, c := range hello.Cursors {
		helloCur[c.SID] = c
	}
	states := make(map[string]*shipState)
	defer func() {
		for _, st := range states {
			if st.cur != nil {
				st.cur.Close()
			}
		}
	}()
	var enc wire.Encoder
	var frame []byte
	writeFrame := func() error {
		frame = wire.AppendFrame(frame[:0], enc.Bytes())
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_, err := conn.Write(frame)
		return err
	}
	lastWrite := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if sv.closed.Load() {
			return
		}
		for _, s := range sv.snapshotSessions() {
			if !s.durable() {
				continue
			}
			if _, ok := states[s.id]; !ok {
				states[s.id] = &shipState{sess: s}
			}
		}
		shipped := 0
		for sid, st := range states {
			if _, ok := sv.session(sid); !ok {
				if st.cur != nil {
					st.cur.Close()
				}
				delete(states, sid)
				continue
			}
			if st.cur == nil {
				ok, err := sv.announceSession(&enc, writeFrame, st, helloCur)
				if err != nil {
					if os.IsNotExist(err) {
						continue // session being torn down; the map cleanup catches it
					}
					log.Warn("replication announce failed", "session", sid, "err", err)
					return
				}
				if !ok {
					continue // nothing durable on disk yet; retry next round
				}
			}
			n, err := sv.shipRecords(&enc, writeFrame, st)
			shipped += n
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				log.Warn("replication shipping failed", "session", sid, "err", err)
				return
			}
		}
		if shipped > 0 {
			lastWrite = time.Now()
			continue
		}
		if time.Since(lastWrite) >= replHeartbeatEvery {
			enc.Reset()
			wire.AppendReplHeartbeat(&enc, wire.ReplHeartbeat{Nanos: time.Now().UnixNano()})
			if err := writeFrame(); err != nil {
				return
			}
			lastWrite = time.Now()
		}
		select {
		case <-stop:
			return
		case <-time.After(replIdleSleep):
		}
	}
}

// announceSession sends the ReplSession frame (and the checkpoint image's
// chunks on a bootstrap) and opens the shipping cursor. Returns ok=false when
// the session has nothing durable on disk yet.
func (sv *Server) announceSession(enc *wire.Encoder, writeFrame func() error, st *shipState, helloCur map[string]wire.ReplCursor) (bool, error) {
	dir := st.sess.cfg.DataDir
	segs, err := wal.Segments(dir)
	if err != nil {
		return false, err
	}
	ann := wire.ReplSession{SID: st.sess.id}
	var image []byte
	if hc, ok := helloCur[ann.SID]; ok && !st.noResume && len(segs) > 0 && hc.Seg >= segs[0] {
		// Resume: the follower's position is still on disk — no bootstrap,
		// ship from exactly where it stopped.
		ann.Seg, ann.Off = hc.Seg, hc.Off
	} else {
		b, err := json.Marshal(st.sess.manifest)
		if err != nil {
			return false, err
		}
		ann.Manifest = string(b)
		// Bootstrap from the newest checkpoint: ship the raw file bytes (the
		// follower writes them verbatim, keeping the image byte-identical) and
		// start the cursor at the checkpoint's replay position. With no
		// checkpoint yet but a log, start fresh from the oldest segment (the
		// follower tells this from a resume because the announced position
		// cannot match the cursor it sent — had it matched, this would be a
		// resume).
		path, snap, ok, err := checkpoint.Latest(dir)
		switch {
		case err != nil:
			return false, err
		case ok:
			if image, err = os.ReadFile(path); err != nil {
				return false, err
			}
			ann.SnapshotBytes = int64(len(image))
			ann.Seg, ann.Off = snap.WALSegment, wal.HeaderLen
		case len(segs) > 0:
			ann.Seg, ann.Off = segs[0], wal.HeaderLen
		default:
			return false, nil
		}
	}
	enc.Reset()
	wire.AppendReplSession(enc, ann)
	if err := writeFrame(); err != nil {
		return false, err
	}
	for o := 0; o < len(image); o += replChunkBytes {
		end := min(o+replChunkBytes, len(image))
		enc.Reset()
		wire.AppendReplSnapshot(enc, wire.ReplSnapshot{SID: ann.SID, Last: end == len(image), Chunk: image[o:end]})
		if err := writeFrame(); err != nil {
			return false, err
		}
	}
	cur, err := wal.OpenCursor(dir, ann.Seg, ann.Off)
	if err != nil {
		return false, err
	}
	st.cur = cur
	st.noResume = false
	return true, nil
}

// shipRecords forwards up to replShipBurst records from the session's cursor,
// stamping each with its exact log position. A GC'd segment closes the cursor
// and forces a re-announce (bootstrap) on the next round.
func (sv *Server) shipRecords(enc *wire.Encoder, writeFrame func() error, st *shipState) (int, error) {
	n := 0
	for n < replShipBurst {
		_, payload, err := st.cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, wal.ErrSegmentGone) {
			st.cur.Close()
			st.cur = nil
			st.noResume = true
			break
		}
		if err != nil {
			return n, err
		}
		seg, off := st.cur.RecordPos()
		enc.Reset()
		wire.AppendReplRecord(enc, wire.ReplRecord{
			SID: st.sess.id, Seg: seg, Off: off,
			ShipNanos: time.Now().UnixNano(),
			Payload:   payload,
		})
		if err := writeFrame(); err != nil {
			return n, err
		}
		sv.repl.shippedRecords.Inc()
		n++
	}
	return n, nil
}
