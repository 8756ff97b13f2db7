package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// The streaming ingest data plane: POST /v1/sessions/{sid}/stream upgrades
// the connection to a persistent binary protocol (rfid/wire framing — the
// exact format the WAL speaks) and pumps batches straight into the session's
// op queue with reused scratch buffers, no JSON and no intermediate DTOs.
//
// Protocol (every frame payload starts with a uvarint kind):
//
//	server -> client  hello  (version, resume-after seq, window, frame cap)
//	client -> server  batch  (seq, batch body)   — seqs start at 1, contiguous
//	server -> client  ack    (cumulative durable seq, watermark, window)
//	server -> client  error  (code, message, retry-after) — terminal
//	client -> server  close  — graceful end of stream
//
// Flow control: the client keeps at most `window` batches in flight (sent
// but unacknowledged). The window equals the freelist of decode buffers below
// AND the session's bounded op queue is the throttle underneath — a slow
// engine stops the reader goroutine, which stops the TCP window, which stops
// the client. Acks are sent only after a batch has been applied (and, on a
// durable session, WAL-appended under the configured fsync policy), so an ack
// is the same durability receipt an HTTP 202 is.
//
// Exactly-once resume: the session persists the highest applied stream
// sequence (in every RecBatch WAL record and in the checkpoint), the hello
// frame reports it, and the reader drops duplicates below the resume point
// (re-acking them) while treating gaps as protocol errors. One stream may be
// active per session; a new stream takes over (closing the old connection),
// which is what lets a client whose old TCP connection is half-dead reconnect
// immediately.

// streamWindowCap bounds the per-stream flow-control window (and decode
// buffer freelist) regardless of the configured queue size.
const streamWindowCap = 1024

// streamBatch is one decoded in-flight batch: scratch record slices that are
// recycled through the connection's freelist once the pinned worker has
// applied them. The sink methods implement wire.BatchSink.
type streamBatch struct {
	seq       uint64
	conn      *streamConn
	readings  []rfid.Reading
	locations []rfid.LocationReport
}

// Reading implements wire.BatchSink; tag is borrowed, interned before it is
// kept.
func (sb *streamBatch) Reading(t int, tag []byte) {
	sb.readings = append(sb.readings, rfid.Reading{Time: t, Tag: sb.conn.intern(tag)})
}

// Location implements wire.BatchSink.
func (sb *streamBatch) Location(t int, x, y, z, phi float64, hasPhi bool) {
	sb.locations = append(sb.locations, rfid.LocationReport{
		Time: t, Pos: rfid.Vec3{X: x, Y: y, Z: z}, Phi: phi, HasPhi: hasPhi,
	})
}

// maxInternedTags bounds the per-connection tag intern table; a stream that
// somehow produces more distinct tags falls back to per-reading allocation
// rather than growing without bound.
const maxInternedTags = 1 << 16

// streamConn is one active stream connection. The handler goroutine reads
// frames; a writer goroutine sends coalesced acks and the terminal error
// frame; the session's pinned worker recycles batches and raises the ack
// high-water mark.
type streamConn struct {
	sess   *session
	window int

	// free holds the reusable decode batches; taking one is the client-side
	// window made physical. The pinned worker refills it as it applies
	// batches — strictly before the ack for that batch can be written — so a
	// client that respects the advertised window can never find it empty.
	free chan *streamBatch

	// ackHigh is the highest applied (and on durable sessions, logged) batch
	// seq; written by the pinned worker, read by the writer goroutine.
	ackHigh atomic.Uint64
	// reack asks the writer for an ack even without new progress (duplicate
	// batches after a resume are answered this way).
	reack atomic.Bool
	// notify wakes the writer (capacity 1: wake-ups coalesce).
	notify chan struct{}
	// stop is closed by the reader when it exits; the writer drains and
	// leaves.
	stop     chan struct{}
	writerWG sync.WaitGroup

	// fatal, once set, is the terminal protocol error the writer reports
	// before closing (guarded by mu).
	mu       sync.Mutex
	fatalErr *api.StreamError
	conn     net.Conn
	dead     bool

	tags map[string]rfid.TagID
}

func newStreamConn(sess *session, window int) *streamConn {
	sc := &streamConn{
		sess:   sess,
		window: window,
		free:   make(chan *streamBatch, window),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		tags:   make(map[string]rfid.TagID),
	}
	for i := 0; i < window; i++ {
		sc.free <- &streamBatch{conn: sc}
	}
	return sc
}

// intern maps borrowed tag bytes onto a stable TagID, allocating only the
// first time a tag is seen (the map lookup on a []byte-to-string conversion
// does not allocate).
func (sc *streamConn) intern(tag []byte) rfid.TagID {
	if id, ok := sc.tags[string(tag)]; ok {
		return id
	}
	id := rfid.TagID(tag)
	if len(sc.tags) < maxInternedTags {
		sc.tags[string(id)] = id
	}
	return id
}

// adopt publishes the hijacked connection; it fails when a takeover already
// killed this stream.
func (sc *streamConn) adopt(conn net.Conn) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dead {
		return false
	}
	sc.conn = conn
	return true
}

// kill force-closes the connection (takeover or session shutdown); safe from
// any goroutine, idempotent.
func (sc *streamConn) kill() {
	sc.mu.Lock()
	sc.dead = true
	c := sc.conn
	sc.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// fatal records the terminal error the writer goroutine will report. Safe
// from the reader and the pinned worker; the first error wins.
func (sc *streamConn) fatal(code, message string, retryAfterMS int) {
	sc.mu.Lock()
	if sc.fatalErr == nil {
		sc.fatalErr = &api.StreamError{Code: code, Message: message, RetryAfterMS: retryAfterMS}
	}
	sc.mu.Unlock()
	sc.wake()
}

func (sc *streamConn) takeFatal() *api.StreamError {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.fatalErr
}

func (sc *streamConn) wake() {
	select {
	case sc.notify <- struct{}{}:
	default:
	}
}

// applied is called by the pinned worker after a stream batch has been
// WAL-appended and applied: the batch returns to the freelist FIRST (so the
// window refills before the client can learn about the progress), then the
// ack high-water mark advances and the writer wakes.
func (sc *streamConn) applied(sb *streamBatch) {
	select {
	case sc.free <- sb:
	default:
		// Freelist full: the batch belongs to a previous life of the stream
		// (takeover while ops were queued). Drop it.
	}
	for {
		cur := sc.ackHigh.Load()
		if sb.seq <= cur || sc.ackHigh.CompareAndSwap(cur, sb.seq) {
			break
		}
	}
	sc.wake()
}

// writeLoop sends coalesced acks and the terminal error frame. Exclusive
// writer after the handler's synchronous hello.
func (sc *streamConn) writeLoop(conn net.Conn) {
	defer sc.writerWG.Done()
	var enc wire.Encoder
	var frame []byte
	durable := sc.sess.durable()
	lastSent := uint64(0)
	writeFrame := func() bool {
		frame = wire.AppendFrame(frame[:0], enc.Bytes())
		// A client that stops reading must not wedge the writer forever; a
		// stalled ack write kills the connection and the client re-syncs on
		// reconnect.
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			sc.kill()
			return false
		}
		return true
	}
	finish := func() {
		if fe := sc.takeFatal(); fe != nil {
			enc.Reset()
			wire.AppendError(&enc, *fe)
			_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			frame = wire.AppendFrame(frame[:0], enc.Bytes())
			_, _ = conn.Write(frame)
			sc.kill()
		}
	}
	for {
		select {
		case <-sc.stop:
			finish()
			return
		case <-sc.sess.quit:
			sc.fatal(api.ErrUnavailable, "session is shutting down", 1000)
			finish()
			return
		case <-sc.notify:
		}
		if sc.takeFatal() != nil {
			finish()
			return
		}
		high := sc.ackHigh.Load()
		force := sc.reack.Swap(false)
		if high > lastSent || force {
			enc.Reset()
			wire.AppendAck(&enc, api.StreamAck{
				UpTo:      high,
				Durable:   durable,
				Watermark: sc.sess.watermark(),
				Window:    sc.window,
			})
			if !writeFrame() {
				return
			}
			lastSent = high
		}
	}
}

// upgrade hijacks the connection behind w and switches it to the framed
// protocol named by token: it clears the deadline the http.Server's read
// timeout armed, which a long-lived connection must not inherit, and writes
// the 101 into the buffered writer (the caller flushes it). A failure before
// the hijack is answered on w; after it the connection is closed. Either way
// conn is nil and the handler returns.
func upgrade(w http.ResponseWriter, token string) (conn net.Conn, bufrw *bufio.ReadWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.ErrInternal, "connection upgrade is not supported on this connection")
		return nil, nil
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.ErrInternal, "hijack: %v", err)
		return nil, nil
	}
	_ = conn.SetDeadline(time.Time{})
	if _, err := fmt.Fprintf(bufrw, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", token); err != nil {
		_ = conn.Close()
		return nil, nil
	}
	return conn, bufrw
}

// handleStream answers POST /v1/sessions/{sid}/stream: it claims the
// session's single stream slot (taking over any existing stream), fences the
// op queue so the resume point is exact, hijacks the connection, performs the
// 101 upgrade + hello handshake and then pumps batch frames into the op
// queue until the connection ends.
func (sv *Server) handleStream(w http.ResponseWriter, r *http.Request, sess *session) {
	window := sess.cfg.QueueSize
	if window > streamWindowCap {
		window = streamWindowCap
	}
	if window < 1 {
		window = 1
	}
	sc := newStreamConn(sess, window)

	// Claim the session's stream slot; an existing stream is taken over (its
	// connection closed), which lets a client with a half-dead TCP connection
	// reconnect without waiting for keepalive timeouts.
	for {
		old := sess.stream.Load()
		if sess.stream.CompareAndSwap(old, sc) {
			if old != nil {
				old.kill()
			}
			break
		}
	}
	defer sess.stream.CompareAndSwap(sc, nil)

	// Fence the op queue: wait for every already-queued op (including batches
	// of the stream just taken over) to apply, so the resume point below is
	// the true high-water mark and the client can never double-apply. The
	// fence queues behind the session's startup or recovery too, and reports
	// its failure.
	res, ok := sv.await(w, r, sess, op{kind: opFence}, "stream")
	if !ok {
		sess.rejected.Inc()
		return
	}
	if res.err != nil {
		writeOpError(w, sess, "stream", res.err)
		return
	}
	resumeAfter := sess.lastStreamSeq.Load()
	maxFrame := maxBodyBytes

	// 101 + hello are written synchronously here, before the writer goroutine
	// exists, so the connection always has exactly one writer.
	conn, bufrw := upgrade(w, wire.StreamUpgrade)
	if conn == nil {
		return
	}
	if !sc.adopt(conn) {
		_ = conn.Close()
		return
	}
	defer sc.kill()
	var enc wire.Encoder
	wire.AppendHello(&enc, api.StreamHello{
		Version:       wire.ProtoVersion,
		ResumeAfter:   resumeAfter,
		Window:        window,
		MaxFrameBytes: maxFrame,
	})
	if _, err := bufrw.Write(wire.AppendFrame(nil, enc.Bytes())); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}
	sess.streamConns.Inc()

	sc.writerWG.Add(1)
	go sc.writeLoop(conn)
	defer sc.writerWG.Wait()
	defer close(sc.stop)

	// The bufio reader may already hold bytes the client sent right after the
	// upgrade request; keep reading through it.
	sv.streamReadLoop(sess, sc, bufrw.Reader, resumeAfter, maxFrame)
}

// streamReadLoop pumps batch frames into the session's op queue until the
// connection ends (cleanly, by error, or by protocol violation).
func (sv *Server) streamReadLoop(sess *session, sc *streamConn, r *bufio.Reader, resumeAfter uint64, maxFrame int) {
	fr := wire.NewFrameReader(r, maxFrame)
	var dec wire.Decoder
	expected := resumeAfter + 1
	for {
		payload, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				if errors.Is(err, wire.ErrFrameCRC) {
					sc.fatal(api.ErrBadRequest, "frame checksum mismatch", 0)
				}
				sess.log.Warn("stream read error", "err", err)
			}
			return
		}
		dec.Reset(payload)
		switch kind := dec.Uvarint(); kind {
		case wire.KindBatch:
			seq := dec.Uvarint()
			if dec.Err() != nil {
				sc.fatal(api.ErrBadRequest, fmt.Sprintf("bad batch frame: %v", dec.Err()), 0)
				return
			}
			if seq < expected {
				// A resend from before the resume point (reconnect race):
				// already durable, so skip it but re-ack to resync the client.
				sc.reack.Store(true)
				sc.wake()
				continue
			}
			if seq > expected {
				sc.fatal(api.ErrBadRequest, fmt.Sprintf("batch sequence gap: got %d, want %d", seq, expected), 0)
				return
			}
			var sb *streamBatch
			select {
			case sb = <-sc.free:
			default:
				// The freelist refills strictly before acks advance, so a
				// client that respects the advertised window can never hit
				// this.
				sc.fatal(api.ErrUnavailable, fmt.Sprintf("flow-control window (%d) overrun", sc.window), retryAfterMS(sess.cfg.IngestWait))
				return
			}
			sb.seq = seq
			sb.readings = sb.readings[:0]
			sb.locations = sb.locations[:0]
			if err := wire.DecodeBatch(&dec, sb); err != nil {
				sc.fatal(api.ErrBadRequest, fmt.Sprintf("bad batch body: %v", err), 0)
				return
			}
			if dec.Remaining() != 0 {
				sc.fatal(api.ErrBadRequest, fmt.Sprintf("%d trailing bytes after batch", dec.Remaining()), 0)
				return
			}
			// Blocking on the bounded op queue IS the backpressure: the TCP
			// receive window fills behind this goroutine and throttles the
			// client at the transport level while the ack window bounds the
			// batches in flight.
			select {
			case sess.ops <- op{sb: sb, rec: wal.Record{Type: wal.RecBatch, StreamSeq: seq, Readings: sb.readings, Locations: sb.locations}}:
				sess.sched.wake(sess)
			case <-sess.quit:
				return
			}
			expected = seq + 1
		case wire.KindClose:
			// Graceful end: the client drains its acks before sending close,
			// so nothing is pending here.
			return
		default:
			sc.fatal(api.ErrBadRequest, fmt.Sprintf("unexpected frame kind %d", kind), 0)
			return
		}
	}
}

// retryAfterMS derives the retry hint attached to backpressure refusals from
// the configured ingest wait (a quarter of it, at least 50ms): by then the
// queue has demonstrably not drained for a full IngestWait, so an immediate
// retry would almost certainly fail again.
func retryAfterMS(ingestWait time.Duration) int {
	ms := int(ingestWait.Milliseconds() / 4)
	if ms < 50 {
		ms = 50
	}
	return ms
}

// writeUnavailable writes a 503 with the structured envelope, a
// retry_after_ms hint and the matching Retry-After header (whole seconds,
// rounded up).
func writeUnavailable(w http.ResponseWriter, retryMS int, format string, args ...any) {
	writeAPIError(w, &api.Error{
		Code:         api.ErrUnavailable,
		Message:      fmt.Sprintf(format, args...),
		RetryAfterMS: retryMS,
		HTTPStatus:   http.StatusServiceUnavailable,
	})
}
