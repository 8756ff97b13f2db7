package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/rfid/api"
	"repro/rfid/wire"
)

// StreamOptions tunes a StreamIngester. The zero value is usable.
type StreamOptions struct {
	// BatchSize is how many records (readings + location reports) accumulate
	// before the current batch is sealed and sent (default 256).
	BatchSize int
	// FlushInterval bounds how long a record may sit in the current batch
	// before it is sealed even if BatchSize was not reached (default 50ms).
	FlushInterval time.Duration
	// Window caps the batches in flight (sent but unacknowledged). Zero means
	// the server's advertised window; a non-zero value below it shrinks the
	// window further (it can never grow past the server's).
	Window int
	// OnAck, when set, observes every acknowledgement (called from the
	// ingester's reader goroutine; keep it quick).
	OnAck func(api.StreamAck)
	// ReconnectWait is the initial reconnect backoff (default 100ms, doubling
	// up to 5s). A server-provided retry_after_ms hint overrides it.
	ReconnectWait time.Duration
	// MaxAttempts is how many consecutive failed connection attempts the
	// ingester tolerates before failing terminally (default 10).
	MaxAttempts int
}

func (o *StreamOptions) applyDefaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.ReconnectWait <= 0 {
		o.ReconnectWait = 100 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 10
	}
}

// Stream opens the session's streaming ingest data plane and returns a
// StreamIngester: records added with AddReading/AddLocation are batched
// client-side, sent as binary frames over one persistent connection, and
// acknowledged cumulatively by the server (on a durable session every ack is a
// durability receipt). The ingester reconnects on connection loss and resumes
// from the server's last acknowledged sequence number, so every record is
// applied exactly once even across reconnects and server restarts.
//
// The connection is established asynchronously; the first error surfaces from
// Flush, Close or Err.
func (s *Session) Stream(opts StreamOptions) *StreamIngester {
	opts.applyDefaults()
	st := &StreamIngester{s: s, opts: opts, done: make(chan struct{})}
	st.cond = sync.NewCond(&st.mu)
	go st.run()
	return st
}

// streamOutBatch is one sealed batch awaiting send or acknowledgement. The
// sequence number is assigned at first send (once the resume base is known
// from the server's hello) and then pinned, so a resend after a reconnect
// reuses it and the server can deduplicate.
type streamOutBatch struct {
	seq   uint64
	batch wire.APIBatch
}

// StreamIngester is the client side of the streaming ingest protocol. Add and
// Flush/Close may be called from one goroutine ("the producer"); the ingester
// runs its own connection-management goroutines underneath. A terminal error
// (protocol violation, exhausted reconnect attempts, durability regression on
// resume) is sticky and surfaces from every subsequent call.
type StreamIngester struct {
	s    *Session
	opts StreamOptions

	mu   sync.Mutex
	cond *sync.Cond
	// cur is the batch being built by Add*.
	cur      wire.APIBatch
	lastAdd  time.Time
	pending  []*streamOutBatch // sealed, not yet sent (or requeued for resend)
	unacked  []*streamOutBatch // sent, awaiting cumulative ack; ordered by seq
	seqBase  uint64            // server's resume point at first connect
	seqNext  uint64            // next sequence number to assign (0 = base unknown)
	acked    uint64            // highest cumulatively acknowledged seq
	lastAck  api.StreamAck     // most recent ack (watermark, durable flag)
	closing  bool              // Close called: drain, then send the close frame
	finished bool              // graceful close completed
	err      error             // terminal, sticky

	done chan struct{} // run loop exited (terminally or gracefully)
}

// AddReading appends one raw RFID reading to the current batch, sealing and
// sending it when BatchSize is reached. It never blocks on the network; flow
// control happens at send time.
func (st *StreamIngester) AddReading(time int, tag string) error {
	return st.add(api.Reading{Time: time, Tag: tag}, nil)
}

// AddLocation appends one reader-location report to the current batch.
func (st *StreamIngester) AddLocation(rep api.LocationReport) error {
	return st.add(api.Reading{}, &rep)
}

func (st *StreamIngester) add(r api.Reading, l *api.LocationReport) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if st.closing {
		return errors.New("client: stream: ingester is closed")
	}
	if l != nil {
		st.cur.Locations = append(st.cur.Locations, *l)
	} else {
		st.cur.Readings = append(st.cur.Readings, r)
	}
	st.lastAdd = time.Now()
	if len(st.cur.Readings)+len(st.cur.Locations) >= st.opts.BatchSize {
		st.sealLocked()
	}
	return nil
}

// sealLocked moves the current batch onto the send queue. Caller holds st.mu.
func (st *StreamIngester) sealLocked() {
	if len(st.cur.Readings) == 0 && len(st.cur.Locations) == 0 {
		return
	}
	st.pending = append(st.pending, &streamOutBatch{batch: st.cur})
	st.cur = wire.APIBatch{}
	st.cond.Broadcast()
}

// Flush seals the current batch and blocks until everything added so far has
// been acknowledged by the server (on a durable session: durably applied).
func (st *StreamIngester) Flush(ctx context.Context) error {
	st.mu.Lock()
	st.sealLocked()
	st.mu.Unlock()
	return st.wait(ctx, func() bool {
		return len(st.pending) == 0 && len(st.unacked) == 0 &&
			len(st.cur.Readings) == 0 && len(st.cur.Locations) == 0
	})
}

// Close flushes, waits for every batch to be acknowledged, sends the graceful
// end-of-stream frame and tears the connection down. The ingester is unusable
// afterwards. Close reports the terminal error, if any; cancelling ctx
// abandons the drain and force-closes.
func (st *StreamIngester) Close(ctx context.Context) error {
	st.mu.Lock()
	st.closing = true
	st.sealLocked()
	st.cond.Broadcast()
	st.mu.Unlock()
	select {
	case <-st.done:
	case <-ctx.Done():
		st.fail(fmt.Errorf("client: stream: close abandoned: %w", ctx.Err()))
		<-st.done
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Err returns the ingester's sticky terminal error, if any.
func (st *StreamIngester) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Acked returns the most recent acknowledgement (zero value before the first
// ack arrives).
func (st *StreamIngester) Acked() api.StreamAck {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastAck
}

// wait blocks on the ingester's condition until cond holds, a terminal error
// is set, or ctx is cancelled. Cancellation is detected via a watcher
// goroutine because sync.Cond cannot select on a channel.
func (st *StreamIngester) wait(ctx context.Context, cond func() bool) error {
	stopWatch := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stopWatch()
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil {
			return st.err
		}
		if cond() {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: stream: %w", ctx.Err())
		}
		st.cond.Wait()
	}
}

// fail records the terminal error (first one wins) and wakes every waiter.
func (st *StreamIngester) fail(err error) {
	st.mu.Lock()
	if st.err == nil && !st.finished {
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// --- connection management ---

// run owns the connection lifecycle: dial, handshake, resync, pump, reconnect
// with backoff. It exits on graceful close or terminal error.
func (st *StreamIngester) run() {
	defer close(st.done)
	backoff := st.opts.ReconnectWait
	attempts := 0
	for {
		if st.Err() != nil {
			return
		}
		conn, br, hello, err := st.dial()
		if err != nil {
			var terminal *terminalDialError
			if errors.As(err, &terminal) {
				st.fail(terminal.err)
				return
			}
			attempts++
			if attempts >= st.opts.MaxAttempts {
				st.fail(fmt.Errorf("client: stream: giving up after %d connection attempts: %w", attempts, err))
				return
			}
			wait := backoff
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.RetryAfterMS > 0 {
				wait = time.Duration(apiErr.RetryAfterMS) * time.Millisecond
			}
			time.Sleep(wait)
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		attempts, backoff = 0, st.opts.ReconnectWait
		if !st.resync(hello) {
			conn.Close()
			return
		}
		connDead := make(chan struct{})
		var readerWG sync.WaitGroup
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			st.readAcks(br, hello, connDead)
			conn.Close() // unblock a writer stuck in Write
			st.cond.Broadcast()
		}()
		graceful := st.writeLoop(conn, hello, connDead)
		conn.Close()
		readerWG.Wait()
		if graceful {
			st.mu.Lock()
			st.finished = true
			st.cond.Broadcast()
			st.mu.Unlock()
			return
		}
	}
}

// resync reconciles local state with the server's hello after (re)connecting.
// It returns false on a terminal inconsistency.
func (st *StreamIngester) resync(hello api.StreamHello) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seqNext == 0 {
		// First successful handshake: adopt the server's resume point as the
		// sequence base (a fresh session reports 0).
		st.seqBase = hello.ResumeAfter
		st.seqNext = hello.ResumeAfter + 1
		st.acked = hello.ResumeAfter
		return true
	}
	if hello.ResumeAfter < st.acked {
		st.err = fmt.Errorf("client: stream: server resumed at seq %d below acknowledged seq %d: durability contract broken", hello.ResumeAfter, st.acked)
		st.cond.Broadcast()
		return false
	}
	if hello.ResumeAfter >= st.seqNext {
		st.err = fmt.Errorf("client: stream: server resumed at seq %d, beyond anything this ingester sent (next %d): another stream wrote to the session", hello.ResumeAfter, st.seqNext)
		st.cond.Broadcast()
		return false
	}
	// Batches at or below the resume point are durable server-side even if
	// their acks were lost with the old connection; everything above it is
	// requeued for resend with its pinned sequence number.
	st.acked = hello.ResumeAfter
	resend := st.unacked[:0]
	for _, b := range st.unacked {
		if b.seq > hello.ResumeAfter {
			resend = append(resend, b)
		}
	}
	st.pending = append(append([]*streamOutBatch{}, resend...), st.pending...)
	st.unacked = st.unacked[:0]
	st.cond.Broadcast()
	return true
}

// writeLoop sends sealed batches subject to the flow-control window, the
// periodic flush timer and the graceful close handshake. It returns true when
// the stream ended gracefully (close frame sent after a full drain) and false
// when the connection died and a reconnect should follow.
func (st *StreamIngester) writeLoop(conn net.Conn, hello api.StreamHello, connDead chan struct{}) bool {
	window := hello.Window
	if st.opts.Window > 0 && st.opts.Window < window {
		window = st.opts.Window
	}
	if window < 1 {
		window = 1
	}
	flush := time.NewTicker(st.opts.FlushInterval)
	defer flush.Stop()
	go func() {
		for {
			select {
			case <-flush.C:
				st.mu.Lock()
				if time.Since(st.lastAdd) >= st.opts.FlushInterval {
					st.sealLocked()
				}
				st.mu.Unlock()
			case <-connDead:
				return
			case <-st.done:
				return
			}
		}
	}()

	var enc wire.Encoder
	var frame []byte
	for {
		st.mu.Lock()
		var out *streamOutBatch
		sendClose := false
		for {
			if st.err != nil {
				st.mu.Unlock()
				return false
			}
			select {
			case <-connDead:
				st.mu.Unlock()
				return false
			default:
			}
			if len(st.pending) > 0 && len(st.unacked) < window {
				out = st.pending[0]
				st.pending = st.pending[1:]
				if out.seq == 0 {
					out.seq = st.seqNext
					st.seqNext++
				}
				st.unacked = append(st.unacked, out)
				break
			}
			if st.closing && len(st.pending) == 0 && len(st.unacked) == 0 &&
				len(st.cur.Readings) == 0 && len(st.cur.Locations) == 0 {
				sendClose = true
				break
			}
			st.cond.Wait()
		}
		st.mu.Unlock()

		enc.Reset()
		if sendClose {
			wire.AppendClose(&enc)
		} else {
			wire.AppendBatchFrame(&enc, out.seq, out.batch)
		}
		frame = wire.AppendFrame(frame[:0], enc.Bytes())
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			return false
		}
		if sendClose {
			return true
		}
	}
}

// readAcks consumes server frames (acks and the terminal error frame) until
// the connection dies; it closes connDead on exit.
func (st *StreamIngester) readAcks(br *bufio.Reader, hello api.StreamHello, connDead chan struct{}) {
	defer close(connDead)
	maxFrame := hello.MaxFrameBytes
	fr := wire.NewFrameReader(br, maxFrame)
	var dec wire.Decoder
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		dec.Reset(payload)
		switch kind := dec.Uvarint(); kind {
		case wire.KindAck:
			ack, err := wire.DecodeAck(&dec)
			if err != nil {
				return
			}
			st.mu.Lock()
			if ack.UpTo > st.acked {
				st.acked = ack.UpTo
			}
			st.lastAck = ack
			keep := st.unacked[:0]
			for _, b := range st.unacked {
				if b.seq > ack.UpTo {
					keep = append(keep, b)
				}
			}
			st.unacked = keep
			st.cond.Broadcast()
			st.mu.Unlock()
			if st.opts.OnAck != nil {
				st.opts.OnAck(ack)
			}
		case wire.KindError:
			se, derr := wire.DecodeError(&dec)
			if derr != nil {
				return
			}
			if se.Code == api.ErrUnavailable {
				// Transient refusal (shutdown, backpressure): let the
				// reconnect loop retry after the server's hint.
				if se.RetryAfterMS > 0 {
					time.Sleep(time.Duration(se.RetryAfterMS) * time.Millisecond)
				}
				return
			}
			st.fail(&api.Error{Code: se.Code, Message: "stream: " + se.Message, RetryAfterMS: se.RetryAfterMS})
			return
		default:
			st.fail(fmt.Errorf("client: stream: unexpected frame kind %d from server", kind))
			return
		}
	}
}

// terminalDialError marks a dial failure no retry can fix.
type terminalDialError struct{ err error }

func (e *terminalDialError) Error() string { return e.err.Error() }

// dial connects, performs the HTTP upgrade handshake and reads the hello
// frame. The returned bufio.Reader may already hold post-handshake bytes and
// must be used for all subsequent reads.
func (st *StreamIngester) dial() (net.Conn, *bufio.Reader, api.StreamHello, error) {
	var zero api.StreamHello
	u, err := url.Parse(st.s.c.base)
	if err != nil {
		return nil, nil, zero, &terminalDialError{fmt.Errorf("client: stream: bad base URL: %w", err)}
	}
	if u.Scheme != "http" {
		return nil, nil, zero, &terminalDialError{fmt.Errorf("client: stream: unsupported scheme %q (the streaming protocol needs a plain TCP connection)", u.Scheme)}
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", host, 10*time.Second)
	if err != nil {
		return nil, nil, zero, fmt.Errorf("client: stream: dial: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fail := func(err error) (net.Conn, *bufio.Reader, api.StreamHello, error) {
		conn.Close()
		return nil, nil, zero, err
	}
	req := fmt.Sprintf("POST %s/stream HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\nContent-Length: 0\r\n\r\n", st.s.prefix, u.Host, wire.StreamUpgrade)
	if _, err := io.WriteString(conn, req); err != nil {
		return fail(fmt.Errorf("client: stream: handshake write: %w", err))
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fail(fmt.Errorf("client: stream: handshake read: %w", err))
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return fail(decodeErrorBytes(resp.StatusCode, data))
	}
	payload, err := wire.NewFrameReader(br, wire.DefaultMaxFramePayload).Next()
	if err != nil {
		return fail(fmt.Errorf("client: stream: read hello: %w", err))
	}
	var dec wire.Decoder
	dec.Reset(payload)
	if kind := dec.Uvarint(); kind != wire.KindHello {
		return fail(&terminalDialError{fmt.Errorf("client: stream: expected hello frame, got kind %d", kind)})
	}
	hello, err := wire.DecodeHello(&dec)
	if err != nil {
		return fail(&terminalDialError{fmt.Errorf("client: stream: %w", err)})
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, hello, nil
}
