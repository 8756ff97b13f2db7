package serve

// The replica node's end of the replication link. A follower dials the
// primary's POST /v1/replicate, upgrades the connection to the framed
// rfid-repl/1 protocol, says hello with the cursor of every session it already
// mirrors, and then hands what the primary ships — checkpoint bootstrap
// images, WAL records, heartbeats — straight to the sessions through
// replBootstrap and replApply (replica.go), acking cumulative progress so the
// primary can garbage-collect behind it. One goroutine runs the connection, so shipped frames are handled
// in shipping order.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/rfid/wire"
)

// Follower link timing: each connection attempt is bounded by
// followDialTimeout, and reconnects back off from followMinBackoff, doubling
// up to followMaxBackoff.
const (
	followDialTimeout = 10 * time.Second
	followMinBackoff  = 250 * time.Millisecond
	followMaxBackoff  = 5 * time.Second
)

// follower is a running replication client; stop ends it.
type follower struct {
	sv      *Server
	primary string // host:port
	name    string // sent in the hello; names this node in the primary's logs
	// dial opens the TCP connection to the primary: a net.Dialer's in New, a
	// hook in the test that races a stop against it.
	dial   func(ctx context.Context, network, addr string) (net.Conn, error)
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn
}

// startFollower launches the follower's connection loop: connect, catch up,
// tail, reconnect with backoff on any error, until stop. The follower is named
// by Config.ReplicaName, else the hostname, else "replica".
func (sv *Server) startFollower(primary string, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *follower {
	name := sv.cfg.ReplicaName
	if name == "" {
		name, _ = os.Hostname()
	}
	if name == "" {
		name = "replica"
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{sv: sv, primary: primary, name: name, dial: dial, ctx: ctx, cancel: cancel}
	f.wg.Add(1)
	go f.run()
	return f
}

// stop tears the current connection down and ends the loop. It returns once
// the connection goroutine has, so no shipped frame is being handled after it.
func (f *follower) stop() {
	f.cancel()
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *follower) run() {
	defer f.wg.Done()
	// The hello names only sessions that finished startup. Wait for the ones
	// New restored, so a restarted replica resumes them in place instead of
	// being re-bootstrapped; a session whose startup failed stays out of it.
	for _, s := range f.sv.snapshotSessions() {
		_ = s.waitReady(f.ctx.Done())
	}
	backoff := followMinBackoff
	for f.ctx.Err() == nil {
		started := time.Now()
		err := f.link()
		if f.ctx.Err() != nil {
			return
		}
		if time.Since(started) > 10*time.Second {
			backoff = followMinBackoff // the link worked; this is a fresh failure
		}
		f.sv.cfg.Logger.Warn("replication link down; reconnecting",
			"primary", f.primary, "backoff", backoff, "err", err)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, followMaxBackoff)
	}
}

// link runs one connection: handshake, hello, then the receive loop until an
// error ends it.
func (f *follower) link() error {
	dctx, cancel := context.WithTimeout(f.ctx, followDialTimeout)
	conn, err := f.dial(dctx, "tcp", f.primary)
	cancel()
	if err != nil {
		return err
	}
	// Publish the connection and look for a stop in one section: a stop that
	// cancelled during the dial found no connection to close, and the
	// primary's heartbeats would keep this one open.
	f.mu.Lock()
	f.conn = conn
	stopped := f.ctx.Err()
	f.mu.Unlock()
	defer func() {
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()
	if stopped != nil {
		return stopped
	}

	// Upgrade handshake, bounded as a whole.
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(conn, "POST /v1/replicate HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n",
		f.primary, wire.ReplUpgrade); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("reading upgrade response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		return fmt.Errorf("primary refused replication: %s", resp.Status)
	}
	_ = conn.SetDeadline(time.Time{})

	var enc wire.Encoder
	var frame []byte
	writeFrame := func() error {
		frame = wire.AppendFrame(frame[:0], enc.Bytes())
		_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		_, err := conn.Write(frame)
		return err
	}
	// The hello carries every cursor this node already mirrors; the primary
	// resumes a session in place exactly when it announces the position we
	// sent for it.
	cursors := f.sv.replCursors()
	sent := make(map[string]wire.ReplCursor, len(cursors))
	for _, c := range cursors {
		sent[c.SID] = c
	}
	enc.Reset()
	wire.AppendReplHello(&enc, wire.ReplHello{Version: wire.ReplProtoVersion, Name: f.name, Cursors: cursors})
	if err := writeFrame(); err != nil {
		return err
	}
	ackAll := func() error {
		enc.Reset()
		wire.AppendReplAck(&enc, wire.ReplAck{Cursors: f.sv.replCursors()})
		return writeFrame()
	}

	// A checkpoint image arriving in chunks for a session being bootstrapped,
	// with its announcement.
	type pending struct {
		ann   wire.ReplSession
		image []byte
	}
	pend := make(map[string]*pending)

	fr := wire.NewFrameReader(br, maxBodyBytes+(4<<10))
	for {
		// The primary heartbeats after ~1s idle; a silent link this long is
		// dead.
		_ = conn.SetReadDeadline(time.Now().Add(90 * time.Second))
		payload, err := fr.Next()
		if err != nil {
			return err
		}
		var dec wire.Decoder
		dec.Reset(payload)
		switch kind := dec.Uvarint(); kind {
		case wire.KindReplSession:
			s, err := wire.DecodeReplSession(&dec)
			if err != nil {
				return err
			}
			if s.SnapshotBytes > 0 {
				pend[s.SID] = &pending{ann: s, image: make([]byte, 0, s.SnapshotBytes)}
				continue
			}
			if c, ok := sent[s.SID]; ok && c.Seg == s.Seg && c.Off == s.Off {
				continue // resume in place: the mirror is already positioned
			}
			// Fresh start: no checkpoint on the primary yet, mirror from an
			// empty log at the announced position.
			if err := f.sv.replBootstrap(s.SID, s.Manifest, nil, s.Seg, s.Off); err != nil {
				return err
			}
			if err := ackAll(); err != nil {
				return err
			}
		case wire.KindReplSnapshot:
			sn, err := wire.DecodeReplSnapshot(&dec)
			if err != nil {
				return err
			}
			p, ok := pend[sn.SID]
			if !ok {
				return fmt.Errorf("snapshot chunk for unannounced session %q", sn.SID)
			}
			p.image = append(p.image, sn.Chunk...)
			if !sn.Last {
				continue
			}
			delete(pend, sn.SID)
			if int64(len(p.image)) != p.ann.SnapshotBytes {
				return fmt.Errorf("session %q snapshot: got %d bytes, announced %d", sn.SID, len(p.image), p.ann.SnapshotBytes)
			}
			if err := f.sv.replBootstrap(sn.SID, p.ann.Manifest, p.image, p.ann.Seg, p.ann.Off); err != nil {
				return err
			}
			if err := ackAll(); err != nil {
				return err
			}
		case wire.KindReplRecord:
			rec, err := wire.DecodeReplRecord(&dec)
			if err != nil {
				return err
			}
			cur, err := f.sv.replApply(rec)
			if err != nil {
				return err
			}
			enc.Reset()
			wire.AppendReplAck(&enc, wire.ReplAck{Cursors: []wire.ReplCursor{cur}})
			if err := writeFrame(); err != nil {
				return err
			}
		case wire.KindReplHeartbeat:
			hb, err := wire.DecodeReplHeartbeat(&dec)
			if err != nil {
				return err
			}
			// The heartbeat's stamp keeps the staleness estimate honest
			// between records; the ack doubles as the liveness signal the
			// primary's reader waits on.
			f.sv.repl.noteLag(hb.Nanos)
			if err := ackAll(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected replication frame kind %d", kind)
		}
	}
}
