package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
	"repro/rfid/wire"
)

// newStreamTestServer is newTestServer with one epoch of lateness slack
// (HoldEpochs 1): with the default hold of 0 an Advance at a mid-epoch batch
// boundary seals that epoch partially and drops the rest as late, so the
// final engine state would depend on where batches happen to split. One epoch
// of slack makes state a function of the record stream alone, which is what
// lets these tests compare a streamed run against an HTTP reference run
// byte for byte.
func newStreamTestServer(t *testing.T) (*Server, *httptest.Server, []rfid.Reading, []rfid.LocationReport) {
	t.Helper()
	eng := testEngine
	eng.HoldEpochs = 1
	return newTestServerWith(t, Config{QueueSize: 64, IngestWait: 5 * time.Second}, eng)
}

// stateFingerprint renders a session's externally visible state (overview +
// every tracked tag's belief) into one comparable string.
func stateFingerprint(t *testing.T, base, sid string) string {
	t.Helper()
	var over api.SnapshotOverview
	if code := getJSON(t, base+"/v1/sessions/"+sid+"/snapshot", &over); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "epochs=%d watermark=%d reader=%+v\n", over.Epochs, over.Watermark, over.Reader)
	for _, tag := range over.Tracked {
		var snap api.TagSnapshot
		if code := getJSON(t, base+"/v1/sessions/"+sid+"/snapshot/"+url.PathEscape(tag), &snap); code != http.StatusOK {
			t.Fatalf("snapshot %s: status %d", tag, code)
		}
		data, _ := json.Marshal(snap)
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// referenceRun ingests the whole trace over plain HTTP and returns the
// resulting state fingerprint.
func referenceRun(t *testing.T, readings []rfid.Reading, locations []rfid.LocationReport) string {
	t.Helper()
	_, ts, _, _ := newStreamTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/sessions/default/ingest", ingestBody(readings, locations), nil); code != http.StatusAccepted {
		t.Fatalf("reference ingest: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("reference flush: status %d", code)
	}
	return stateFingerprint(t, ts.URL, "default")
}

// streamAll pushes the trace through a StreamIngester in time order (readings
// and location reports merged, exactly the stream a live deployment would
// produce — a record arriving long after its epoch would be dropped as late),
// calling mid halfway through (the hook reconnect tests use to cut the
// connection).
func streamAll(t *testing.T, st *client.StreamIngester, readings []rfid.Reading, locations []rfid.LocationReport, mid func()) {
	t.Helper()
	half := (len(readings) + len(locations)) / 2
	i, j, n := 0, 0, 0
	for i < len(readings) || j < len(locations) {
		if n == half && mid != nil {
			mid()
		}
		n++
		if j < len(locations) && (i >= len(readings) || locations[j].Time <= readings[i].Time) {
			l := locations[j]
			j++
			if err := st.AddLocation(api.LocationReport{
				Time: l.Time, X: l.Pos.X, Y: l.Pos.Y, Z: l.Pos.Z, Phi: l.Phi, HasPhi: l.HasPhi,
			}); err != nil {
				t.Fatalf("AddLocation: %v", err)
			}
		} else {
			r := readings[i]
			i++
			if err := st.AddReading(r.Time, string(r.Tag)); err != nil {
				t.Fatalf("AddReading: %v", err)
			}
		}
	}
}

// TestStreamIngestEndToEnd streams the full trace through the SDK's binary
// ingester and checks the resulting engine state is identical to the plain
// HTTP-batch reference run — same records, different transport, same state.
func TestStreamIngestEndToEnd(t *testing.T) {
	srv, ts, readings, locations := newStreamTestServer(t)
	want := referenceRun(t, readings, locations)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var acks int
	st := client.New(ts.URL).Session("default").Stream(client.StreamOptions{
		BatchSize: 64,
		OnAck:     func(api.StreamAck) { acks++ },
	})
	streamAll(t, st, readings, locations, nil)
	if err := st.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if acks == 0 {
		t.Fatal("no acknowledgements observed")
	}
	if ack := st.Acked(); ack.UpTo == 0 {
		t.Fatalf("final ack = %+v, want non-zero UpTo", ack)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if got := stateFingerprint(t, ts.URL, "default"); got != want {
		t.Errorf("streamed state differs from HTTP reference run:\n got %q\nwant %q", got, want)
	}
	sess, _ := srv.session("default")
	if n := sess.streamConns.Value(); n != 1 {
		t.Errorf("stream connections = %d, want 1", n)
	}
}

// TestStreamReconnectResume kills the server side of the connection
// mid-stream and checks the ingester reconnects, resumes from the server's
// acknowledged sequence and lands on state identical to an uninterrupted
// reference run — the exactly-once contract.
func TestStreamReconnectResume(t *testing.T) {
	srv, ts, readings, locations := newStreamTestServer(t)
	want := referenceRun(t, readings, locations)
	sess, _ := srv.session("default")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := client.New(ts.URL).Session("default").Stream(client.StreamOptions{
		BatchSize:     16,
		FlushInterval: 5 * time.Millisecond,
		ReconnectWait: 10 * time.Millisecond,
	})
	streamAll(t, st, readings, locations, func() {
		// Let some batches reach the server, then cut the connection from the
		// server side — the client only notices on its next read/write.
		deadline := time.Now().Add(5 * time.Second)
		for st.Acked().UpTo == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if sc := sess.stream.Load(); sc != nil {
			sc.kill()
		} else {
			t.Error("no active stream to kill")
		}
	})
	if err := st.Flush(ctx); err != nil {
		t.Fatalf("Flush after reconnect: %v", err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if got := stateFingerprint(t, ts.URL, "default"); got != want {
		t.Errorf("state after reconnect differs from uninterrupted run:\n got %q\nwant %q", got, want)
	}
	if n := sess.streamConns.Value(); n < 2 {
		t.Errorf("stream connections = %d, want >= 2 (a reconnect happened)", n)
	}
}

// rawStream opens a stream connection by hand (dial, upgrade, hello) so tests
// can speak raw frames at the server.
type rawStream struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	fr   *wire.FrameReader
	enc  wire.Encoder
}

func dialRawStream(t *testing.T, tsURL, sid string) (*rawStream, api.StreamHello) {
	t.Helper()
	u, err := url.Parse(tsURL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /v1/sessions/%s/stream HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: rfid-stream/1\r\nContent-Length: 0\r\n\r\n", sid, u.Host)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("handshake: status %d: %s", resp.StatusCode, body)
	}
	rs := &rawStream{t: t, conn: conn, br: br, fr: wire.NewFrameReader(br, wire.DefaultMaxFramePayload)}
	payload, err := rs.fr.Next()
	if err != nil {
		t.Fatalf("read hello: %v", err)
	}
	var dec wire.Decoder
	dec.Reset(payload)
	if kind := dec.Uvarint(); kind != wire.KindHello {
		t.Fatalf("first frame kind = %d, want hello", kind)
	}
	hello, err := wire.DecodeHello(&dec)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	return rs, hello
}

// sendBatch writes one batch frame with the given sequence number.
func (rs *rawStream) sendBatch(seq uint64, b wire.APIBatch) {
	rs.t.Helper()
	rs.enc.Reset()
	wire.AppendBatchFrame(&rs.enc, seq, b)
	if _, err := rs.conn.Write(wire.AppendFrame(nil, rs.enc.Bytes())); err != nil {
		rs.t.Fatalf("send batch %d: %v", seq, err)
	}
}

// next reads one server frame and returns its kind plus a decoder positioned
// after it.
func (rs *rawStream) next() (uint64, *wire.Decoder) {
	rs.t.Helper()
	payload, err := rs.fr.Next()
	if err != nil {
		rs.t.Fatalf("read frame: %v", err)
	}
	dec := new(wire.Decoder)
	dec.Reset(payload)
	return dec.Uvarint(), dec
}

func (rs *rawStream) expectAck(upTo uint64) api.StreamAck {
	rs.t.Helper()
	kind, dec := rs.next()
	if kind != wire.KindAck {
		rs.t.Fatalf("frame kind = %d, want ack", kind)
	}
	ack, err := wire.DecodeAck(dec)
	if err != nil {
		rs.t.Fatalf("decode ack: %v", err)
	}
	if ack.UpTo != upTo {
		rs.t.Fatalf("ack.UpTo = %d, want %d", ack.UpTo, upTo)
	}
	return ack
}

// TestStreamProtocolDupAndGap pins the raw-wire resume semantics: a duplicate
// sequence number is skipped but re-acknowledged, and a gap is a terminal
// protocol error reported through the structured error frame.
func TestStreamProtocolDupAndGap(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)
	rs, hello := dialRawStream(t, ts.URL, "default")
	if hello.ResumeAfter != 0 || hello.Window < 1 {
		t.Fatalf("hello = %+v, want resume 0 and a positive window", hello)
	}
	b := wire.APIBatch{Readings: []api.Reading{{Time: 0, Tag: "raw-obj"}}}
	rs.sendBatch(1, b)
	rs.expectAck(1)
	// Duplicate: already applied, must be re-acked, not re-applied.
	rs.sendBatch(1, b)
	rs.expectAck(1)
	// In-order next batch still works after the duplicate.
	rs.sendBatch(2, wire.APIBatch{Readings: []api.Reading{{Time: 1, Tag: "raw-obj"}}})
	rs.expectAck(2)
	// Gap: seq 4 after 2 is a protocol violation answered with an error frame.
	rs.sendBatch(4, b)
	for {
		kind, dec := rs.next()
		if kind == wire.KindAck {
			continue // a straggler re-ack may precede the error
		}
		if kind != wire.KindError {
			t.Fatalf("frame kind = %d, want error", kind)
		}
		se, err := wire.DecodeError(dec)
		if err != nil {
			t.Fatalf("decode error frame: %v", err)
		}
		if se.Code != api.ErrBadRequest {
			t.Fatalf("error code = %q, want %q", se.Code, api.ErrBadRequest)
		}
		break
	}
	// The server tears the connection down after the error frame.
	if _, err := rs.fr.Next(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestStreamTakeover pins the single-stream policy: a second stream on the
// same session kicks the first connection out and takes over at the correct
// resume point.
func TestStreamTakeover(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)
	rs1, _ := dialRawStream(t, ts.URL, "default")
	rs1.sendBatch(1, wire.APIBatch{Readings: []api.Reading{{Time: 0, Tag: "tk-obj"}}})
	rs1.expectAck(1)
	rs2, hello2 := dialRawStream(t, ts.URL, "default")
	if hello2.ResumeAfter != 1 {
		t.Fatalf("takeover hello.ResumeAfter = %d, want 1", hello2.ResumeAfter)
	}
	// The first connection is dead: reads drain to an error.
	_ = rs1.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := rs1.fr.Next(); err != nil {
			break
		}
	}
	rs2.sendBatch(2, wire.APIBatch{Readings: []api.Reading{{Time: 1, Tag: "tk-obj"}}})
	rs2.expectAck(2)
}

// TestStreamDecodeZeroAlloc pins the server decode hot path: after warm-up
// (scratch slices grown, tags interned, frame buffer sized), decoding a batch
// frame into the engine's record representation allocates nothing.
func TestStreamDecodeZeroAlloc(t *testing.T) {
	sc := newStreamConn(nil, 4)
	sb := <-sc.free
	batch := wire.APIBatch{}
	for i := 0; i < 64; i++ {
		batch.Readings = append(batch.Readings, api.Reading{Time: i / 8, Tag: fmt.Sprintf("obj-%d", i%16)})
	}
	for i := 0; i < 8; i++ {
		batch.Locations = append(batch.Locations, api.LocationReport{Time: i, X: float64(i), Y: 2, Z: 3, Phi: 0.5, HasPhi: true})
	}
	var enc wire.Encoder
	wire.AppendBatchFrame(&enc, 1, batch)
	frame := wire.AppendFrame(nil, enc.Bytes())
	const total = 256
	buf := bytes.Repeat(frame, total)
	rd := bytes.NewReader(buf)
	fr := wire.NewFrameReader(rd, 1<<20)
	var dec wire.Decoder
	decodeOne := func() {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		dec.Reset(payload)
		if kind := dec.Uvarint(); kind != wire.KindBatch {
			t.Fatalf("kind = %d", kind)
		}
		_ = dec.Uvarint() // seq
		sb.readings = sb.readings[:0]
		sb.locations = sb.locations[:0]
		if err := wire.DecodeBatch(&dec, sb); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Remaining() != 0 {
			t.Fatalf("%d trailing bytes", dec.Remaining())
		}
	}
	for i := 0; i < 16; i++ {
		decodeOne() // warm up scratch growth and the tag intern table
	}
	if avg := testing.AllocsPerRun(128, decodeOne); avg != 0 {
		t.Errorf("stream decode path allocates %v allocs/batch, want 0", avg)
	}
	if len(sb.readings) != 64 || len(sb.locations) != 8 {
		t.Fatalf("decoded %d readings / %d locations, want 64/8", len(sb.readings), len(sb.locations))
	}
}
