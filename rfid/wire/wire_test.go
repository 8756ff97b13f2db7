package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/rfid/api"
)

// apiSink collects decoded records back into DTO slices (the inverse of
// APIBatch).
type apiSink struct{ b *APIBatch }

func (s apiSink) Reading(t int, tag []byte) {
	s.b.Readings = append(s.b.Readings, api.Reading{Time: t, Tag: string(tag)})
}

func (s apiSink) Location(t int, x, y, z, phi float64, hasPhi bool) {
	s.b.Locations = append(s.b.Locations, api.LocationReport{Time: t, X: x, Y: y, Z: z, Phi: phi, HasPhi: hasPhi})
}

// decodeAPIBatch decodes a batch body into fresh DTO slices.
func decodeAPIBatch(d *Decoder) (APIBatch, error) {
	var b APIBatch
	err := DecodeBatch(d, apiSink{&b})
	return b, err
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var e Encoder
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Varint(-77)
	e.Int(math.MaxInt32)
	e.Bool(true)
	e.Bool(false)
	e.Float64(-3.25)
	e.Float64(math.Inf(1))
	e.String("")
	e.String("tag-α")

	var d Decoder
	d.Reset(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint 0: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint 2^40: got %d", got)
	}
	if got := d.Varint(); got != -77 {
		t.Errorf("varint -77: got %d", got)
	}
	if got := d.Int(); got != math.MaxInt32 {
		t.Errorf("int: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool round trip failed")
	}
	if got := d.Float64(); got != -3.25 {
		t.Errorf("float64: got %v", got)
	}
	if got := d.Float64(); !math.IsInf(got, 1) {
		t.Errorf("float64 +inf: got %v", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty string: got %q", got)
	}
	if got := d.String(); got != "tag-α" {
		t.Errorf("string: got %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining %d bytes", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	var d Decoder
	d.Reset([]byte{0x80}) // truncated uvarint
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("want error on truncated uvarint")
	}
	first := d.Err()
	// Every later read is a zero value and the error stays the first one.
	if d.Int() != 0 || d.Bool() || d.Float64() != 0 || d.String() != "" {
		t.Error("poisoned decoder returned non-zero values")
	}
	if d.Err() != first {
		t.Error("sticky error was replaced")
	}
	// Reset clears the poison.
	d.Reset([]byte{7})
	if got := d.Uvarint(); got != 7 || d.Err() != nil {
		t.Errorf("after Reset: got %d err %v", got, d.Err())
	}
}

func TestDecoderGuards(t *testing.T) {
	var e Encoder
	e.Uvarint(1 << 50) // absurd length prefix
	var d Decoder
	d.Reset(e.Bytes())
	if d.StringBytes() != nil || d.Err() == nil {
		t.Error("string length guard did not trip")
	}
	d.Reset(e.Bytes())
	if d.SliceLen(2) != 0 || d.Err() == nil {
		t.Error("slice length guard did not trip")
	}
	d.Reset([]byte{2}) // bool byte > 1
	d.Bool()
	if d.Err() == nil {
		t.Error("bool byte guard did not trip")
	}
}

func TestFrameRoundTripAndTornTail(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("alpha"))
	buf = AppendFrame(buf, nil)
	buf = AppendFrame(buf, []byte("gamma"))

	var got []string
	rest := buf
	for {
		payload, next, err := NextFrame(rest)
		if err != nil {
			t.Fatalf("NextFrame: %v", err)
		}
		if payload == nil && next == nil {
			break
		}
		got = append(got, string(payload))
		rest = next
	}
	if !reflect.DeepEqual(got, []string{"alpha", "", "gamma"}) {
		t.Fatalf("frames: %q", got)
	}

	// Every strict prefix that cuts a frame yields ErrShortFrame at that
	// frame, never a panic or a bogus decode.
	if _, _, err := NextFrame(buf[:3]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("cut header: got %v", err)
	}
	if _, _, err := NextFrame(buf[:10]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("cut payload: got %v", err)
	}
	// Flip a payload byte: CRC mismatch.
	bad := bytes.Clone(buf)
	bad[9] ^= 0xff
	if _, _, err := NextFrame(bad); !errors.Is(err, ErrFrameCRC) {
		t.Errorf("corrupt payload: got %v", err)
	}
}

func TestFrameReader(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("one"))
	buf = AppendFrame(buf, []byte("two-longer"))

	fr := NewFrameReader(bytes.NewReader(buf), 0)
	p, err := fr.Next()
	if err != nil || string(p) != "one" {
		t.Fatalf("frame 1: %q %v", p, err)
	}
	p, err = fr.Next()
	if err != nil || string(p) != "two-longer" {
		t.Fatalf("frame 2: %q %v", p, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v", err)
	}

	// A connection cut mid-frame is ErrShortFrame, not io.EOF.
	fr = NewFrameReader(bytes.NewReader(buf[:5]), 0)
	if _, err := fr.Next(); !errors.Is(err, ErrShortFrame) {
		t.Errorf("cut header: got %v", err)
	}
	fr = NewFrameReader(bytes.NewReader(buf[:9]), 0)
	if _, err := fr.Next(); !errors.Is(err, ErrShortFrame) {
		t.Errorf("cut payload: got %v", err)
	}

	// The payload cap rejects oversized length prefixes before allocating.
	big := AppendFrame(nil, make([]byte, 100))
	fr = NewFrameReader(bytes.NewReader(big), 10)
	if _, err := fr.Next(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func testBatch() APIBatch {
	return APIBatch{
		Readings: []api.Reading{
			{Time: 3, Tag: "obj-1"},
			{Time: 3, Tag: "shelf-a"},
			{Time: 4, Tag: ""},
		},
		Locations: []api.LocationReport{
			{Time: 3, X: 1.5, Y: -2, Z: 0.25, Phi: 0.5, HasPhi: true},
			{Time: 4, X: 0, Y: 0, Z: 0},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := testBatch()
	var e Encoder
	AppendBatch(&e, in)
	var d Decoder
	d.Reset(e.Bytes())
	out, err := decodeAPIBatch(&d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining %d bytes", d.Remaining())
	}

	// An empty batch round-trips too (both counts zero).
	e.Reset()
	AppendBatch(&e, APIBatch{})
	d.Reset(e.Bytes())
	out, err = decodeAPIBatch(&d)
	if err != nil || len(out.Readings) != 0 || len(out.Locations) != 0 {
		t.Fatalf("empty batch: %+v %v", out, err)
	}
}

func TestBatchFrame(t *testing.T) {
	in := testBatch()
	var e Encoder
	AppendBatchFrame(&e, 42, in)
	var d Decoder
	d.Reset(e.Bytes())
	if kind := d.Uvarint(); kind != KindBatch {
		t.Fatalf("kind: got %d", kind)
	}
	if seq := d.Uvarint(); seq != 42 {
		t.Fatalf("seq: got %d", seq)
	}
	out, err := decodeAPIBatch(&d)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("body: %+v %v", out, err)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	var e Encoder
	var d Decoder

	hello := api.StreamHello{Version: ProtoVersion, ResumeAfter: 17, Window: 64, MaxFrameBytes: 1 << 20}
	e.Reset()
	AppendHello(&e, hello)
	d.Reset(e.Bytes())
	if kind := d.Uvarint(); kind != KindHello {
		t.Fatalf("hello kind: %d", kind)
	}
	if got, err := DecodeHello(&d); err != nil || got != hello {
		t.Fatalf("hello: %+v %v", got, err)
	}

	// A hello from a future protocol version is rejected.
	e.Reset()
	AppendHello(&e, api.StreamHello{Version: ProtoVersion + 1})
	d.Reset(e.Bytes())
	d.Uvarint()
	if _, err := DecodeHello(&d); err == nil {
		t.Fatal("future protocol version accepted")
	}

	ack := api.StreamAck{UpTo: 99, Durable: true, Watermark: -1, Window: 8}
	e.Reset()
	AppendAck(&e, ack)
	d.Reset(e.Bytes())
	if kind := d.Uvarint(); kind != KindAck {
		t.Fatalf("ack kind: %d", kind)
	}
	if got, err := DecodeAck(&d); err != nil || got != ack {
		t.Fatalf("ack: %+v %v", got, err)
	}

	se := api.StreamError{Code: api.ErrUnavailable, Message: "queue full", RetryAfterMS: 250}
	e.Reset()
	AppendError(&e, se)
	d.Reset(e.Bytes())
	if kind := d.Uvarint(); kind != KindError {
		t.Fatalf("error kind: %d", kind)
	}
	if got, err := DecodeError(&d); err != nil || got != se {
		t.Fatalf("error: %+v %v", got, err)
	}

	e.Reset()
	AppendClose(&e)
	d.Reset(e.Bytes())
	if kind := d.Uvarint(); kind != KindClose || d.Remaining() != 0 {
		t.Fatalf("close frame: kind %d remaining %d", kind, d.Remaining())
	}
}

func TestEncoderLenReset(t *testing.T) {
	var e Encoder
	if e.Len() != 0 {
		t.Fatalf("fresh encoder Len = %d", e.Len())
	}
	e.Uvarint(300)
	if e.Len() != len(e.Bytes()) || e.Len() == 0 {
		t.Fatalf("Len = %d, Bytes = %d", e.Len(), len(e.Bytes()))
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
}
