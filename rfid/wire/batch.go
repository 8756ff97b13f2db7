package wire

import (
	"fmt"

	"repro/rfid/api"
)

// This file defines the single canonical encoding of a record batch — the
// payload tail both a WAL RecBatch record and a stream batch frame carry —
// plus the control frames of the streaming ingest protocol.
//
// Batch body layout:
//
//	uvarint numReadings
//	repeated { varint time, string tag }
//	uvarint numLocations
//	repeated { varint time, f64 x, f64 y, f64 z, f64 phi, bool hasPhi }

// ProtoVersion is the streaming ingest protocol version carried in the hello
// frame.
const ProtoVersion = 1

// Stream frame kinds: the first uvarint of every frame payload on a stream
// connection.
const (
	// KindHello (server -> client): version, resume point, window, frame cap.
	KindHello = 1
	// KindBatch (client -> server): uvarint sequence number, then batch body.
	KindBatch = 2
	// KindAck (server -> client): cumulative durable acknowledgement.
	KindAck = 3
	// KindError (server -> client): terminal structured error.
	KindError = 4
	// KindClose (client -> server): graceful end of stream (empty body).
	KindClose = 5
)

// BatchSource is the write side of the batch codec: any container of raw
// records can be encoded without first converting into an intermediate
// representation.
type BatchSource interface {
	NumReadings() int
	// ReadingAt returns the i-th raw reading.
	ReadingAt(i int) (time int, tag string)
	NumLocations() int
	// LocationAt returns the i-th raw reader-location report.
	LocationAt(i int) (time int, x, y, z, phi float64, hasPhi bool)
}

// BatchSink is the read side: DecodeBatch streams records into it one at a
// time, so the decoder allocates nothing on behalf of the caller. The tag
// bytes are BORROWED — they alias the decoder's buffer and are only valid for
// the duration of the call; a sink that keeps tags must copy (or intern)
// them.
type BatchSink interface {
	Reading(time int, tag []byte)
	Location(time int, x, y, z, phi float64, hasPhi bool)
}

// AppendBatch encodes src's records onto e in the canonical batch layout.
func AppendBatch(e *Encoder, src BatchSource) {
	nr := src.NumReadings()
	e.Uvarint(uint64(nr))
	for i := 0; i < nr; i++ {
		t, tag := src.ReadingAt(i)
		e.Int(t)
		e.String(tag)
	}
	nl := src.NumLocations()
	e.Uvarint(uint64(nl))
	for i := 0; i < nl; i++ {
		t, x, y, z, phi, hasPhi := src.LocationAt(i)
		e.Int(t)
		e.Float64(x)
		e.Float64(y)
		e.Float64(z)
		e.Float64(phi)
		e.Bool(hasPhi)
	}
}

// DecodeBatch decodes a batch body from d, streaming each record into sink.
// It consumes exactly the batch body; trailing-byte validation is the
// caller's business (a WAL record ends here, a stream frame too).
func DecodeBatch(d *Decoder, sink BatchSink) error {
	nr := d.SliceLen(2) // >= varint time + empty-string prefix per reading
	for i := 0; i < nr; i++ {
		t := d.Int()
		tag := d.StringBytes()
		if d.Err() != nil {
			return d.Err()
		}
		sink.Reading(t, tag)
	}
	nl := d.SliceLen(34) // varint time + 4 float64s + bool per location
	for i := 0; i < nl; i++ {
		t := d.Int()
		x := d.Float64()
		y := d.Float64()
		z := d.Float64()
		phi := d.Float64()
		hasPhi := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		sink.Location(t, x, y, z, phi, hasPhi)
	}
	return d.Err()
}

// APIBatch adapts the public DTO batch shape (api.Reading/api.LocationReport
// slices) to BatchSource, for callers that already hold DTOs — the SDK's
// StreamIngester and tests.
type APIBatch struct {
	Readings  []api.Reading
	Locations []api.LocationReport
}

// NumReadings implements BatchSource.
func (b APIBatch) NumReadings() int { return len(b.Readings) }

// ReadingAt implements BatchSource.
func (b APIBatch) ReadingAt(i int) (int, string) {
	return b.Readings[i].Time, b.Readings[i].Tag
}

// NumLocations implements BatchSource.
func (b APIBatch) NumLocations() int { return len(b.Locations) }

// LocationAt implements BatchSource.
func (b APIBatch) LocationAt(i int) (int, float64, float64, float64, float64, bool) {
	l := b.Locations[i]
	return l.Time, l.X, l.Y, l.Z, l.Phi, l.HasPhi
}

// AppendBatchFrame encodes a complete stream batch frame payload (kind,
// sequence number, batch body) onto e.
func AppendBatchFrame(e *Encoder, seq uint64, src BatchSource) {
	e.Uvarint(KindBatch)
	e.Uvarint(seq)
	AppendBatch(e, src)
}

// AppendHello encodes a hello frame payload onto e.
func AppendHello(e *Encoder, h api.StreamHello) {
	e.Uvarint(KindHello)
	e.Uvarint(uint64(h.Version))
	e.Uvarint(h.ResumeAfter)
	e.Uvarint(uint64(h.Window))
	e.Uvarint(uint64(h.MaxFrameBytes))
}

// DecodeHello decodes a hello frame body (the kind uvarint already consumed).
func DecodeHello(d *Decoder) (api.StreamHello, error) {
	h := api.StreamHello{
		Version:       int(d.Uvarint()),
		ResumeAfter:   d.Uvarint(),
		Window:        int(d.Uvarint()),
		MaxFrameBytes: int(d.Uvarint()),
	}
	if err := d.Err(); err != nil {
		return api.StreamHello{}, err
	}
	if h.Version != ProtoVersion {
		return api.StreamHello{}, fmt.Errorf("wire: unsupported stream protocol version %d (want %d)", h.Version, ProtoVersion)
	}
	return h, nil
}

// AppendAck encodes an ack frame payload onto e.
func AppendAck(e *Encoder, a api.StreamAck) {
	e.Uvarint(KindAck)
	e.Uvarint(a.UpTo)
	e.Bool(a.Durable)
	e.Int(a.Watermark)
	e.Uvarint(uint64(a.Window))
}

// DecodeAck decodes an ack frame body (the kind uvarint already consumed).
func DecodeAck(d *Decoder) (api.StreamAck, error) {
	a := api.StreamAck{
		UpTo:      d.Uvarint(),
		Durable:   d.Bool(),
		Watermark: d.Int(),
		Window:    int(d.Uvarint()),
	}
	return a, d.Err()
}

// AppendError encodes a terminal error frame payload onto e.
func AppendError(e *Encoder, se api.StreamError) {
	e.Uvarint(KindError)
	e.String(se.Code)
	e.String(se.Message)
	e.Uvarint(uint64(se.RetryAfterMS))
}

// DecodeError decodes an error frame body (the kind uvarint already
// consumed).
func DecodeError(d *Decoder) (api.StreamError, error) {
	se := api.StreamError{
		Code:         d.String(),
		Message:      d.String(),
		RetryAfterMS: int(d.Uvarint()),
	}
	return se, d.Err()
}

// AppendClose encodes the graceful end-of-stream frame payload onto e.
func AppendClose(e *Encoder) { e.Uvarint(KindClose) }
