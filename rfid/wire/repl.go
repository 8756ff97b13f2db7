package wire

// Replication protocol frames. A follower connects with POST /v1/replicate
// (an upgrade handshake mirroring the streaming-ingest one, Upgrade token
// ReplUpgrade), sends a ReplHello carrying a resume cursor per session, and
// the primary responds with, per session: a ReplSession announcement (with
// the session manifest and checkpoint size when the follower must bootstrap),
// ReplSnapshot chunks of the checkpoint image, then a stream of ReplRecord
// frames — raw WAL record payloads stamped with the exact (segment, offset)
// they occupy in the primary's log, so the follower can mirror the log
// byte-for-byte. The follower answers with cumulative ReplAck frames; the
// primary fills idle gaps with ReplHeartbeat so the follower can measure
// staleness while fully caught up.
//
// These frames are server-to-server protocol, not public API, so their types
// live here rather than in rfid/api. Like every frame on a wire connection,
// the first uvarint of the payload is the kind.

import "fmt"

// The Upgrade header tokens of the two framed connection types: a POST
// .../stream connection switches to streaming ingest, a POST /v1/replicate
// connection to replication.
const (
	StreamUpgrade = "rfid-stream/1"
	ReplUpgrade   = "rfid-repl/1"
)

// ReplProtoVersion is the replication protocol version carried in the hello.
const ReplProtoVersion = 1

// Replication frame kinds (continuing the stream-kind space, so a frame can
// never be misread across the two connection types).
const (
	// KindReplHello (follower -> primary): version, follower name, resume
	// cursors.
	KindReplHello = 6
	// KindReplSession (primary -> follower): session announcement; a non-zero
	// SnapshotBytes means "bootstrap: snapshot chunks follow".
	KindReplSession = 7
	// KindReplSnapshot (primary -> follower): one chunk of a checkpoint image.
	KindReplSnapshot = 8
	// KindReplRecord (primary -> follower): one WAL record payload at its
	// exact log position.
	KindReplRecord = 9
	// KindReplAck (follower -> primary): cumulative applied positions.
	KindReplAck = 10
	// KindReplHeartbeat (primary -> follower): liveness + staleness clock
	// while there is nothing to ship.
	KindReplHeartbeat = 11
)

// ReplCursor is one session's replication position: the next WAL byte the
// follower needs (in a hello) or has durably applied through (in an ack).
type ReplCursor struct {
	// SID is the session id ("" is the default session).
	SID string
	// Seg and Off address the next unread byte in the session's WAL.
	Seg uint64
	Off int64
	// AppliedEpoch is the follower's applied engine epoch at this position
	// (acks only; -1 before any epoch sealed).
	AppliedEpoch int64
}

// ReplHello is the follower's opening frame.
type ReplHello struct {
	// Version is ReplProtoVersion.
	Version int
	// Name identifies the follower in the primary's logs and metrics.
	Name string
	// Cursors is the follower's resume position for every session it already
	// mirrors; sessions absent here are bootstrapped from a checkpoint.
	Cursors []ReplCursor
}

// ReplSession announces a session the primary is about to ship.
type ReplSession struct {
	// SID is the session id ("" is the default session).
	SID string
	// Manifest is the session's manifest JSON (empty for the default
	// session, whose engine configuration comes from the process flags).
	Manifest string
	// SnapshotBytes is the total size of the checkpoint image about to be
	// chunked in ReplSnapshot frames; 0 means no bootstrap is needed (the
	// follower's cursor was accepted, or the session has no checkpoint yet
	// and shipping starts from the oldest WAL segment).
	SnapshotBytes int64
	// Seg and Off are where record shipping will start for this session.
	Seg uint64
	Off int64
}

// ReplSnapshot carries one chunk of a checkpoint image during bootstrap.
type ReplSnapshot struct {
	// SID is the session being bootstrapped.
	SID string
	// Last marks the final chunk.
	Last bool
	// Chunk is the next run of image bytes. On decode it BORROWS the
	// decoder's buffer — valid only until the next frame is read.
	Chunk []byte
}

// ReplRecord ships one WAL record payload at its exact position in the
// primary's log.
type ReplRecord struct {
	// SID is the session the record belongs to.
	SID string
	// Seg and Off are the byte position of the record's frame in the
	// session's WAL — the follower mirrors the frame at the same position.
	Seg uint64
	Off int64
	// ShipNanos is the primary's wall clock when the record was shipped,
	// the follower's replication-lag measurement.
	ShipNanos int64
	// Payload is the raw record payload (unframed). On decode it BORROWS the
	// decoder's buffer — valid only until the next frame is read.
	Payload []byte
}

// ReplAck is the follower's cumulative progress report.
type ReplAck struct {
	// Cursors holds one entry per session with new progress.
	Cursors []ReplCursor
}

// ReplHeartbeat keeps an idle connection measurably alive.
type ReplHeartbeat struct {
	// Nanos is the primary's wall clock at send time.
	Nanos int64
}

// AppendReplHello encodes a hello frame payload onto e.
func AppendReplHello(e *Encoder, h ReplHello) {
	e.Uvarint(KindReplHello)
	e.Uvarint(uint64(h.Version))
	e.String(h.Name)
	e.Uvarint(uint64(len(h.Cursors)))
	for _, c := range h.Cursors {
		e.String(c.SID)
		e.Uvarint(c.Seg)
		e.Varint(c.Off)
	}
}

// DecodeReplHello decodes a hello frame body (kind already consumed).
func DecodeReplHello(d *Decoder) (ReplHello, error) {
	h := ReplHello{
		Version: int(d.Uvarint()),
		Name:    d.String(),
	}
	n := d.SliceLen(3) // >= empty sid + seg + off per cursor
	for i := 0; i < n; i++ {
		c := ReplCursor{SID: d.String(), Seg: d.Uvarint(), Off: d.Varint()}
		if d.Err() != nil {
			break
		}
		h.Cursors = append(h.Cursors, c)
	}
	if err := d.Err(); err != nil {
		return ReplHello{}, err
	}
	if h.Version != ReplProtoVersion {
		return ReplHello{}, fmt.Errorf("wire: unsupported replication protocol version %d (want %d)", h.Version, ReplProtoVersion)
	}
	return h, nil
}

// AppendReplSession encodes a session announcement onto e.
func AppendReplSession(e *Encoder, s ReplSession) {
	e.Uvarint(KindReplSession)
	e.String(s.SID)
	e.String(s.Manifest)
	e.Varint(s.SnapshotBytes)
	e.Uvarint(s.Seg)
	e.Varint(s.Off)
}

// DecodeReplSession decodes a session announcement (kind already consumed).
func DecodeReplSession(d *Decoder) (ReplSession, error) {
	s := ReplSession{
		SID:           d.String(),
		Manifest:      d.String(),
		SnapshotBytes: d.Varint(),
		Seg:           d.Uvarint(),
		Off:           d.Varint(),
	}
	return s, d.Err()
}

// AppendReplSnapshot encodes a snapshot chunk onto e.
func AppendReplSnapshot(e *Encoder, s ReplSnapshot) {
	e.Uvarint(KindReplSnapshot)
	e.String(s.SID)
	e.Bool(s.Last)
	e.Uvarint(uint64(len(s.Chunk)))
	e.buf = append(e.buf, s.Chunk...)
}

// DecodeReplSnapshot decodes a snapshot chunk (kind already consumed). Chunk
// borrows the decoder's buffer.
func DecodeReplSnapshot(d *Decoder) (ReplSnapshot, error) {
	s := ReplSnapshot{
		SID:   d.String(),
		Last:  d.Bool(),
		Chunk: d.StringBytes(),
	}
	return s, d.Err()
}

// AppendReplRecord encodes a shipped WAL record onto e.
func AppendReplRecord(e *Encoder, r ReplRecord) {
	e.Uvarint(KindReplRecord)
	e.String(r.SID)
	e.Uvarint(r.Seg)
	e.Varint(r.Off)
	e.Varint(r.ShipNanos)
	e.Uvarint(uint64(len(r.Payload)))
	e.buf = append(e.buf, r.Payload...)
}

// DecodeReplRecord decodes a shipped WAL record (kind already consumed).
// Payload borrows the decoder's buffer.
func DecodeReplRecord(d *Decoder) (ReplRecord, error) {
	r := ReplRecord{
		SID:       d.String(),
		Seg:       d.Uvarint(),
		Off:       d.Varint(),
		ShipNanos: d.Varint(),
		Payload:   d.StringBytes(),
	}
	return r, d.Err()
}

// AppendReplAck encodes a cumulative ack onto e.
func AppendReplAck(e *Encoder, a ReplAck) {
	e.Uvarint(KindReplAck)
	e.Uvarint(uint64(len(a.Cursors)))
	for _, c := range a.Cursors {
		e.String(c.SID)
		e.Uvarint(c.Seg)
		e.Varint(c.Off)
		e.Varint(c.AppliedEpoch)
	}
}

// DecodeReplAck decodes a cumulative ack (kind already consumed).
func DecodeReplAck(d *Decoder) (ReplAck, error) {
	var a ReplAck
	n := d.SliceLen(4) // >= empty sid + seg + off + epoch per cursor
	for i := 0; i < n; i++ {
		c := ReplCursor{
			SID:          d.String(),
			Seg:          d.Uvarint(),
			Off:          d.Varint(),
			AppliedEpoch: d.Varint(),
		}
		if d.Err() != nil {
			break
		}
		a.Cursors = append(a.Cursors, c)
	}
	return a, d.Err()
}

// AppendReplHeartbeat encodes a heartbeat onto e.
func AppendReplHeartbeat(e *Encoder, h ReplHeartbeat) {
	e.Uvarint(KindReplHeartbeat)
	e.Varint(h.Nanos)
}

// DecodeReplHeartbeat decodes a heartbeat (kind already consumed).
func DecodeReplHeartbeat(d *Decoder) (ReplHeartbeat, error) {
	h := ReplHeartbeat{Nanos: d.Varint()}
	return h, d.Err()
}
