// Package wire is the shared binary wire codec of the serving layer: the
// length-prefixed CRC32C frame format and the primitive record codec that the
// write-ahead log (internal/wal) and the streaming ingest connection
// (POST /v1/sessions/{sid}/stream) both speak. Promoting the codec out of the
// WAL means a batch is encoded exactly once ever — the bytes a client streams
// are the bytes the server logs — and torn-frame handling, CRC validation and
// fuzz coverage exist in one place.
//
// A frame is
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// Payload contents are encoded with the Encoder/Decoder primitives: varints,
// length-checked strings and IEEE-754 bit patterns (floats never travel
// through text, which is what keeps durable state byte-exact). The Decoder is
// sticky-error and never panics on arbitrary bytes (pinned by FuzzWireFrame
// and FuzzWireBatch).
//
// The package depends only on the standard library and rfid/api, so the
// client SDK can vendor it together with the API types.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// DefaultMaxFramePayload caps a frame payload when the caller does not choose
// a limit (8 MiB, matching the HTTP surface's default body cap).
const DefaultMaxFramePayload = 8 << 20

// frameHeaderSize is the fixed length+CRC prefix of every frame.
const frameHeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. ErrShortFrame and ErrFrameCRC are the two shapes a torn
// tail can take (a crash mid-append cuts a frame short, or leaves a full-size
// frame whose payload bytes never all hit the disk); WAL replay treats both
// as a clean end of log in the final segment and as corruption anywhere else.
var (
	// ErrShortFrame: the buffer ends inside a frame header or payload.
	ErrShortFrame = errors.New("wire: short frame")
	// ErrFrameCRC: the payload does not match its checksum.
	ErrFrameCRC = errors.New("wire: frame crc mismatch")
)

// AppendFrame appends one framed payload to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame splits the first frame off data, returning its payload (a
// subslice of data, CRC-verified) and the remaining bytes. An empty data
// yields (nil, nil, nil) — the clean end of a buffer. A truncated frame
// returns ErrShortFrame, a corrupted one ErrFrameCRC.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	if len(data) < frameHeaderSize {
		return nil, data, ErrShortFrame
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	want := binary.LittleEndian.Uint32(data[4:8])
	if len(data)-frameHeaderSize < n {
		return nil, data, ErrShortFrame
	}
	payload = data[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, data, ErrFrameCRC
	}
	return payload, data[frameHeaderSize+n:], nil
}

// FrameReader reads frames off a byte stream (the streaming ingest
// connection). The payload returned by Next is valid only until the following
// Next call: the buffer is reused, which is what keeps the server's decode
// path allocation-free in steady state.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [frameHeaderSize]byte
	buf []byte
}

// NewFrameReader returns a frame reader over r; maxPayload caps a single
// frame (<= 0 selects DefaultMaxFramePayload). The cap is a memory-safety
// bound on untrusted length prefixes, not a protocol constant — both ends of
// a stream learn the effective limit from the handshake.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	return &FrameReader{r: r, max: maxPayload}
}

// Next reads one frame and returns its CRC-verified payload. io.EOF surfaces
// only at a clean frame boundary; a connection cut mid-frame returns
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: connection cut inside a frame header", ErrShortFrame)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[0:4]))
	want := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if n > fr.max {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds the %d-byte limit", n, fr.max)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: connection cut inside a frame payload", ErrShortFrame)
		}
		return nil, err
	}
	if crc32.Checksum(buf, crcTable) != want {
		return nil, ErrFrameCRC
	}
	return buf, nil
}

// Encoder appends primitive values to a growing byte buffer. The zero value
// is ready to use; Reset keeps the capacity, so a long-lived encoder (one per
// stream connection) stops allocating once warm.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder, retaining the underlying buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the IEEE-754 bit pattern of v (8 bytes, little endian).
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b as is, without a length prefix: for bytes whose length the
// layout fixes or states elsewhere (a magic, a payload after its length).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder reads primitive values back from a payload. Errors are sticky: the
// first malformed read poisons the decoder, every later read returns zero
// values, and Err reports the failure — callers decode a whole message and
// check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Reset points the decoder at a new payload, clearing any sticky error. A
// long-lived decoder (one per stream connection) is reused across frames.
func (d *Decoder) Reset(data []byte) {
	d.buf, d.off, d.err = data, 0, nil
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail poisons the decoder with a formatted error at the current offset,
// unless it already failed: for layouts built on these primitives that find
// well-formed bytes they must refuse.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format+" (offset %d)", append(args, d.off)...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("truncated uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int encoded with Encoder.Int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.Fail("truncated bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.Fail("invalid bool byte %d", b)
		return false
	}
	return b == 1
}

// Float64 reads an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.Fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string, allocating a copy. The length is
// validated against the remaining payload, so corrupted prefixes cannot
// trigger huge allocations.
func (d *Decoder) String() string { return string(d.StringBytes()) }

// StringBytes reads a length-prefixed string WITHOUT copying: the returned
// slice aliases the decoder's buffer and is valid only as long as that buffer
// is. The server's stream decode path hands these borrowed bytes to a tag
// intern table, which is what makes steady-state decode allocation-free.
func (d *Decoder) StringBytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail("string length %d exceeds remaining %d bytes", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// SliceLen reads a length prefix and validates it against the remaining
// payload assuming each element occupies at least minElemBytes (pass 1 for
// variable-size elements) — the allocation guard every slice decode goes
// through.
func (d *Decoder) SliceLen(minElemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(d.Remaining()/minElemBytes) {
		d.Fail("slice length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}
