// Package checkpoint implements the durable-state subsystem's versioned
// binary codec and checkpoint files. A checkpoint serializes the full engine
// state — particle columns, reader poses, per-object random-stream positions,
// watchlists, report bookkeeping, query-registry sequence state — byte-exactly,
// so that a recovered process continues the inference stream bit-for-bit
// identically to an uninterrupted run.
//
// The codec is deliberately primitive: length-prefixed sections of varints,
// IEEE-754 bit patterns and length-checked strings, written by an Encoder and
// read back by a sticky-error Decoder. Floats travel as raw bit patterns
// (never through text formatting), which is what makes restore byte-exact.
// Every stateful package implements its own SaveState/RestoreState pair on
// top of these primitives; this package knows nothing about their contents.
//
// Checkpoint files are written atomically (temp file + rename), carry a
// magic/version header, a configuration fingerprint, the epoch they cover and
// the WAL segment replay must resume from, and are CRC-protected end to end.
// A decoder confronted with truncated or corrupted bytes returns an error —
// never panics — a property pinned by FuzzCheckpointDecode.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Encoder appends primitive values to a growing byte buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

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
// Round-tripping through bits rather than text keeps restored state
// byte-exact, including negative zeros, NaN payloads and denormals.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Vec3 appends the three components of v.
func (e *Encoder) Vec3(v geom.Vec3) {
	e.Float64(v.X)
	e.Float64(v.Y)
	e.Float64(v.Z)
}

// Pose appends a reader pose.
func (e *Encoder) Pose(p geom.Pose) {
	e.Vec3(p.Pos)
	e.Float64(p.Phi)
}

// BBox appends a bounding box.
func (e *Encoder) BBox(b geom.BBox) {
	e.Vec3(b.Min)
	e.Vec3(b.Max)
}

// Float64s appends a length-prefixed float column.
func (e *Encoder) Float64s(vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Float64(v)
	}
}

// Section appends a named section marker. Markers cost a few bytes and buy
// structural validation: a decoder that drifts out of sync fails fast at the
// next marker with the section name in the error instead of misreading
// unrelated bytes as state.
func (e *Encoder) Section(name string) { e.String(name) }

// Decoder reads primitive values back from a payload. Errors are sticky: the
// first malformed read poisons the decoder, every later read returns zero
// values, and Err reports the failure — callers decode a whole section and
// check once.
type Decoder struct {
	buf     []byte
	off     int
	err     error
	version uint64
}

// NewDecoder returns a decoder over data in the current payload Version; use
// Snapshot.PayloadDecoder for a payload read from a checkpoint file.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data, version: Version} }

// Version returns the payload version the bytes were written in.
func (d *Decoder) Version() uint64 { return d.version }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format+" (offset %d)", append(args, d.off)...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint")
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
		d.fail("truncated varint")
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
		d.fail("truncated bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("invalid bool byte %d", b)
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
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string. The length is validated against the
// remaining payload, so corrupted prefixes cannot trigger huge allocations.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining %d bytes", n, d.Remaining())
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Vec3 reads a vector.
func (d *Decoder) Vec3() geom.Vec3 {
	return geom.Vec3{X: d.Float64(), Y: d.Float64(), Z: d.Float64()}
}

// Pose reads a reader pose.
func (d *Decoder) Pose() geom.Pose {
	return geom.Pose{Pos: d.Vec3(), Phi: d.Float64()}
}

// BBox reads a bounding box.
func (d *Decoder) BBox() geom.BBox {
	return geom.BBox{Min: d.Vec3(), Max: d.Vec3()}
}

// SliceLen reads a length prefix and validates it against the remaining
// payload assuming each element occupies at least minElemBytes (pass 1 for
// variable-size elements). It is the allocation guard every slice decode goes
// through: a corrupt length fails the decoder instead of sizing a giant
// make().
func (d *Decoder) SliceLen(minElemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(d.Remaining()/minElemBytes) {
		d.fail("slice length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// Float64s reads a float column written by Encoder.Float64s.
func (d *Decoder) Float64s() []float64 {
	n := d.SliceLen(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float64()
	}
	return out
}

// Section consumes a section marker and fails unless it matches name.
func (d *Decoder) Section(name string) {
	got := d.String()
	if d.err == nil && got != name {
		d.fail("section marker mismatch: got %q, want %q", got, name)
	}
}
