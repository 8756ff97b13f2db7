// Package checkpoint implements the durable-state subsystem's versioned
// binary codec and checkpoint files. A checkpoint serializes the full engine
// state — particle columns, reader poses, per-object random-stream positions,
// watchlists, report bookkeeping, query-registry sequence state — byte-exactly,
// so that a recovered process continues the inference stream bit-for-bit
// identically to an uninterrupted run.
//
// The codec is rfid/wire's: Encoder and Decoder embed wire.Encoder and
// wire.Decoder, whose varints, length-checked strings and IEEE-754 bit
// patterns (floats never travel through text, which is what makes restore
// byte-exact) are the primitives of every payload, and add only what state
// needs beyond them: geometry, float columns, section markers and the payload
// version. Every stateful package implements its own SaveState/RestoreState
// pair on top of these; this package knows nothing about their contents.
//
// Checkpoint files are written atomically (temp file + rename), carry a
// magic/version header, a configuration fingerprint, the epoch they cover and
// the WAL segment replay must resume from, and are CRC-protected end to end.
// A decoder confronted with truncated or corrupted bytes returns an error —
// never panics — a property pinned by FuzzCheckpointDecode.
package checkpoint

import (
	"repro/internal/geom"
	"repro/rfid/wire"
)

// Encoder appends state to a growing byte buffer. The zero value is ready to
// use.
type Encoder struct{ wire.Encoder }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

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

// Decoder reads state back from a payload with wire.Decoder's sticky errors:
// the first malformed read poisons the decoder, every later read returns zero
// values, and Err reports the failure — callers decode a whole section and
// check once.
type Decoder struct {
	wire.Decoder
	version uint64
}

// NewDecoder returns a decoder over data in the current payload Version; use
// Snapshot.PayloadDecoder for a payload read from a checkpoint file.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{version: Version}
	d.Reset(data)
	return d
}

// Version returns the payload version the bytes were written in.
func (d *Decoder) Version() uint64 { return d.version }

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

// Float64s reads a float column written by Encoder.Float64s.
func (d *Decoder) Float64s() []float64 {
	n := d.SliceLen(8)
	if d.Err() != nil || n == 0 {
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
	got := d.StringBytes()
	if d.Err() == nil && string(got) != name {
		d.Fail("section marker mismatch: got %q, want %q", got, name)
	}
}
