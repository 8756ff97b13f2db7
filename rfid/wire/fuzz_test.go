package wire

import (
	"bytes"
	"testing"

	"repro/rfid/api"
)

// FuzzWireFrame hardens the framing layer: arbitrary bytes must never panic
// NextFrame or FrameReader, and the two must agree on every frame they
// accept.
func FuzzWireFrame(f *testing.F) {
	var seed []byte
	seed = AppendFrame(seed, []byte("hello"))
	seed = AppendFrame(seed, nil)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fromSplit [][]byte
		rest := data
		for {
			payload, next, err := NextFrame(rest)
			if err != nil || (payload == nil && next == nil) {
				break
			}
			fromSplit = append(fromSplit, bytes.Clone(payload))
			rest = next
		}
		fr := NewFrameReader(bytes.NewReader(data), 0)
		var fromReader [][]byte
		for range fromSplit {
			payload, err := fr.Next()
			if err != nil {
				t.Fatalf("FrameReader rejected a frame NextFrame accepted: %v", err)
			}
			fromReader = append(fromReader, bytes.Clone(payload))
		}
		// bytes.Equal, not reflect.DeepEqual: an empty payload comes back
		// nil from one API and zero-length from the other, which is not a
		// disagreement.
		for i, payload := range fromSplit {
			if !bytes.Equal(payload, fromReader[i]) {
				t.Fatalf("NextFrame and FrameReader disagree on frame %d", i)
			}
		}
	})
}

// FuzzWireBatch drives the batch codec with arbitrary payloads: it must error
// or decode, never panic, and anything accepted must round-trip to identical
// bytes.
func FuzzWireBatch(f *testing.F) {
	var e Encoder
	AppendBatch(&e, APIBatch{
		Readings:  []api.Reading{{Time: 1, Tag: "obj-1"}},
		Locations: []api.LocationReport{{Time: 1, X: 2, HasPhi: true, Phi: 0.5}},
	})
	f.Add(bytes.Clone(e.Bytes()))
	e.Reset()
	AppendBatch(&e, APIBatch{})
	f.Add(bytes.Clone(e.Bytes()))
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		d.Reset(data)
		b, err := decodeAPIBatch(&d)
		if err != nil || d.Remaining() != 0 {
			return
		}
		// The raw input is not necessarily canonical (varints have
		// non-minimal encodings the decoder accepts), so the property is
		// idempotence of the canonical form: encode, decode, encode again
		// and the two encodings must be identical bytes.
		var re Encoder
		AppendBatch(&re, b)
		var d2 Decoder
		d2.Reset(re.Bytes())
		b2, err := decodeAPIBatch(&d2)
		if err != nil || d2.Remaining() != 0 {
			t.Fatalf("canonical encoding of an accepted batch fails to decode: %v", err)
		}
		var re2 Encoder
		AppendBatch(&re2, b2)
		if !bytes.Equal(re2.Bytes(), re.Bytes()) {
			t.Fatalf("canonical round trip unstable:\n got %x\nwant %x", re2.Bytes(), re.Bytes())
		}
	})
}
