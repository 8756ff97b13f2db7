package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// crcTable is the frame checksum polynomial, for building frames by hand.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame wraps a payload in the on-disk frame format (test helper mirroring
// Append's framing).
func frame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(hdr[:], payload...)
}

// FuzzWALDecode hardens the replay surface: an arbitrary segment image must
// never panic the scanner — whatever a crash, bit rot or an attacker leaves
// in the data directory surfaces as a torn tail or an error. Valid prefixes
// additionally satisfy the round-trip property via the seeded corpus.
func FuzzWALDecode(f *testing.F) {
	// Seed with a valid segment image, a truncation and raw noise.
	valid := []byte(segMagic)
	for _, r := range []Record{
		{Type: RecBatch,
			Readings:  []stream.Reading{{Time: 1, Tag: "obj-1"}},
			Locations: []stream.LocationReport{{Time: 1, Pos: geom.Vec3{X: 2}, HasPhi: true, Phi: 0.5}}},
		{Type: RecSeal, UpTo: 9},
		{Type: RecCheckpoint, Epoch: 3},
	} {
		valid = append(valid, frame(r.encode())...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte(segMagic))
	f.Add([]byte("RFWAL002\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tail := range []bool{true, false} {
			n, torn, err := replaySegment(data, tail, func(Record) error { return nil })
			if n < 0 {
				t.Fatal("negative record count")
			}
			if !tail && torn {
				t.Fatal("non-tail segment reported torn")
			}
			_ = err
		}
	})
}

// FuzzRecordDecode drives the record codec directly: arbitrary payloads must
// error or decode, never panic, and anything accepted must round-trip through
// encode/decode to an identical record.
func FuzzRecordDecode(f *testing.F) {
	f.Add(Record{Type: RecSeal, UpTo: 42}.encode())
	f.Add(Record{Type: RecCheckpoint, Epoch: 7}.encode())
	f.Add(Record{Type: RecBatch,
		Readings:  []stream.Reading{{Time: 3, Tag: "a"}, {Time: 3, Tag: "b"}},
		Locations: []stream.LocationReport{{Time: 3, Pos: geom.Vec3{Y: -1}}},
	}.encode())
	f.Add([]byte{})
	f.Add([]byte{9})

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		enc := rec.encode()
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding an accepted record fails to decode: %v", err)
		}
		// Compare via a second encode rather than reflect.DeepEqual: floats
		// (coordinates, phi) may legitimately hold NaN, which DeepEqual
		// treats as unequal to itself even when round-tripped bit-exactly.
		if !bytes.Equal(again.encode(), enc) {
			t.Fatalf("round trip changed record:\n got %+v\nwant %+v", again, rec)
		}
	})
}
