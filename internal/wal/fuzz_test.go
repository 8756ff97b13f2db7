package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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

// FuzzWALDecode hardens the one segment reader: an arbitrary segment image
// must never panic it — whatever a crash, bit rot or an attacker leaves in
// the data directory surfaces as a clean stop or an error. The image is read
// twice. As the newest segment, a cursor delivers exactly the whole frames it
// starts with and stops cleanly at a torn tail; it may fail only on a wrong
// magic or on a CRC-valid frame that is not a record. As a finished segment
// (an empty segment follows it), Replay must fail on any byte after the last
// whole frame, never end silently there.
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
		newest, finished := t.TempDir(), t.TempDir()
		for _, w := range []struct {
			dir  string
			seg  uint64
			data []byte
		}{{newest, 1, data}, {finished, 1, data}, {finished, 2, []byte(segMagic)}} {
			if err := os.WriteFile(filepath.Join(w.dir, segName(w.seg)), w.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		c, _ := OpenCursor(newest, 1, 0)
		defer c.Close()
		var whole []byte
		records := 0
		var err error
		for err == nil {
			var payload []byte
			if _, payload, err = c.Next(); err == nil {
				whole = append(whole, frame(payload)...)
				records++
			}
		}
		badMagic := len(data) >= len(segMagic) && string(data[:len(segMagic)]) != segMagic
		_, end := c.Pos()
		if err != io.EOF && !badMagic {
			// The only other failure is a whole frame that is not a record.
			_, start := c.RecordPos()
			payload := data[start+8 : end]
			if _, derr := DecodeRecord(payload); derr == nil || !bytes.Equal(frame(payload), data[start:end]) {
				t.Fatalf("newest segment: %v, not at a whole undecodable frame", err)
			}
		}
		if err == io.EOF && len(data) >= len(segMagic) && !bytes.Equal(whole, data[HeaderLen:end]) {
			t.Fatalf("newest segment: delivered frames are not the image's first %d bytes", end)
		}

		st, rerr := Replay(finished, 0, func(Record) error { return nil })
		if clean := err == io.EOF && int(end) == len(data); clean != (rerr == nil) {
			t.Fatalf("finished segment of %d bytes, whole frames to %d (newest: %v): replay error %v", len(data), end, err, rerr)
		}
		if rerr == nil && st.Records != records {
			t.Fatalf("finished segment replayed %d records, newest %d", st.Records, records)
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
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		enc := rec.encode()
		again, err := DecodeRecord(enc)
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
