package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// goldenRecords is one record of every kind, in the order
// testdata/wal-002.seg holds them.
func goldenRecords() []Record {
	return []Record{
		{Type: RecBatch, StreamSeq: 7,
			Readings: []stream.Reading{{Time: 3, Tag: "obj-1"}, {Time: 3, Tag: "shelf-2"}},
			Locations: []stream.LocationReport{
				{Time: 3, Pos: geom.Vec3{X: 1.5, Y: -2, Z: 0.25}, Phi: 0.7, HasPhi: true},
				{Time: 4, Pos: geom.Vec3{X: 2, Y: -2, Z: 0.25}},
			}},
		{Type: RecSeal, UpTo: 4, FlushWindows: true},
		{Type: RecRegister, SpecJSON: `{"kind":"location-updates","min_change":0.1}`},
		{Type: RecUnregister, QueryID: "q1"},
		{Type: RecCheckpoint, Epoch: 4},
	}
}

// TestSegmentGolden pins the segment format byte for byte: a fresh log
// appending goldenRecords writes exactly testdata/wal-002.seg (the file was
// made that way: Open on an empty directory, SyncNever, Append each record,
// Close, copy segment 1), and replaying the file yields the records back.
func TestSegmentGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "wal-002.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, goldenRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes drifted from testdata/wal-002.seg:\n got %x\nwant %x", got, want)
	}

	replayDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(replayDir, segName(1)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, replayDir, 0)
	if !reflect.DeepEqual(recs, goldenRecords()) {
		t.Fatalf("golden segment replays to %+v, want %+v", recs, goldenRecords())
	}
}
