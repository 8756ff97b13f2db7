package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
)

func testRecords() []Record {
	return []Record{
		{Type: RecBatch,
			Readings: []stream.Reading{{Time: 0, Tag: "obj-1"}, {Time: 0, Tag: "obj-2"}},
			Locations: []stream.LocationReport{
				{Time: 0, Pos: geom.Vec3{X: 1.5, Y: -2, Z: 0.25}, Phi: 0.7, HasPhi: true},
			}},
		{Type: RecSeal, UpTo: 4},
		{Type: RecBatch, Readings: []stream.Reading{{Time: 5, Tag: "obj-1"}}},
		{Type: RecCheckpoint, Epoch: 5},
	}
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
}

func replayAll(t *testing.T, dir string, from uint64) ([]Record, ReplayStats) {
	t.Helper()
	var got []Record
	st, err := Replay(dir, from, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if st.Records != len(recs) {
		t.Fatalf("unexpected replay stats %+v", st)
	}

	stats := l.Stats()
	if stats.AppendedRecords != int64(len(recs)) || stats.AppendedBytes == 0 || stats.Fsyncs == 0 {
		t.Fatalf("unexpected log stats %+v", stats)
	}
}

func TestRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords()[:2])
	newSeq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if newSeq != l.Segment() || newSeq != 2 {
		t.Fatalf("rotate returned %d, segment %d", newSeq, l.Segment())
	}
	appendAll(t, l, testRecords()[2:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay from the post-rotation segment sees only the later records.
	got, _ := replayAll(t, dir, newSeq)
	if !reflect.DeepEqual(got, testRecords()[2:]) {
		t.Fatalf("partial replay mismatch: %+v", got)
	}

	// A new Open starts a fresh segment after the highest existing one.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Segment() != 3 {
		t.Fatalf("reopened segment = %d, want 3", l2.Segment())
	}
	if err := l2.RemoveSegmentsBefore(newSeq); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segs, []uint64{2, 3}) {
		t.Fatalf("segments after prune: %v, want [2 3]", segs)
	}
}

func TestSegmentSizeRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Type: RecSeal, UpTo: i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected size-based rotation, got segments %v", segs)
	}
	got, _ := replayAll(t, dir, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.UpTo != i {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	appendAll(t, l, recs)
	l.Close()

	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the last frame: a crash signature.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
		t.Fatalf("torn replay delivered %+v", got)
	}

	// The same damage in a NON-final segment is corruption, not a torn tail.
	// Open trims the torn tail it finds, so tear segment 1 again after it.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, recs[:1])
	l2.Close()
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("mid-log corruption not surfaced as an error")
	}
}

// TestOpenTrimsTornTail pins recovery across two crashes: a crash tears the
// newest segment, recovery replays it as the tail and Open starts the next
// one, then a second crash comes before any checkpoint. Open must have cut
// the torn segment back to its whole frames, or the next replay meets the
// torn frame in a non-final segment and refuses the whole log.
func TestOpenTrimsTornTail(t *testing.T) {
	recs := testRecords()
	for name, tear := range map[string]func(data []byte) []byte{
		"cut frame":    func(data []byte) []byte { return data[:len(data)-3] },
		"short header": func(data []byte) []byte { return data[:len(segMagic)-2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, recs[:2])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}
			survived, _ := replayAll(t, dir, 0)

			l2, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l2, recs[2:])
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, _ := replayAll(t, dir, 0)
			want := append(append([]Record(nil), survived...), recs[2:]...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("second recovery replayed %+v, want %+v", got, want)
			}
		})
	}
}

// TestResume pins the contract the serving layer's eviction relies on: a log
// closed at (Segment, Size) reopens there with no new segment, records
// appended after the resume replay after the earlier ones (a torn tail after
// them still ends the replay cleanly), and a segment that changed after the
// close — grown, shrunk, or no longer the newest — is refused.
func TestResume(t *testing.T) {
	recs := testRecords()
	closed := func(t *testing.T) (string, uint64, int64) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, recs[:2])
		seq, size := l.Segment(), l.Size()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, seq, size
	}

	t.Run("appends", func(t *testing.T) {
		dir, seq, size := closed(t)
		l, err := Resume(dir, seq, size, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if l.Segment() != seq || l.Size() != size || l.Stats().AppendedRecords != 0 {
			t.Fatalf("resumed at segment %d size %d stats %+v, want %d/%d", l.Segment(), l.Size(), l.Stats(), seq, size)
		}
		appendAll(t, l, recs[2:])
		end := l.Size()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if segs, _ := Segments(dir); !reflect.DeepEqual(segs, []uint64{seq}) {
			t.Fatalf("segments after resume: %v, want [%d]", segs, seq)
		}
		got, _ := replayAll(t, dir, 0)
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("replay after resume: %+v", got)
		}
		// A resumed log tears like any other: cut the last frame short.
		path := filepath.Join(dir, segName(seq))
		if err := os.Truncate(path, end-2); err != nil {
			t.Fatal(err)
		}
		got, _ = replayAll(t, dir, 0)
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
			t.Fatalf("torn replay after resume: %+v", got)
		}
	})

	for name, damage := range map[string]func(dir string, seq uint64, size int64) error{
		"grown": func(dir string, seq uint64, _ int64) error {
			f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			_, err = f.Write([]byte{0, 0, 0})
			f.Close()
			return err
		},
		"shrunk": func(dir string, seq uint64, size int64) error {
			return os.Truncate(filepath.Join(dir, segName(seq)), size-1)
		},
		"superseded": func(dir string, _ uint64, _ int64) error {
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				return err
			}
			return l.Close()
		},
		"missing": func(dir string, seq uint64, _ int64) error {
			return os.Remove(filepath.Join(dir, segName(seq)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, seq, size := closed(t)
			if err := damage(dir, seq, size); err != nil {
				t.Fatal(err)
			}
			if l, err := Resume(dir, seq, size, Options{}); err == nil {
				l.Close()
				t.Fatalf("resumed a %s segment", name)
			}
		})
	}
	if _, err := Resume(t.TempDir(), 1, 2, Options{}); err == nil {
		t.Fatal("resumed inside the segment header")
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if got := l.Stats().Fsyncs; got != 0 {
		t.Fatalf("interval policy fsynced %d times within the window", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != 1 {
		t.Fatalf("explicit sync recorded %d fsyncs, want 1", got)
	}
	l.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(Record{Type: RecSeal}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("rotate on closed log succeeded")
	}
}

// TestReplayRefusesMissingSegments pins that a replay never skips a segment
// that is not on disk: a start segment garbage-collected under newer ones, a
// gap inside the log, and a start segment absent while only older segments
// remain all fail with ErrSegmentGone. A start segment in a directory with no
// segment at all is an empty log.
func TestReplayRefusesMissingSegments(t *testing.T) {
	// logWith writes segments 1..4, one record each, and removes gone.
	logWith := func(t *testing.T, gone ...uint64) string {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if i > 0 {
				if _, err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
			appendAll(t, l, []Record{{Type: RecSeal, UpTo: i}})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, seg := range gone {
			if err := os.Remove(filepath.Join(dir, segName(seg))); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, tc := range []struct {
		name string
		gone []uint64
		from uint64
	}{
		{"start collected", []uint64{1, 2}, 1},
		{"gap", []uint64{3}, 1},
		{"only older remain", []uint64{4}, 4},
		{"beyond the end", nil, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(logWith(t, tc.gone...), tc.from, func(Record) error { return nil })
			if !errors.Is(err, ErrSegmentGone) {
				t.Fatalf("replay from %d with segments %v removed: %v, want ErrSegmentGone", tc.from, tc.gone, err)
			}
		})
	}
	if st, err := Replay(t.TempDir(), 3, func(Record) error { return nil }); err != nil || st.Records != 0 {
		t.Fatalf("replay of an empty directory: %+v, %v", st, err)
	}
}
