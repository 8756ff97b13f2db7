package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// drainCursor reads records until the cursor stalls (io.EOF), failing the
// test on any other error.
func drainCursor(t *testing.T, c *Cursor) []Record {
	t.Helper()
	var got []Record
	for {
		rec, _, err := c.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		got = append(got, rec)
	}
}

func sealRecord(i int) Record { return Record{Type: RecSeal, UpTo: i} }

func TestCursorAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment threshold forces a rotation every couple of records.
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		want = append(want, sealRecord(i))
	}
	appendAll(t, l, want)
	if l.Segment() < 2 {
		t.Fatalf("expected rotation, still in segment %d", l.Segment())
	}

	c, err := OpenCursor(dir, 0, 0) // seg 0: start at the oldest segment
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := drainCursor(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor read %d records across rotation, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}

	// The cursor stalls at the live tail, then sees later appends.
	more := []Record{sealRecord(100), sealRecord(101)}
	appendAll(t, l, more)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got = drainCursor(t, c)
	if !reflect.DeepEqual(got, more) {
		t.Fatalf("tail read %+v, want %+v", got, more)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorResumeFromPos(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 12; i++ {
		want = append(want, sealRecord(i))
	}
	appendAll(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCursor(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for i := 0; i < 5; i++ {
		rec, _, err := c.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		got = append(got, rec)
	}
	seg, off := c.Pos()
	c.Close()

	// A fresh cursor at the recorded position continues exactly where the
	// first stopped — the reconnect-with-resume path.
	c2, err := OpenCursor(dir, seg, off)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got = append(got, drainCursor(t, c2)...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCursorTornTailNewestSegmentStalls(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{sealRecord(1), sealRecord(2)}
	appendAll(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest segment's tail: a partial frame, as a crash mid-append
	// (or a concurrent write in flight) would leave it.
	segs, err := Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c, err := OpenCursor(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := drainCursor(t, c) // must stall with io.EOF at the tear, not error
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Repeated polls at the tear keep stalling (the frame might complete).
	if _, _, err := c.Next(); err != io.EOF {
		t.Fatalf("poll at torn newest tail: %v, want io.EOF", err)
	}
}

func TestCursorSkipsTornTailOfFinishedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	first := []Record{sealRecord(1), sealRecord(2)}
	appendAll(t, l, first)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart the writer: Open never appends to the torn segment, it starts
	// a fresh one after it — the cursor must skip the tear and continue there.
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	second := []Record{sealRecord(3), sealRecord(4)}
	appendAll(t, l2, second)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCursor(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := drainCursor(t, c)
	want := append(append([]Record{}, first...), second...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestCursorRefusesCorruptFinishedSegment damages a frame in the middle of a
// finished segment: the cursor must report it, naming the segment and offset,
// and never ship the next segment's records past the gap — Replay refuses the
// same log.
func TestCursorRefusesCorruptFinishedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []Record{sealRecord(1), sealRecord(2), sealRecord(3)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	first := segs[0]
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, []Record{sealRecord(4), sealRecord(5)})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last byte of frame 2, inside its payload.
	path := filepath.Join(dir, segName(first))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := int(HeaderLen)
	frame := (len(data) - hdr) / 3
	data[hdr+2*frame-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay accepted the damaged log")
	}

	c, err := OpenCursor(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec, _, err := c.Next()
	if err != nil || !reflect.DeepEqual(rec, sealRecord(1)) {
		t.Fatalf("first record: %+v, %v", rec, err)
	}
	rec, _, err = c.Next()
	if err == nil || err == io.EOF || errors.Is(err, ErrSegmentGone) {
		t.Fatalf("next after the damaged frame: %+v, %v; want a corruption error", rec, err)
	}
	want := fmt.Sprintf("segment %d: bad frame at offset %d", first, hdr+frame)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if seg, off := c.Pos(); seg != first || off != int64(hdr+frame) {
		t.Errorf("cursor moved to (%d, %d) past the damaged frame", seg, off)
	}
}

func TestCursorSegmentGone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(sealRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := Segments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v", segs)
	}
	// GC everything below the newest segment, as a checkpoint would.
	newest := segs[len(segs)-1]
	if err := l.RemoveSegmentsBefore(newest); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A cursor positioned in a removed segment must fail with ErrSegmentGone.
	c, err := OpenCursor(dir, segs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Next(); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("cursor at GC'd segment: %v, want ErrSegmentGone", err)
	}
	c.Close()

	// So must one that finishes a segment whose successor was removed: keep
	// only the oldest and newest, opening a gap.
	// (Rebuild the scenario: fresh dir, then delete a middle segment.)
	dir2 := t.TempDir()
	l2, err := Open(dir2, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l2.Append(sealRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs2, _ := Segments(dir2)
	if len(segs2) < 3 {
		t.Fatalf("want >= 3 segments, got %v", segs2)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir2, segName(segs2[1]))); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCursor(dir2, segs2[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var sawGone bool
	for {
		_, _, err := c2.Next()
		if errors.Is(err, ErrSegmentGone) {
			sawGone = true
			break
		}
		if err != nil {
			t.Fatalf("cursor across gap: %v, want ErrSegmentGone eventually", err)
		}
	}
	if !sawGone {
		t.Fatal("cursor crossed a GC gap without ErrSegmentGone")
	}
}

func TestCursorConcurrentAppendTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := l.Append(sealRecord(i)); err != nil {
				done <- err
				return
			}
		}
		done <- l.Sync()
	}()

	c, err := OpenCursor(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []Record
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < n {
		rec, _, err := c.Next()
		if err == io.EOF {
			if time.Now().After(deadline) {
				t.Fatalf("timed out tailing: %d/%d records", len(got), n)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		got = append(got, rec)
	}
	if err := <-done; err != nil {
		t.Fatalf("appender: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		if rec.UpTo != i {
			t.Fatalf("record %d out of order: %+v", i, rec)
		}
	}
}

// TestCursorRotationBetweenStallAndScan replays, deterministically, the
// interleaving behind the concurrent-tail flake: the cursor stalls at the end
// of segment N, and before its directory scan runs the writer finishes a
// frame in N, rotates, and appends to N+1. The scan then reports a newer
// segment; the cursor must still deliver N's last frame before crossing. The
// shipped stream is mirrored too: a skipped segment tail is position-valid
// for a mirror (the next append lands on the next segment's first frame
// boundary), so the only loud signal is the byte comparison made here.
func TestCursorRotationBetweenStallAndScan(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMirror(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	appendAll(t, l, []Record{sealRecord(0), sealRecord(1)})
	interleaved := false
	c.segments = func(dir string) ([]uint64, error) {
		// Runs between the stalled read and the scan, once the cursor has
		// caught up with the two records above.
		if c.off > int64(len(segMagic)) && !interleaved {
			interleaved = true
			appendAll(t, l, []Record{sealRecord(2)})
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, []Record{sealRecord(3)})
		}
		return Segments(dir)
	}

	var got []Record
	for {
		rec, payload, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		got = append(got, rec)
		seg, off := c.RecordPos()
		if err := m.AppendAt(seg, off, payload); err != nil {
			t.Fatalf("mirror append: %v", err)
		}
	}
	if !interleaved {
		t.Fatal("the rotation was never interleaved with a stalled read")
	}
	want := []Record{sealRecord(0), sealRecord(1), sealRecord(2), sealRecord(3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor delivered %+v, want %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readSegments(t, dst), readSegments(t, src)) {
		t.Fatal("mirrored segments differ from the source log")
	}
}

// readSegments returns the concatenated bytes of every segment in dir, keyed
// by sequence number.
func readSegments(t *testing.T, dir string) map[uint64][]byte {
	t.Helper()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte, len(segs))
	for _, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(s)))
		if err != nil {
			t.Fatal(err)
		}
		out[s] = data
	}
	return out
}

// shipAll tails src with a cursor and appends every record's payload to m at
// its source position — the replication ship/apply loop in miniature.
func shipAll(t *testing.T, src string, m *Log) int {
	t.Helper()
	c, err := OpenCursor(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := 0
	for {
		_, payload, err := c.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatalf("ship next: %v", err)
		}
		seg, off := c.RecordPos()
		if err := m.AppendAt(seg, off, payload); err != nil {
			t.Fatalf("mirror append: %v", err)
		}
		n++
	}
}

func TestMirrorByteIdentical(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := 0; i < 6; i++ {
		appendAll(t, l, recs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMirror(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	shipped := shipAll(t, src, m)
	if shipped != 6*len(recs) {
		t.Fatalf("shipped %d records, want %d", shipped, 6*len(recs))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Close rotated nothing on the mirror side, so every source segment the
	// cursor fully read must exist byte-identically in the mirror. The
	// source's newest segment is identical too (Close appends nothing).
	got, want := readSegments(t, dst), readSegments(t, src)
	if len(got) != len(want) {
		t.Fatalf("mirror has %d segments, source %d", len(got), len(want))
	}
	for seq, data := range want {
		if !bytes.Equal(got[seq], data) {
			t.Fatalf("segment %d differs: mirror %d bytes, source %d bytes", seq, len(got[seq]), len(data))
		}
	}
}

func TestMirrorReopenTruncatesTornTail(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, sealRecord(i))
	}
	appendAll(t, l, recs)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMirror(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, src, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the mirror's newest segment — the follower crashed mid-append.
	segs, _ := Segments(dst)
	newest := segs[len(segs)-1]
	path := filepath.Join(dst, segName(newest))
	pre, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write([]byte{0xff, 0x00, 0x12})
	f.Close()

	m2, err := OpenMirror(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	seg, off := m2.Pos()
	if seg != newest || off != int64(len(pre)) {
		t.Fatalf("reopened mirror at (%d, %d), want (%d, %d)", seg, off, newest, len(pre))
	}

	// Resume shipping from the mirror's position: the source's remaining
	// records land exactly after the truncation point.
	more := []Record{sealRecord(100), sealRecord(101)}
	appendAll(t, l, more)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(src, seg, off)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for {
		_, payload, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("resume next: %v", err)
		}
		rseg, roff := c.RecordPos()
		if err := m2.AppendAt(rseg, roff, payload); err != nil {
			t.Fatalf("resume mirror append: %v", err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	got, want := readSegments(t, dst), readSegments(t, src)
	for seq, data := range want {
		if !bytes.Equal(got[seq], data) {
			t.Fatalf("segment %d differs after torn-tail reopen", seq)
		}
	}
}

func TestMirrorDesyncRejected(t *testing.T) {
	dst := t.TempDir()
	m, err := OpenMirror(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := sealRecord(1).encode()
	// First append to an empty mirror must be a segment start.
	if err := m.AppendAt(3, 99, payload); err == nil {
		t.Fatal("mid-segment first append accepted")
	}
	if err := m.AppendAt(3, int64(len(segMagic)), payload); err != nil {
		t.Fatal(err)
	}
	_, off := m.Pos()
	// Wrong offset, wrong segment, and skipped rotation are all desyncs.
	if err := m.AppendAt(3, off+1, payload); err == nil {
		t.Fatal("wrong offset accepted")
	}
	if err := m.AppendAt(2, off, payload); err == nil {
		t.Fatal("wrong segment accepted")
	}
	if err := m.AppendAt(5, int64(len(segMagic)), payload); err == nil {
		t.Fatal("skipped rotation accepted")
	}
	// The exact position, and the next segment's start, are accepted.
	if err := m.AppendAt(3, off, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAt(4, int64(len(segMagic)), payload); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The mirrored directory replays like any log.
	got, _ := replayAll(t, dst, 0)
	if len(got) != 3 {
		t.Fatalf("replayed %d records from mirror, want 3", len(got))
	}
}
