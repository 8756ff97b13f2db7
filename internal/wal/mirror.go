package wal

// Mirror is the write side of WAL shipping on a follower: it reconstructs the
// primary's segment files byte-for-byte from shipped record payloads. The
// primary ships each record's payload bytes with the (segment, offset) it
// occupies; the mirror re-frames them with the same deterministic codec
// (wire.AppendFrame) and writes them at the same position in a same-named
// segment file, so a promoted follower's log directory is indistinguishable
// from the primary's — recovery, replay and later followers all work on it
// unchanged.
//
// A mirror is strictly sequential: every append must land exactly at the
// mirror's write position, or at the first frame boundary of the next segment
// (which finishes the current segment durably, exactly like Log rotation).
// Anything else is a desync — the follower reconnects and resumes from the
// mirror's position, which heals duplicates and gaps alike.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/rfid/wire"
)

// Mirror is an open follower-side log writer. Not safe for concurrent use;
// the replication apply path appends from a single goroutine.
type Mirror struct {
	dir   string
	opts  Options
	f     *os.File
	seg   uint64
	off   int64
	dirty bool
	last  time.Time
	stats Stats
	frame []byte
}

// OpenMirror opens (or creates) a mirrored log directory. If segments exist —
// a follower restarting — the newest is scanned for its valid frame length
// and truncated there, discarding any tail torn by the previous life's crash;
// the mirror's position is then the end of the last whole frame, which is
// exactly where recovery's replay stopped. An empty directory yields a mirror
// that adopts its position from the first Append.
func OpenMirror(dir string, opts Options) (*Mirror, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create mirror dir: %w", err)
	}
	m := &Mirror{dir: dir, opts: opts, last: time.Now()}
	segs, err := Segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan segments: %w", err)
	}
	if len(segs) == 0 {
		return m, nil
	}
	seg := segs[len(segs)-1]
	f, valid, err := trimTornTail(dir, seg)
	if err != nil {
		return nil, err
	}
	m.f, m.seg, m.off = f, seg, valid
	m.stats.Segment = seg
	return m, nil
}

// trimTornTail cuts segment seg of the log in dir back to its whole-frame
// prefix, discarding any tail torn by a crash, and returns the file open for
// writing at its new end. A segment shorter than its header (a crash inside
// segment creation) gets the header rebuilt, so the file is a well-formed
// empty segment again. A segment that changed is fsynced before the return.
func trimTornTail(dir string, seg uint64) (*os.File, int64, error) {
	path := filepath.Join(dir, segName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: read segment %d: %w", seg, err)
	}
	valid, err := validFrameLength(data)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: segment %d: %w", seg, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open segment %d: %w", seg, err)
	}
	fail := func(op string, err error) (*os.File, int64, error) {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %s segment %d: %w", op, seg, err)
	}
	if err := f.Truncate(valid); err != nil {
		return fail("truncate", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		return fail("seek", err)
	}
	changed := valid != int64(len(data))
	if valid < int64(len(segMagic)) {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			return fail("rewrite header of", err)
		}
		valid, changed = int64(len(segMagic)), true
	}
	if changed {
		if err := f.Sync(); err != nil {
			return fail("fsync", err)
		}
	}
	return f, valid, nil
}

// validFrameLength scans a segment image and returns the byte length of its
// whole-frame prefix (header included). A torn or short tail is simply where
// the valid prefix ends; only a wrong magic — bytes that were written whole
// but are not a segment — is an error. A file shorter than the magic (a crash
// inside segment creation) reports 0, and trimTornTail rebuilds the header.
func validFrameLength(data []byte) (int64, error) {
	if len(data) < len(segMagic) {
		return 0, nil
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("bad segment magic")
	}
	rest := data[len(segMagic):]
	for len(rest) > 0 {
		_, next, err := wire.NextFrame(rest)
		if err != nil {
			break
		}
		rest = next
	}
	return int64(len(data) - len(rest)), nil
}

// Pos returns the mirror's write position: the (segment, offset) the next
// shipped record must carry, and the resume cursor a follower sends in its
// hello and acks.
func (m *Mirror) Pos() (seg uint64, off int64) { return m.seg, m.off }

// Segment returns the segment currently open for appends (0 before the first
// append to an empty mirror).
func (m *Mirror) Segment() uint64 { return m.seg }

// Stats returns the cumulative counters.
func (m *Mirror) Stats() Stats { return m.stats }

// errDesync builds the append-position mismatch error.
func (m *Mirror) errDesync(seg uint64, off int64) error {
	return fmt.Errorf("wal: mirror desync: append at segment %d offset %d, mirror at segment %d offset %d", seg, off, m.seg, m.off)
}

// Append frames payload and writes it at (seg, off), which must be the
// mirror's exact write position — or the first frame boundary of segment
// seg+1, which durably finishes the current segment and starts the next (the
// shipped image of the primary's rotation). An empty mirror adopts any
// segment number from its first append, which must be a segment start.
func (m *Mirror) Append(seg uint64, off int64, payload []byte) error {
	head := int64(len(segMagic))
	switch {
	case m.f == nil && m.off == 0:
		// Empty mirror: adopt the shipper's segment, at its start only.
		if off != head {
			return m.errDesync(seg, off)
		}
		if err := m.openSegment(seg); err != nil {
			return err
		}
	case seg == m.seg && off == m.off:
		// In sequence.
	case seg == m.seg+1 && off == head && m.f != nil:
		if err := m.openSegment(seg); err != nil {
			return err
		}
	default:
		return m.errDesync(seg, off)
	}
	m.frame = wire.AppendFrame(m.frame[:0], payload)
	if _, err := m.f.Write(m.frame); err != nil {
		return fmt.Errorf("wal: mirror append: %w", err)
	}
	m.off += int64(len(m.frame))
	m.dirty = true
	m.stats.AppendedRecords++
	m.stats.AppendedBytes += int64(len(m.frame))
	switch m.opts.Sync {
	case SyncAlways:
		return m.Sync()
	case SyncInterval:
		if time.Since(m.last) >= m.opts.SyncEvery {
			return m.Sync()
		}
	}
	return nil
}

// openSegment creates (truncating any unacked previous-life leftovers) and
// switches to segment seq, durably finishing the previous segment first.
func (m *Mirror) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(m.dir, segName(seq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create mirrored segment %d: %w", seq, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if m.f != nil {
		syncErr := m.syncFile()
		closeErr := m.f.Close()
		if syncErr != nil {
			f.Close()
			return syncErr
		}
		if closeErr != nil {
			f.Close()
			return fmt.Errorf("wal: close previous segment: %w", closeErr)
		}
	}
	m.f = f
	m.seg = seq
	m.off = int64(len(segMagic))
	m.stats.Segment = seq
	syncDir(m.dir)
	return nil
}

// Sync flushes the current segment to stable storage (no-op when clean).
func (m *Mirror) Sync() error {
	if m.f == nil || !m.dirty {
		return nil
	}
	return m.syncFile()
}

func (m *Mirror) syncFile() error {
	if !m.dirty {
		return nil
	}
	start := time.Now()
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	lat := time.Since(start)
	m.stats.Fsyncs++
	if lat > m.stats.MaxFsyncLatency {
		m.stats.MaxFsyncLatency = lat
	}
	if m.opts.SyncObserver != nil {
		m.opts.SyncObserver(lat)
	}
	m.dirty = false
	m.last = time.Now()
	return nil
}

// RemoveSegmentsBefore deletes every mirrored segment with sequence < seq;
// the follower calls it after writing its own checkpoint at a shipped
// RecCheckpoint marker, exactly like the primary's checkpointing path.
func (m *Mirror) RemoveSegmentsBefore(seq uint64) error {
	return removeSegmentsBefore(m.dir, seq)
}

// Close syncs and closes the mirror. Promotion calls this before reopening
// the directory with Open, which continues in a fresh segment after the
// mirrored ones.
func (m *Mirror) Close() error {
	if m.f == nil {
		return nil
	}
	syncErr := m.syncFile()
	closeErr := m.f.Close()
	m.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
