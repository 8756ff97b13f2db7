package wal

// Cursor is the one reader of segment bytes. WAL shipping uses it as a tailing
// reader over a live log directory, streaming records to followers; Replay
// runs one to the end of a quiescent log at recovery; and Open's torn-tail
// trim cuts the newest segment back to where one stops. A cursor coexists
// with a concurrent appender: it reads with positional reads on its own
// descriptors, reports "nothing more right now" as io.EOF, and resumes from
// an exact (segment, offset) position — the same coordinates the replication
// protocol carries in hellos and acks.
//
// Concurrency model: the appender writes each frame with a single write call
// and only ever appends to the highest-numbered segment. The cursor therefore
// treats any unreadable frame (short header, short payload, CRC mismatch, or
// absurd length prefix — all possible glimpses of a write in flight) in the
// NEWEST segment as "not yet": it stays put and returns io.EOF so the caller
// retries later. A finished (non-newest) segment ends on a frame boundary:
// Open cuts a torn tail left by a crashed previous life back to whole frames
// before it starts the next segment. So in a finished segment the cursor
// crosses to the next one only from the file's end; an unreadable frame
// anywhere else is corruption, and Next reports it instead of skipping the
// rest of the segment. "Finished" has to be established before the read it
// explains: the writer can complete the frame and rotate between a stalled
// read and the directory scan, so once the scan reports a newer segment the
// (now immutable) frame is read again and only a second stall counts. A
// missing segment, or a gap in the sequence, means garbage collection outran
// this cursor and the follower must re-bootstrap from a checkpoint:
// ErrSegmentGone.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/rfid/wire"
)

// ErrSegmentGone reports that the cursor's position (or a segment between it
// and the newest) was garbage-collected by the checkpointing path; errors
// wrapping it name the missing segments. The log no longer contains every
// record after the cursor, so a follower cannot catch up by tailing — it must
// re-bootstrap from a newer checkpoint — and recovery cannot replay the run.
var ErrSegmentGone = errors.New("wal: segment gone")

// errStall is the internal "cannot read a whole valid frame here" signal —
// clean end of data, short frame, CRC mismatch and garbage length prefix all
// collapse into it; position decides what it means.
var errStall = errors.New("wal: frame stall")

// maxCursorFrame bounds the length prefix a cursor will trust before reading a
// payload. WAL frames are far smaller (the ingest surface caps bodies at
// 8 MiB); a prefix beyond this is mid-write garbage, not a frame.
const maxCursorFrame = 64 << 20

// Cursor is a tailing reader positioned in a log directory. Not safe for
// concurrent use by multiple goroutines, but safe to run against a directory
// with one live appender (a Log in either role).
type Cursor struct {
	dir string
	seg uint64
	off int64

	// recSeg/recOff are the start position of the record Next last returned —
	// what a shipper stamps on the frame it forwards.
	recSeg uint64
	recOff int64

	f       *os.File
	magicOK bool
	hdr     [8]byte
	buf     []byte

	// segments lists the directory's segments (Segments); a field so tests can
	// interleave writer activity with the scan deterministically.
	segments func(dir string) ([]uint64, error)
}

// OpenCursor positions a cursor at (seg, off) in dir. Offsets inside the
// segment header are normalized to the first frame boundary. A seg of 0 means
// "the oldest segment present when reading starts" — the bootstrap position
// for a log that has never checkpointed.
func OpenCursor(dir string, seg uint64, off int64) (*Cursor, error) {
	if off < HeaderLen {
		off = HeaderLen
	}
	return &Cursor{dir: dir, seg: seg, off: off, segments: Segments}, nil
}

// Pos returns the position of the next unread byte: the resume point to carry
// in a replication hello or ack.
func (c *Cursor) Pos() (seg uint64, off int64) { return c.seg, c.off }

// RecordPos returns the start position of the record the last successful Next
// returned (meaningless before the first).
func (c *Cursor) RecordPos() (seg uint64, off int64) { return c.recSeg, c.recOff }

// Close releases the cursor's descriptor. The cursor cannot be used after.
func (c *Cursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Next returns the next record along with its raw payload bytes (aliasing an
// internal buffer, valid only until the following Next). io.EOF means "no
// more records right now" — the log may grow, call again later. ErrSegmentGone
// means the log was GC'd past this cursor. Any other error is corruption or
// I/O failure.
func (c *Cursor) Next() (Record, []byte, error) {
	payload, err := c.nextFrame()
	if err != nil {
		return Record{}, nil, err
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		// The CRC matched, so these bytes were written whole: this is
		// corruption or a format bug, never a write in flight.
		return Record{}, nil, fmt.Errorf("wal: cursor at segment %d offset %d: %w", c.recSeg, c.recOff, err)
	}
	return rec, payload, nil
}

// nextFrame advances to and returns the next CRC-valid frame payload,
// crossing finished segments as needed.
func (c *Cursor) nextFrame() ([]byte, error) {
	for {
		if c.seg == 0 {
			segs, err := c.segments(c.dir)
			if err != nil {
				return nil, err
			}
			if len(segs) == 0 {
				return nil, io.EOF
			}
			c.seg, c.off = segs[0], HeaderLen
		}
		if c.f == nil {
			f, err := os.Open(filepath.Join(c.dir, segName(c.seg)))
			if err != nil {
				if !os.IsNotExist(err) {
					return nil, err
				}
				// The segment is not on disk. Newer ones existing means ours
				// was GC'd; otherwise it simply has not been created yet.
				hasNewer, _, serr := c.newerSegment()
				if serr != nil {
					return nil, serr
				}
				if hasNewer {
					return nil, fmt.Errorf("%w: segment %d is missing", ErrSegmentGone, c.seg)
				}
				return nil, io.EOF
			}
			c.f = f
			c.magicOK = false
		}
		start := c.off
		payload, err := c.readFrameAt()
		var next uint64
		if err == errStall {
			// No whole valid frame at c.off. In the newest segment that is a
			// write in flight (or simply the end of the log): wait.
			hasNewer, newer, serr := c.newerSegment()
			if serr != nil {
				return nil, serr
			}
			if !hasNewer {
				return nil, io.EOF
			}
			next = newer
			// A newer segment exists, so this one is immutable from here on —
			// but the stalled read may predate the writer finishing this very
			// frame and rotating. Read it again now that it cannot change.
			payload, err = c.readFrameAt()
		}
		if err == nil {
			c.recSeg, c.recOff = c.seg, start
			return payload, nil
		}
		if err != errStall {
			return nil, err
		}
		// Still no whole frame in a finished segment. Only at its end does the
		// next segment continue the log — unless GC opened a gap.
		fi, err := c.f.Stat()
		if err != nil {
			return nil, err
		}
		if c.off != fi.Size() {
			return nil, fmt.Errorf("wal: cursor: segment %d: bad frame at offset %d of %d bytes", c.seg, c.off, fi.Size())
		}
		if next != c.seg+1 {
			return nil, fmt.Errorf("%w: segments %d..%d are missing", ErrSegmentGone, c.seg+1, next-1)
		}
		c.f.Close()
		c.f = nil
		c.seg, c.off = next, HeaderLen
	}
}

// newerSegment scans the directory for the smallest segment above the
// cursor's.
func (c *Cursor) newerSegment() (ok bool, next uint64, err error) {
	segs, err := c.segments(c.dir)
	if err != nil {
		return false, 0, err
	}
	for _, s := range segs {
		if s > c.seg {
			return true, s, nil
		}
	}
	return false, 0, nil
}

// readFrameAt reads one whole valid frame at c.off, advancing past it on
// success. Every way a frame can fail to be whole returns errStall.
func (c *Cursor) readFrameAt() ([]byte, error) {
	if !c.magicOK {
		var magic [len(segMagic)]byte
		n, err := c.f.ReadAt(magic[:], 0)
		if err != nil && err != io.EOF {
			return nil, err
		}
		if n < len(magic) {
			return nil, errStall // header mid-write or a crash right after create
		}
		if string(magic[:]) != segMagic {
			return nil, fmt.Errorf("wal: segment %d: bad segment magic", c.seg)
		}
		c.magicOK = true
	}
	n, err := c.f.ReadAt(c.hdr[:], c.off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n < len(c.hdr) {
		return nil, errStall
	}
	plen := int(binary.LittleEndian.Uint32(c.hdr[0:4]))
	if plen > maxCursorFrame {
		return nil, errStall
	}
	flen := len(c.hdr) + plen
	if cap(c.buf) < flen {
		// Only for bytes that exist: a torn tail's garbage prefix may be huge.
		fi, err := c.f.Stat()
		if err != nil {
			return nil, err
		}
		if c.off+int64(flen) > fi.Size() {
			return nil, errStall
		}
		c.buf = make([]byte, flen)
	}
	frame := c.buf[:flen]
	copy(frame, c.hdr[:])
	n, err = c.f.ReadAt(frame[len(c.hdr):], c.off+int64(len(c.hdr)))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n < plen {
		return nil, errStall
	}
	// The frame is whole; wire.NextFrame checks its CRC, and a mismatch is a
	// write in flight like any other unreadable frame.
	payload, _, err := wire.NextFrame(frame)
	if err != nil {
		return nil, errStall
	}
	c.off += int64(flen)
	return payload, nil
}
