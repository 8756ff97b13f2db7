// Package wal implements the write-ahead log of the durability subsystem: a
// segmented, CRC-checked, append-only record of everything the serving layer
// ingests, written BEFORE the engine applies it. Recovery restores the newest
// checkpoint and replays the log's tail through the same deterministic epoch
// path, which — because every stochastic operation draws from positionally
// checkpointed random streams — reproduces the engine state byte-exactly.
//
// On disk a log is a directory of segment files wal-NNNNNNNNNNNNNNNN.seg,
// each starting with an 8-byte magic and containing frames in the shared
// rfid/wire format (u32le length, u32le CRC32C, payload) — the same framing
// and batch-body layout the streaming ingest connection speaks, so a batch is
// encoded identically whether it arrived over HTTP, over a stream, or is
// being logged. Only the highest-numbered segment is ever open for writing,
// so a crash can tear at most the tail of the newest segment; replay treats a
// torn tail as a clean end of log and reports it, while corruption anywhere
// else is surfaced as an error. The fsync policy is configurable: every
// append (strongest), periodic (bounded loss window) or never (leave flushing
// to the OS).
package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
	"repro/rfid/wire"
)

// segMagic opens every segment file; the trailing digits version the frame
// format. 002: the record codec moved to the shared rfid/wire layout and
// RecBatch gained a stream sequence number.
const segMagic = "RFWAL002"

// RecordType discriminates the WAL record kinds.
type RecordType uint8

// The record kinds the serving layer logs.
const (
	// RecBatch is one ingested batch of raw readings and location reports,
	// logged before the runner sees it.
	RecBatch RecordType = 1
	// RecSeal records an explicit client-initiated flush: every buffered
	// epoch with time <= UpTo was sealed and processed. (Watermark-driven
	// sealing is deterministic from the batches alone and is not logged.)
	RecSeal RecordType = 2
	// RecCheckpoint marks that a checkpoint covering state through Epoch was
	// durably written; replay ignores it, operators reading a log dump see
	// where checkpoints landed.
	RecCheckpoint RecordType = 3
	// RecRegister is one continuous-query registration (the spec as its JSON
	// wire form); replayed so queries registered between checkpoints survive
	// a crash with their ids and sequence numbers intact.
	RecRegister RecordType = 4
	// RecUnregister is one query removal, by id.
	RecUnregister RecordType = 5
)

// Record is one logical WAL entry. Only the fields of the record's Type are
// meaningful.
type Record struct {
	Type RecordType

	// Readings and Locations carry a RecBatch payload.
	Readings  []stream.Reading
	Locations []stream.LocationReport
	// StreamSeq is the client-assigned batch sequence number of a RecBatch
	// that arrived over a streaming ingest connection; 0 for HTTP batches
	// (stream sequences start at 1). Recovery restores the session's
	// resume point from the highest replayed value.
	StreamSeq uint64

	// UpTo is the RecSeal horizon: epochs <= UpTo were force-sealed.
	UpTo int
	// FlushWindows records that the seal also flushed the registered
	// queries' held-back final epoch (POST /flush?windows=true) — a
	// state-mutating operation that must replay to keep query results
	// byte-identical after recovery.
	FlushWindows bool

	// Epoch is the RecCheckpoint coverage marker.
	Epoch int

	// SpecJSON is the RecRegister query spec in its JSON wire form.
	SpecJSON string
	// QueryID is the RecUnregister target.
	QueryID string
}

// batchSource adapts a RecBatch record to the shared wire.BatchSource, so
// the batch body bytes are produced by the one canonical codec.
type batchSource struct{ r *Record }

func (s batchSource) NumReadings() int { return len(s.r.Readings) }

func (s batchSource) ReadingAt(i int) (int, string) {
	rd := s.r.Readings[i]
	return rd.Time, string(rd.Tag)
}

func (s batchSource) NumLocations() int { return len(s.r.Locations) }

func (s batchSource) LocationAt(i int) (int, float64, float64, float64, float64, bool) {
	l := s.r.Locations[i]
	return l.Time, l.Pos.X, l.Pos.Y, l.Pos.Z, l.Phi, l.HasPhi
}

// batchSink collects a decoded batch body back into a record.
type batchSink struct{ r *Record }

func (s batchSink) Reading(t int, tag []byte) {
	s.r.Readings = append(s.r.Readings, stream.Reading{Time: t, Tag: stream.TagID(tag)})
}

func (s batchSink) Location(t int, x, y, z, phi float64, hasPhi bool) {
	s.r.Locations = append(s.r.Locations, stream.LocationReport{
		Time: t, Pos: geom.Vec3{X: x, Y: y, Z: z}, Phi: phi, HasPhi: hasPhi,
	})
}

// encodeTo serializes a record payload (without framing) onto e.
func (r Record) encodeTo(e *wire.Encoder) {
	e.Uvarint(uint64(r.Type))
	switch r.Type {
	case RecBatch:
		e.Uvarint(r.StreamSeq)
		wire.AppendBatch(e, batchSource{&r})
	case RecSeal:
		e.Int(r.UpTo)
		e.Bool(r.FlushWindows)
	case RecCheckpoint:
		e.Int(r.Epoch)
	case RecRegister:
		e.String(r.SpecJSON)
	case RecUnregister:
		e.String(r.QueryID)
	}
}

// encode serializes a record payload into a fresh buffer (test and tooling
// convenience; Append reuses a long-lived encoder instead).
func (r Record) encode() []byte {
	var e wire.Encoder
	r.encodeTo(&e)
	return e.Bytes()
}

// decodeRecord parses a record payload. It never panics on arbitrary bytes
// (pinned by FuzzWALDecode).
func decodeRecord(payload []byte) (Record, error) {
	var d wire.Decoder
	d.Reset(payload)
	var r Record
	r.Type = RecordType(d.Uvarint())
	switch r.Type {
	case RecBatch:
		r.StreamSeq = d.Uvarint()
		if d.Err() == nil {
			if err := wire.DecodeBatch(&d, batchSink{&r}); err != nil {
				return Record{}, fmt.Errorf("wal: bad record: %w", err)
			}
		}
	case RecSeal:
		r.UpTo = d.Int()
		r.FlushWindows = d.Bool()
	case RecCheckpoint:
		r.Epoch = d.Int()
	case RecRegister:
		r.SpecJSON = d.String()
	case RecUnregister:
		r.QueryID = d.String()
	default:
		if d.Err() == nil {
			return Record{}, fmt.Errorf("wal: unknown record type %d", r.Type)
		}
	}
	if err := d.Err(); err != nil {
		return Record{}, fmt.Errorf("wal: bad record: %w", err)
	}
	if d.Remaining() != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", d.Remaining())
	}
	return r, nil
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost, at the cost of one fsync per batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when Options.SyncEvery has elapsed since the last
	// sync, bounding the loss window without per-append latency.
	SyncInterval
	// SyncNever leaves flushing to the operating system (a clean process
	// exit loses nothing; an OS crash may lose the tail).
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag vocabulary onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold (default 64 MiB): an append that
	// would grow the current segment past it starts a new segment first.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// SyncObserver, when non-nil, is invoked with the latency of every fsync
	// the log issues. The serving layer points it at a latency histogram; it
	// runs on the appending goroutine and must be fast and non-blocking.
	SyncObserver func(time.Duration)
}

func (o *Options) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
}

// Stats are the log's cumulative counters, exported on the serving layer's
// metrics endpoint.
type Stats struct {
	// AppendedRecords and AppendedBytes count successful appends (bytes
	// include framing).
	AppendedRecords int64
	AppendedBytes   int64
	// Fsyncs counts fsync calls; MaxFsyncLatency is the slowest one observed.
	Fsyncs          int64
	MaxFsyncLatency time.Duration
	// Segment is the sequence number of the segment currently open for
	// appends.
	Segment uint64
}

// Log is an open write-ahead log. It is not safe for concurrent use; the
// serving layer appends only from the session's pinned worker.
type Log struct {
	dir   string
	opts  Options
	f     *os.File
	seq   uint64
	size  int64
	dirty bool
	last  time.Time // last sync
	stats Stats
	// enc and frame are reused across appends (payload build, then framing),
	// so steady-state appends allocate nothing and issue a single write.
	enc   wire.Encoder
	frame []byte
}

// segName returns the canonical file name for a segment sequence number.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// segSeq parses a segment file name; ok is false for foreign files.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(mid) != 16 {
		return 0, false
	}
	var seq uint64
	for i := 0; i < len(mid); i++ {
		c := mid[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Segments lists the log's segment sequence numbers in dir, ascending. A
// missing directory yields an empty list.
func Segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, ent := range entries {
		if seq, ok := segSeq(ent.Name()); ok && !ent.IsDir() {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Open creates (or reuses) the log directory and opens a FRESH segment after
// the highest existing one. Existing segments are never appended to — a
// recovering process replays them read-only and then writes into its own new
// segment. The newest existing segment is first cut back to its whole-frame
// prefix: once the new segment exists it is no longer the tail, and a torn
// frame left in it would make every later replay refuse the log.
func Open(dir string, opts Options) (*Log, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan segments: %w", err)
	}
	next := uint64(1)
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, _, err := trimTornTail(dir, last)
		if err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("wal: close segment %d: %w", last, err)
		}
		next = last + 1
	}
	l := &Log{dir: dir, opts: opts, last: time.Now()}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	return l, nil
}

// Resume reopens segment seq of the log in dir for appends at byte size: the
// Segment and Size a Log of this process reported when it was closed. It
// refuses unless seq is still the newest segment and still exactly size bytes
// long, because anything else means the log changed after that Close and only
// recovery knows what it now holds. Unlike Open it creates no segment and
// syncs no directory.
func Resume(dir string, seq uint64, size int64, opts Options) (*Log, error) {
	opts.applyDefaults()
	if size < int64(len(segMagic)) {
		return nil, fmt.Errorf("wal: resume segment %d at %d bytes: shorter than the segment header", seq, size)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(seq+1))); err == nil {
		return nil, fmt.Errorf("wal: resume segment %d: segment %d exists", seq, seq+1)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: resume segment %d: %w", seq, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: resume segment %d: %w", seq, err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != size {
		err = fmt.Errorf("%d bytes on disk, %d at close", fi.Size(), size)
	}
	if err == nil {
		_, err = f.Seek(size, 0)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: resume segment %d: %w", seq, err)
	}
	l := &Log{dir: dir, opts: opts, f: f, seq: seq, size: size, last: time.Now()}
	l.stats.Segment = seq
	return l, nil
}

// openSegment creates and switches to segment seq.
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", seq, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if l.f != nil {
		syncErr := l.syncFile() // durably finish the old segment
		closeErr := l.f.Close()
		if syncErr != nil {
			f.Close()
			return syncErr
		}
		if closeErr != nil {
			f.Close()
			return fmt.Errorf("wal: close previous segment: %w", closeErr)
		}
	}
	l.f = f
	l.seq = seq
	l.size = int64(len(segMagic))
	l.stats.Segment = seq
	syncDir(l.dir)
	return nil
}

// Segment returns the sequence number of the segment currently open for
// appends.
func (l *Log) Segment() uint64 { return l.seq }

// Size returns the byte length of the segment currently open for appends,
// header included: with Segment, the position Resume continues from.
func (l *Log) Size() int64 { return l.size }

// Stats returns the cumulative counters.
func (l *Log) Stats() Stats { return l.stats }

// crcTable retains the frame checksum polynomial for test helpers; the
// framing itself lives in rfid/wire.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append frames and writes one record, rotating the segment first when the
// write would cross the size threshold, then applies the fsync policy. The
// caller may only treat the record as durable once Append returns nil under
// SyncAlways (or after an explicit Sync).
func (l *Log) Append(rec Record) error {
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	l.enc.Reset()
	rec.encodeTo(&l.enc)
	l.frame = wire.AppendFrame(l.frame[:0], l.enc.Bytes())
	frame := int64(len(l.frame))
	if l.size+frame > l.opts.SegmentBytes && l.size > int64(len(segMagic)) {
		if err := l.openSegment(l.seq + 1); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(l.frame); err != nil {
		return fmt.Errorf("wal: append frame: %w", err)
	}
	l.size += frame
	l.dirty = true
	l.stats.AppendedRecords++
	l.stats.AppendedBytes += frame
	switch l.opts.Sync {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.last) >= l.opts.SyncEvery {
			return l.Sync()
		}
	}
	return nil
}

// Sync flushes the current segment to stable storage (a no-op when nothing
// was appended since the last sync).
func (l *Log) Sync() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	return l.syncFile()
}

func (l *Log) syncFile() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	lat := time.Since(start)
	l.stats.Fsyncs++
	if lat > l.stats.MaxFsyncLatency {
		l.stats.MaxFsyncLatency = lat
	}
	if l.opts.SyncObserver != nil {
		l.opts.SyncObserver(lat)
	}
	l.dirty = false
	l.last = time.Now()
	return nil
}

// Rotate durably closes the current segment and opens the next one,
// returning the new segment's sequence number. The checkpointing path calls
// it right before writing a checkpoint: the snapshot records the returned
// sequence as its replay start, and every older segment becomes garbage once
// the checkpoint is durable.
func (l *Log) Rotate() (uint64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if err := l.openSegment(l.seq + 1); err != nil {
		return 0, err
	}
	return l.seq, nil
}

// RemoveSegmentsBefore deletes every segment with sequence < seq; the
// checkpointing path calls it after a checkpoint recording seq as its replay
// start has been durably written.
func (l *Log) RemoveSegmentsBefore(seq uint64) error {
	return removeSegmentsBefore(l.dir, seq)
}

// removeSegmentsBefore is the shared GC sweep behind Log.RemoveSegmentsBefore
// and Mirror.RemoveSegmentsBefore.
func removeSegmentsBefore(dir string, seq uint64) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, segName(s))); err != nil {
			return fmt.Errorf("wal: remove segment %d: %w", s, err)
		}
	}
	return nil
}

// Close syncs and closes the log. The log cannot be used afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	syncErr := l.syncFile()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// syncDir fsyncs the log directory so segment creation survives power loss;
// best-effort.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records is the number of records delivered to the callback.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// Torn reports that the final segment ended in a partial or
	// CRC-mismatched frame — the expected signature of a crash mid-append —
	// and replay stopped cleanly there.
	Torn bool
}

// Replay reads every segment with sequence >= fromSeg in order and invokes fn
// for each decoded record. A torn tail in the final segment ends the replay
// cleanly (see ReplayStats.Torn); malformed bytes anywhere else are an error,
// as is a callback error (returned immediately).
func Replay(dir string, fromSeg uint64, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := Segments(dir)
	if err != nil {
		return st, err
	}
	for i, seq := range segs {
		if seq < fromSeg {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return st, fmt.Errorf("wal: read segment %d: %w", seq, err)
		}
		st.Segments++
		tail := i == len(segs)-1
		n, torn, err := replaySegment(data, tail, fn)
		st.Records += n
		if err != nil {
			return st, fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		if torn {
			st.Torn = true
			break
		}
	}
	return st, nil
}

// replaySegment decodes one segment image. When tail is true, a partial or
// corrupt frame ends the scan cleanly (torn == true); otherwise it is an
// error. It never panics on arbitrary bytes (pinned by FuzzWALDecode).
func replaySegment(data []byte, tail bool, fn func(Record) error) (records int, torn bool, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		if tail && len(data) < len(segMagic) {
			// A crash immediately after segment creation can leave a short
			// header; treat it as an empty torn tail rather than corruption.
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("bad segment magic")
	}
	rest := data[len(segMagic):]
	for len(rest) > 0 {
		off := len(data) - len(rest)
		payload, next, err := wire.NextFrame(rest)
		if err != nil {
			// Both framing failures (a cut-short frame and a CRC mismatch)
			// are the expected signatures of a crash mid-append in the tail
			// segment; anywhere else they are corruption.
			if tail {
				return records, true, nil
			}
			return records, false, fmt.Errorf("bad frame at offset %d: %w", off, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The CRC matched, so these bytes were written whole: this is
			// corruption or a format bug, not a torn tail.
			return records, false, err
		}
		if err := fn(rec); err != nil {
			return records, false, err
		}
		records++
		rest = next
	}
	return records, false, nil
}
