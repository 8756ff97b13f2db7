package factored

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
)

// The factored filter's checkpoint codec. SaveState serializes everything
// that determines the filter's future behaviour — the SoA particle columns of
// every belief, the reader particles, the report bookkeeping fields and the
// exact position of every random stream — and RestoreState rebuilds it
// byte-identically into a filter constructed with the same Config. Scratch
// memory (arenas, prologue buffers) is deliberately excluded: it carries no
// information across epochs.

const filterSection = "factored.Filter"

// SaveState appends the filter's full state to the encoder. It must not run
// concurrently with the epoch phases (callers checkpoint at the epoch
// barrier, where the engine is quiescent).
func (f *Filter) SaveState(e *checkpoint.Encoder) {
	e.Section(filterSection)
	e.Bool(f.started)
	e.Int(f.epoch)
	e.Vec3(f.prevReported)
	e.Bool(f.hasReported)
	e.Vec3(f.lastDrift)
	e.Bool(f.hasDrift)
	e.Vec3(f.stepReaderPos)
	// The filter-level stream is always derived from cfg.Seed; its position
	// is the only state to pin.
	e.Uvarint(f.src.Pos())

	e.Uvarint(uint64(len(f.readers)))
	for j := range f.readers {
		e.Pose(f.readers[j].Pose)
		e.Float64(f.readers[j].logW)
		e.Float64(f.readers[j].normW)
	}
	e.Float64s(f.readerNorm)

	e.Uvarint(uint64(len(f.beliefs)))
	for _, b := range f.beliefs {
		saveBelief(e, b)
	}
}

// saveBelief appends one object belief.
func saveBelief(e *checkpoint.Encoder, b *ObjectBelief) {
	e.String(string(b.ID))
	e.Int(b.FirstSeen)
	e.Int(b.LastSeen)
	e.Vec3(b.LastSeenReaderPos)
	e.Int(b.ScopeEntered)
	e.Float64(b.CompressionKL)

	e.Bool(b.Compressed != nil)
	if b.Compressed != nil {
		e.Vec3(b.Compressed.Mean)
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				e.Float64(b.Compressed.Cov[r][c])
			}
		}
	} else {
		e.Uvarint(uint64(len(b.locs)))
		for i := range b.locs {
			e.Vec3(b.locs[i])
		}
		for i := range b.reader {
			e.Varint(int64(b.reader[i]))
		}
		for i := range b.logW {
			e.Float64(b.logW[i])
		}
		for i := range b.normW {
			e.Float64(b.normW[i])
		}
	}

	// Random-stream continuation: the seed the stream was (or will be)
	// created from and, when live, its exact position.
	e.Bool(b.srcSeeded)
	e.Varint(b.srcSeed)
	e.Bool(b.src != nil)
	if b.src != nil {
		e.Uvarint(b.src.Pos())
	}
}

// RestoreState rebuilds the filter's state from a SaveState payload. The
// filter must be freshly constructed with the same Config that produced the
// payload (the engine layer enforces this with a configuration fingerprint);
// previous state is discarded. Corrupt or truncated payloads return an error
// and never panic.
func (f *Filter) RestoreState(d *checkpoint.Decoder) error {
	d.Section(filterSection)
	started := d.Bool()
	epoch := d.Int()
	prevReported := d.Vec3()
	hasReported := d.Bool()
	lastDrift := d.Vec3()
	hasDrift := d.Bool()
	stepReaderPos := d.Vec3()
	srcPos := d.Uvarint()

	nr := d.SliceLen(8 * 6)
	readers := make([]readerParticle, 0, nr)
	for j := 0; j < nr && d.Err() == nil; j++ {
		readers = append(readers, readerParticle{
			Pose:  d.Pose(),
			logW:  d.Float64(),
			normW: d.Float64(),
		})
	}
	readerNorm := d.Float64s()
	if d.Err() == nil && len(readerNorm) != len(readers) {
		return fmt.Errorf("factored: reader norm column length %d != %d readers", len(readerNorm), len(readers))
	}

	no := d.SliceLen(1)
	beliefs := make([]*ObjectBelief, 0, no)
	objects := make(map[stream.TagID]*ObjectBelief, no)
	for i := 0; i < no && d.Err() == nil; i++ {
		b, err := restoreBelief(d)
		if err != nil {
			return err
		}
		if _, dup := objects[b.ID]; dup {
			return fmt.Errorf("factored: duplicate belief for tag %q", b.ID)
		}
		b.seq = len(beliefs)
		objects[b.ID] = b
		beliefs = append(beliefs, b)
	}
	if err := d.Err(); err != nil {
		return err
	}
	// The uncompressed list is derived state, rebuilt rather than stored.
	var uncompressed []*ObjectBelief
	for _, b := range beliefs {
		if !b.IsCompressed() {
			b.listed = true
			uncompressed = append(uncompressed, b)
		}
	}

	// All fields decoded cleanly; install the state atomically.
	f.started = started
	f.epoch = epoch
	f.prevReported = prevReported
	f.hasReported = hasReported
	f.lastDrift = lastDrift
	f.hasDrift = hasDrift
	f.stepReaderPos = stepReaderPos
	f.src = rng.NewAt(f.cfg.Seed, srcPos)
	f.readers = readers
	f.readerNorm = readerNorm
	f.objects = objects
	f.beliefs = beliefs
	f.uncompressed = uncompressed
	f.stepped = f.stepped[:0]
	return nil
}

// restoreBelief decodes one object belief.
func restoreBelief(d *checkpoint.Decoder) (*ObjectBelief, error) {
	b := &ObjectBelief{
		ID:        stream.TagID(d.String()),
		FirstSeen: d.Int(),
		LastSeen:  d.Int(),
	}
	b.LastSeenReaderPos = d.Vec3()
	b.ScopeEntered = d.Int()
	b.CompressionKL = d.Float64()

	if d.Bool() { // compressed
		var g stats.Gaussian3
		g.Mean = d.Vec3()
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				g.Cov[r][c] = d.Float64()
			}
		}
		b.Compressed = &g
	} else {
		n := d.SliceLen(8 * 3)
		if d.Err() == nil && n > 0 {
			b.setLen(n)
			for i := 0; i < n; i++ {
				b.locs[i] = d.Vec3()
			}
			for i := 0; i < n; i++ {
				b.reader[i] = int32(d.Varint())
			}
			for i := 0; i < n; i++ {
				b.logW[i] = d.Float64()
			}
			for i := 0; i < n; i++ {
				b.normW[i] = d.Float64()
			}
		}
	}

	b.srcSeeded = d.Bool()
	b.srcSeed = d.Varint()
	if d.Bool() { // live stream
		pos := d.Uvarint()
		if d.Err() == nil {
			if !b.srcSeeded {
				return nil, fmt.Errorf("factored: belief %q has a live stream but no recorded seed", b.ID)
			}
			b.src = rng.NewAt(b.srcSeed, pos)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
