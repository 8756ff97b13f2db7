package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// The engine's checkpoint codec. SaveState serializes the engine's own
// bookkeeping (work counters, report scheduling maps, the compression
// watchlist and the sensing-region index) and delegates the filter state to
// the factored or basic filter's codec. All sharding structures are either
// configuration (worker and shard counts) or per-epoch scratch, so a
// checkpoint restores into an engine with any Workers/ShardCount.

const engineSection = "core.Engine"

// Fingerprint returns a stable hash of every configuration field that shapes
// the engine's state evolution. A checkpoint records the fingerprint of the
// config that produced it and restore refuses a mismatch: loading particle
// state into a differently parameterized engine would not fail loudly on its
// own — it would silently diverge. Workers and ShardCount are deliberately
// excluded: output is independent of them, so checkpoints are portable across
// parallelism settings (a property the recovery tests exploit).
func (c Config) Fingerprint() uint64 {
	cfg := c
	cfg.applyDefaults()
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("params=%+v|", cfg.Params)
	put("sensor=%T%+v|", cfg.Sensor, cfg.Sensor)
	put("factored=%t index=%t compress=%t|", cfg.Factored, cfg.SpatialIndex, cfg.Compression)
	put("policy=%+v|", cfg.CompressionPolicy)
	put("particles=%d/%d/%d/%d|", cfg.NumReaderParticles, cfg.NumObjectParticles,
		cfg.NumDecompressParticles, cfg.NumBasicParticles)
	put("motion=%t cone=%g/%g|", cfg.DisableMotionModel, cfg.InitConeHalfAngle, cfg.InitConeRange)
	put("report=%d/%d/%d|", cfg.ReportPolicy, cfg.ReportDelay, cfg.ScopeGapEpochs)
	put("seed=%d|", cfg.Seed)
	// Appended only when set so that every pre-existing (FastMath=false)
	// fingerprint — and thus every existing checkpoint — stays valid.
	if cfg.FastMath {
		put("fastmath=true|")
	}
	if w := cfg.World; w != nil {
		// The world formats its shelves and tags once per world. Its bytes are
		// exactly these fields' formatting, so every fingerprint — and every
		// checkpoint that records one — stays valid.
		h.Write(w.FingerprintInput())
	}
	return h.Sum64()
}

// SaveState appends the engine's full state to the encoder. It must run
// between epochs (the serving layer checkpoints from its single engine
// goroutine, after an epoch completes).
func (e *Engine) SaveState(enc *checkpoint.Encoder) {
	enc.Section(engineSection)
	enc.Int(e.stats.Epochs)
	enc.Int(e.stats.Readings)
	enc.Int(e.stats.ObjectsProcessed)
	enc.Int(e.stats.EventsEmitted)
	enc.Int(e.stats.Compressions)
	enc.Int(e.stats.Decompressions)
	enc.Int(e.lastEpoch)

	saveTagIntMap(enc, e.lastSeen)
	saveTagIntMap(enc, e.pending)
	saveTagSet(enc, e.inScope)

	// Watchlist: the merged view, sorted so identical logical state encodes
	// identically; restore re-marks through the hash router, so the shard
	// layout of the restoring engine is irrelevant.
	watched := e.watch.Merged()
	sort.Slice(watched, func(i, j int) bool { return watched[i] < watched[j] })
	enc.Uvarint(uint64(len(watched)))
	for _, id := range watched {
		enc.String(string(id))
	}

	enc.Bool(e.index != nil)
	if e.index != nil {
		e.index.SaveState(enc)
	}

	enc.Bool(e.cfg.Factored)
	if e.cfg.Factored {
		e.fact.SaveState(enc)
	} else {
		e.basic.SaveState(enc)
	}
}

// RestoreState rebuilds the engine from a SaveState payload. The engine must
// be freshly constructed from a Config whose Fingerprint matches the one that
// produced the payload; the caller (the checkpoint file layer) verifies the
// fingerprint before calling. Corrupt input errors, never panics.
func (e *Engine) RestoreState(dec *checkpoint.Decoder) error {
	dec.Section(engineSection)
	var st Stats
	st.Epochs = dec.Int()
	st.Readings = dec.Int()
	st.ObjectsProcessed = dec.Int()
	st.EventsEmitted = dec.Int()
	st.Compressions = dec.Int()
	st.Decompressions = dec.Int()
	lastEpoch := dec.Int()

	lastSeen, err := restoreTagIntMap(dec)
	if err != nil {
		return err
	}
	pending, err := restoreTagIntMap(dec)
	if err != nil {
		return err
	}
	inScope, err := restoreTagSet(dec)
	if err != nil {
		return err
	}

	nw := dec.SliceLen(1)
	watched := make([]stream.TagID, 0, nw)
	for i := 0; i < nw && dec.Err() == nil; i++ {
		watched = append(watched, stream.TagID(dec.String()))
	}

	hasIndex := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if hasIndex != (e.index != nil) {
		return fmt.Errorf("core: checkpoint %s a spatial index but the engine %s one",
			has(hasIndex), has(e.index != nil))
	}
	if hasIndex {
		if err := e.index.RestoreState(dec); err != nil {
			return err
		}
	}

	factored := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if factored != e.cfg.Factored {
		return fmt.Errorf("core: checkpoint is for a %s engine but the config selects %s",
			filterName(factored), filterName(e.cfg.Factored))
	}
	if factored {
		if err := e.fact.RestoreState(dec); err != nil {
			return err
		}
	} else {
		if err := e.basic.RestoreState(dec); err != nil {
			return err
		}
	}

	e.stats = st
	e.lastEpoch = lastEpoch
	e.lastSeen = lastSeen
	e.pending = pending
	e.inScope = inScope
	for _, id := range watched {
		e.watch.Mark(id)
	}
	return nil
}

func has(b bool) string {
	if b {
		return "carries"
	}
	return "lacks"
}

func filterName(factored bool) string {
	if factored {
		return "factored"
	}
	return "basic"
}

// saveTagIntMap encodes a map with sorted keys for byte-stable output.
func saveTagIntMap(enc *checkpoint.Encoder, m map[stream.TagID]int) {
	keys := make([]stream.TagID, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	enc.Uvarint(uint64(len(keys)))
	for _, id := range keys {
		enc.String(string(id))
		enc.Int(m[id])
	}
}

func restoreTagIntMap(dec *checkpoint.Decoder) (map[stream.TagID]int, error) {
	n := dec.SliceLen(2)
	m := make(map[stream.TagID]int, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		id := stream.TagID(dec.String())
		m[id] = dec.Int()
	}
	return m, dec.Err()
}

// saveTagSet encodes only the true members, sorted.
func saveTagSet(enc *checkpoint.Encoder, m map[stream.TagID]bool) {
	keys := make([]stream.TagID, 0, len(m))
	for id, ok := range m {
		if ok {
			keys = append(keys, id)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	enc.Uvarint(uint64(len(keys)))
	for _, id := range keys {
		enc.String(string(id))
	}
}

func restoreTagSet(dec *checkpoint.Decoder) (map[stream.TagID]bool, error) {
	n := dec.SliceLen(1)
	m := make(map[stream.TagID]bool, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		m[stream.TagID(dec.String())] = true
	}
	return m, dec.Err()
}
