package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// durableTestConfig returns a full-system config (factored + index +
// compression, short report delay so events flow) sized for fast tests.
func durableTestConfig(t *testing.T, nObjects int) (Config, []*stream.Epoch) {
	t.Helper()
	simCfg := smallTraceConfig(nObjects, 11)
	trace, err := generateWarehouse(simCfg)
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	if len(trace.Epochs) > 120 {
		trace.Epochs = trace.Epochs[:120]
	}
	cfg := DefaultConfig(defaultTestParams(), trace.World)
	cfg.NumObjectParticles = 120
	cfg.NumReaderParticles = 25
	cfg.ReportDelay = 10
	cfg.Seed = 5
	return cfg, trace.Epochs
}

// eventsEqual compares event streams for bit-exact equality.
func eventsEqual(a, b []stream.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRestoreEquivalence is the core durability property: an engine
// checkpointed mid-stream and restored into a FRESH engine — possibly with a
// different Workers — continues the run byte-identically to one
// that never stopped. It exercises the full state surface: particle columns,
// reader particles, random-stream positions, the sensing-region index, the
// compression watchlist and the report bookkeeping.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cfg, epochs := durableTestConfig(t, 12)

	// Reference: one uninterrupted inline run.
	ref := newEngine(t, cfg, 1)
	var refEvents []stream.Event
	for _, ep := range epochs {
		evs, err := ref.ProcessEpoch(ep)
		if err != nil {
			t.Fatalf("reference epoch %d: %v", ep.Time, err)
		}
		refEvents = append(refEvents, evs...)
	}
	refEvents = append(refEvents, ref.Finish()...)

	type variant struct {
		name                        string
		saveWorkers, restoreWorkers int
	}
	variants := []variant{
		{"inline-to-inline", 1, 1},
		{"inline-to-fanned", 1, 4},
		{"fanned-to-inline", 4, 1},
		{"default-workers-to-fanned-rechunk", 0, 3},
	}
	for _, v := range variants {
		for _, split := range []int{1, len(epochs) / 3, 2 * len(epochs) / 3} {
			a := newEngine(t, cfg, v.saveWorkers)
			var got []stream.Event
			for _, ep := range epochs[:split] {
				evs, err := a.ProcessEpoch(ep)
				if err != nil {
					t.Fatalf("%s split %d: epoch %d: %v", v.name, split, ep.Time, err)
				}
				got = append(got, evs...)
			}

			enc := checkpoint.NewEncoder()
			a.SaveState(enc)

			b := newEngine(t, cfg, v.restoreWorkers)
			dec := checkpoint.NewDecoder(enc.Bytes())
			if err := b.RestoreState(dec); err != nil {
				t.Fatalf("%s split %d: restore: %v", v.name, split, err)
			}
			for _, ep := range epochs[split:] {
				evs, err := b.ProcessEpoch(ep)
				if err != nil {
					t.Fatalf("%s split %d: resumed epoch %d: %v", v.name, split, ep.Time, err)
				}
				got = append(got, evs...)
			}
			got = append(got, b.Finish()...)

			if !eventsEqual(got, refEvents) {
				t.Fatalf("%s split %d: event stream diverged after restore (%d vs %d events)",
					v.name, split, len(got), len(refEvents))
			}
			// Final estimates must agree bit-exactly too.
			for _, id := range ref.TrackedObjects() {
				wantLoc, wantSt, wantOK := ref.Estimate(id)
				gotLoc, gotSt, gotOK := b.Estimate(id)
				if wantOK != gotOK || wantLoc != gotLoc || wantSt != gotSt {
					t.Fatalf("%s split %d: estimate for %s diverged: %v/%v vs %v/%v",
						v.name, split, id, gotLoc, gotSt, wantLoc, wantSt)
				}
			}
			if as, bs := a.Stats(), b.Stats(); as.Epochs+len(epochs)-split != bs.Epochs {
				t.Fatalf("%s split %d: stats not carried across restore: %+v vs %+v", v.name, split, as, bs)
			}
		}
	}
}

// TestCheckpointRestoreBasicFilter covers the basic (unfactorized) filter's
// codec through the engine.
func TestCheckpointRestoreBasicFilter(t *testing.T) {
	cfg, epochs := durableTestConfig(t, 4)
	cfg.Factored = false
	cfg.SpatialIndex = false
	cfg.Compression = false
	cfg.NumBasicParticles = 200
	epochs = epochs[:40]

	ref := newEngine(t, cfg, 1)
	var refEvents []stream.Event
	for _, ep := range epochs {
		evs, err := ref.ProcessEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		refEvents = append(refEvents, evs...)
	}
	refEvents = append(refEvents, ref.Finish()...)

	split := len(epochs) / 2
	a := newEngine(t, cfg, 1)
	var got []stream.Event
	for _, ep := range epochs[:split] {
		evs, err := a.ProcessEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	b := newEngine(t, cfg, 1)
	if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, ep := range epochs[split:] {
		evs, err := b.ProcessEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	got = append(got, b.Finish()...)
	if !eventsEqual(got, refEvents) {
		t.Fatalf("basic filter diverged after restore (%d vs %d events)", len(got), len(refEvents))
	}
}

// TestRestoreRejectsCorruptPayload pins the decode-robustness contract at the
// engine level: truncated and bit-flipped payloads error, never panic.
func TestRestoreRejectsCorruptPayload(t *testing.T) {
	cfg, epochs := durableTestConfig(t, 5)
	a := newEngine(t, cfg, 1)
	for _, ep := range epochs[:30] {
		if _, err := a.ProcessEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	payload := enc.Bytes()

	for _, cut := range []int{0, 1, len(payload) / 4, len(payload) / 2, len(payload) - 1} {
		b := newEngine(t, cfg, 1)
		if err := b.RestoreState(checkpoint.NewDecoder(payload[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Mismatched shape: a config without an index must reject an
	// index-carrying payload.
	cfgNoIndex := cfg
	cfgNoIndex.SpatialIndex = false
	b := newEngine(t, cfgNoIndex, 1)
	if err := b.RestoreState(checkpoint.NewDecoder(payload)); err == nil {
		t.Fatal("index-shape mismatch accepted")
	}
}

// TestConfigFingerprint pins that behaviour-shaping fields change the
// fingerprint while parallelism fields do not.
func TestConfigFingerprint(t *testing.T) {
	cfg, _ := durableTestConfig(t, 3)
	base := cfg.Fingerprint()
	// A recorded value: existing checkpoints carry fingerprints computed from
	// this per-field formatting, so neither may ever change.
	if base != 0x86a6ac04ed243144 {
		t.Fatalf("fingerprint %#x, recorded %#x", base, uint64(0x86a6ac04ed243144))
	}
	var legacy []byte
	w := cfg.World
	legacy = fmt.Appendf(legacy, "shelves=%d|", len(w.Shelves))
	for _, s := range w.Shelves {
		legacy = fmt.Appendf(legacy, "shelf=%s:%v|", s.ID, s.Region)
	}
	for _, id := range w.ShelfTagIDs() {
		legacy = fmt.Appendf(legacy, "tag=%s:%v|", id, w.ShelfTags[id])
	}
	if got := w.FingerprintInput(); string(got) != string(legacy) {
		t.Fatalf("world fingerprint input\n got %q\nwant %q", got, legacy)
	}

	same := cfg
	same.Workers = 8
	if same.Fingerprint() != base {
		t.Fatal("Workers must not change the fingerprint (checkpoints are parallelism-portable)")
	}

	for name, mutate := range map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed++ },
		"particles": func(c *Config) { c.NumObjectParticles++ },
		"policy":    func(c *Config) { c.ReportDelay++ },
		"filter":    func(c *Config) { c.Factored = false; c.SpatialIndex = false; c.Compression = false },
	} {
		mut := cfg
		mutate(&mut)
		if mut.Fingerprint() == base {
			t.Fatalf("%s change did not alter the fingerprint", name)
		}
	}
}

// reverseIndexMembers re-encodes a spatial.SensingIndex section with every
// entry's member list reversed; the result has the input's length.
func reverseIndexMembers(t *testing.T, section []byte) []byte {
	t.Helper()
	d := checkpoint.NewDecoder(section)
	enc := checkpoint.NewEncoder()
	const name = "spatial.SensingIndex"
	d.Section(name)
	enc.Section(name)
	n := d.Uvarint()
	enc.Uvarint(n)
	reordered := 0
	for i := uint64(0); i < n; i++ {
		enc.BBox(d.BBox())
		tags := make([]string, d.Uvarint())
		for j := range tags {
			tags[j] = d.String()
		}
		slices.Reverse(tags)
		enc.Uvarint(uint64(len(tags)))
		for _, tag := range tags {
			enc.String(tag)
		}
		if len(tags) > 1 {
			reordered++
		}
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("decoding the index section: %v (%d bytes left)", err, d.Remaining())
	}
	if reordered == 0 {
		t.Fatal("no index entry has two members; nothing was reordered")
	}
	return enc.Bytes()
}

// TestRestoreCheckpointFromBeforeDeltaIndex restores a checkpoint shaped like
// the ones written before the index stored partitioned deltas and before
// compression stopped measuring KL — index entries listing their members in
// any order, a non-zero CompressionKL on every compressed belief — and
// requires the resumed run to emit the events of a run that never stopped.
func TestRestoreCheckpointFromBeforeDeltaIndex(t *testing.T) {
	cfg, epochs := durableTestConfig(t, 12)
	ref := newEngine(t, cfg, 1)
	refEvents, err := ref.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}

	split := 2 * len(epochs) / 3
	a := newEngine(t, cfg, 1)
	var got []stream.Event
	for _, ep := range epochs[:split] {
		evs, err := a.ProcessEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	compressed := 0
	for _, id := range a.TrackedObjects() {
		if b := a.fact.Belief(id); b.IsCompressed() {
			compressed++
			b.CompressionKL = 0.125 * float64(compressed)
		}
	}
	if compressed == 0 {
		t.Fatal("no belief is compressed at the split; the KL field is not exercised")
	}
	enc, ienc := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	a.SaveState(enc)
	a.index.SaveState(ienc)
	payload, section := enc.Bytes(), ienc.Bytes()
	at := bytes.Index(payload, section)
	if at < 0 {
		t.Fatal("index section not found in the engine payload")
	}
	payload = slices.Concat(payload[:at], reverseIndexMembers(t, section), payload[at+len(section):])

	b := newEngine(t, cfg, 1)
	if err := b.RestoreState(checkpoint.NewDecoder(payload)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rest, err := b.Run(epochs[split:])
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, rest...); !eventsEqual(got, refEvents) {
		t.Fatalf("event stream diverged after restore (%d vs %d events)", len(got), len(refEvents))
	}
}
