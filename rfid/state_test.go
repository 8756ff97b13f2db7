package rfid_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/rfid"
)

// ingestByEpoch groups a trace's raw streams into per-epoch batches.
func ingestByEpoch(trace *rfid.Trace) (map[int][]rfid.Reading, map[int][]rfid.LocationReport, int) {
	readings, locations := rfid.RawStreams(trace)
	rByT := make(map[int][]rfid.Reading)
	lByT := make(map[int][]rfid.LocationReport)
	maxT := 0
	for _, r := range readings {
		rByT[r.Time] = append(rByT[r.Time], r)
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	for _, l := range locations {
		lByT[l.Time] = append(lByT[l.Time], l)
		if l.Time > maxT {
			maxT = l.Time
		}
	}
	return rByT, lByT, maxT
}

// driveRunner ingests epochs [from, to) one batch at a time, advancing after
// each, and returns every emitted event.
func driveRunner(t *testing.T, r *rfid.Runner, rByT map[int][]rfid.Reading, lByT map[int][]rfid.LocationReport, from, to int) []rfid.Event {
	t.Helper()
	var all []rfid.Event
	for tt := from; tt < to; tt++ {
		r.Ingest(rByT[tt], lByT[tt])
		evs, err := r.Advance()
		if err != nil {
			t.Fatalf("advance at epoch %d: %v", tt, err)
		}
		all = append(all, evs...)
	}
	return all
}

// TestRunnerCheckpointRestoreEquivalence is the runner-level recovery
// property: a runner checkpointed mid-stream and restored into a fresh one
// (here with a different worker count) continues byte-identically — events,
// snapshots and the time-travel history ring all match an uninterrupted run.
func TestRunnerCheckpointRestoreEquivalence(t *testing.T) {
	trace := simulateSmall(t, 8, 11)
	rByT, lByT, maxT := ingestByEpoch(trace)
	cfg := runnerConfig(trace)
	rc := rfid.RunnerConfig{HistoryEpochs: 64}

	ref, err := rfid.NewRunner(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	refEvents := driveRunner(t, ref, rByT, lByT, 0, maxT+1)

	split := maxT / 2
	a, err := rfid.NewRunner(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	got := driveRunner(t, a, rByT, lByT, 0, split)

	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	if a.Fingerprint() == 0 {
		t.Fatal("zero fingerprint")
	}

	shardedCfg := cfg
	shardedCfg.Workers = 4
	shardedCfg.ShardCount = 8
	b, err := rfid.NewRunner(shardedCfg, rfid.RunnerConfig{HistoryEpochs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not parallelism-portable")
	}
	if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got = append(got, driveRunner(t, b, rByT, lByT, split, maxT+1)...)

	if !reflect.DeepEqual(got, refEvents) {
		t.Fatalf("event stream diverged after restore (%d vs %d events)", len(got), len(refEvents))
	}
	for _, id := range ref.Tracked() {
		wantLoc, wantSt, wantOK := ref.Snapshot(id)
		gotLoc, gotSt, gotOK := b.Snapshot(id)
		if wantOK != gotOK || wantLoc != gotLoc || wantSt != gotSt {
			t.Fatalf("snapshot for %s diverged after restore", id)
		}
	}

	// Time-travel history must agree epoch by epoch.
	refOld, refNew, refOK := ref.HistoryBounds()
	gotOld, gotNew, gotOK := b.HistoryBounds()
	if !refOK || !gotOK || refOld != gotOld || refNew != gotNew {
		t.Fatalf("history bounds diverged: [%d,%d]/%v vs [%d,%d]/%v", gotOld, gotNew, gotOK, refOld, refNew, refOK)
	}
	for ep := refOld; ep <= refNew; ep++ {
		want, wantOK := ref.HistoryEvents(ep)
		got, gotOK := b.HistoryEvents(ep)
		if wantOK != gotOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("history at epoch %d diverged", ep)
		}
	}
}

// v1Fixture rebuilds the run testdata/runner-v1.ckpt checkpoints: that file
// is the runner's SaveState in payload version 1 (a full snapshot of every
// retained epoch), written by the version-1 encoder with this configuration
// and input, HistoryEpochs 16, after sealing epoch upTo.
func v1Fixture(t *testing.T) (cfg rfid.Config, rByT map[int][]rfid.Reading, lByT map[int][]rfid.LocationReport, upTo, maxT int) {
	t.Helper()
	wc := rfid.DefaultWarehouseConfig()
	wc.NumObjects = 10
	wc.NumShelfTags = 4
	wc.Rounds = 2
	wc.MoveInterval, wc.MoveDistance, wc.MoveCount = 50, 6, 1
	wc.Seed = 31
	trace, err := rfid.SimulateWarehouse(wc)
	if err != nil {
		t.Fatal(err)
	}
	cfg = rfid.DefaultConfig(rfid.DefaultParams(), trace.World)
	cfg.NumObjectParticles = 60
	cfg.NumReaderParticles = 30
	cfg.Workers = 1
	cfg.Seed = 9
	rByT, lByT, maxT = ingestByEpoch(trace)
	return cfg, rByT, lByT, 2 * maxT / 3, maxT
}

// TestRestoreVersion1Checkpoint restores a checkpoint written in payload
// version 1 into the change-log history: every retained epoch must read
// exactly what an uninterrupted run of the same input reads, the restored
// runner must re-save the uninterrupted run's bytes, and both must continue
// identically — also when restored into a smaller HistoryEpochs.
func TestRestoreVersion1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "runner-v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("fixture is payload version %d, want 1", snap.Version)
	}
	cfg, rByT, lByT, upTo, maxT := v1Fixture(t)
	for _, capacity := range []int{16, 6} {
		rc := rfid.RunnerConfig{HistoryEpochs: capacity}
		ref, err := rfid.NewRunner(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		driveRunner(t, ref, rByT, lByT, 0, upTo+1)
		got, err := rfid.NewRunner(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Fingerprint != got.Fingerprint() || snap.Epoch != upTo {
			t.Fatalf("fixture fingerprint %#x epoch %d, run %#x epoch %d", snap.Fingerprint, snap.Epoch, got.Fingerprint(), upTo)
		}
		if err := got.RestoreState(snap.PayloadDecoder()); err != nil {
			t.Fatalf("restore version-1 payload: %v", err)
		}
		sameHistory := func(when string) {
			t.Helper()
			refOld, refNew, _ := ref.HistoryBounds()
			gotOld, gotNew, ok := got.HistoryBounds()
			if !ok || gotOld != refOld || gotNew != refNew {
				t.Fatalf("cap %d %s: bounds [%d,%d]/%v, want [%d,%d]", capacity, when, gotOld, gotNew, ok, refOld, refNew)
			}
			for ep := refOld; ep <= refNew; ep++ {
				want, _ := ref.HistoryEvents(ep)
				have, _ := got.HistoryEvents(ep)
				if !reflect.DeepEqual(have, want) {
					t.Fatalf("cap %d %s: history of epoch %d differs", capacity, when, ep)
				}
			}
		}
		sameHistory("after restore")
		saved := func(r *rfid.Runner) []byte {
			enc := checkpoint.NewEncoder()
			r.SaveState(enc)
			return enc.Bytes()
		}
		if !bytes.Equal(saved(got), saved(ref)) {
			t.Fatalf("cap %d: the runner restored from version 1 re-saves different bytes", capacity)
		}
		if !reflect.DeepEqual(driveRunner(t, got, rByT, lByT, upTo+1, maxT+1), driveRunner(t, ref, rByT, lByT, upTo+1, maxT+1)) {
			t.Fatalf("cap %d: events diverged after the version-1 restore", capacity)
		}
		sameHistory("at the end")
	}
}

// TestRunnerHistoryRing pins the bounded-retention and lookup behaviour of
// the time-travel ring.
func TestRunnerHistoryRing(t *testing.T) {
	trace := simulateSmall(t, 5, 3)
	rByT, lByT, maxT := ingestByEpoch(trace)
	const cap = 10
	r, err := rfid.NewRunner(runnerConfig(trace), rfid.RunnerConfig{HistoryEpochs: cap})
	if err != nil {
		t.Fatal(err)
	}
	driveRunner(t, r, rByT, lByT, 0, maxT+1)

	oldest, newest, ok := r.HistoryBounds()
	if !ok {
		t.Fatal("no history recorded")
	}
	if newest-oldest+1 > cap {
		t.Fatalf("ring retained %d epochs, cap %d", newest-oldest+1, cap)
	}
	if newest != maxT {
		t.Fatalf("newest history epoch %d, want %d", newest, maxT)
	}
	evs, ok := r.HistoryEvents(newest)
	if !ok || len(evs) == 0 {
		t.Fatalf("no events at newest epoch (ok=%v)", ok)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Tag < evs[i-1].Tag {
			t.Fatal("history events not in tag order")
		}
	}
	// Epochs evicted from the ring, and epochs never sealed, miss cleanly.
	if _, ok := r.HistoryEvents(oldest - 1); ok {
		t.Fatal("evicted epoch served")
	}
	if _, ok := r.HistoryEvents(newest + 100); ok {
		t.Fatal("future epoch served")
	}

	// History disabled: no ring, no bounds.
	r2, err := rfid.NewRunner(runnerConfig(trace), rfid.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	driveRunner(t, r2, rByT, lByT, 0, 5)
	if _, _, ok := r2.HistoryBounds(); ok {
		t.Fatal("history recorded while disabled")
	}
}

// TestRunnerSealTo pins the replay primitive: an explicit SealTo processes
// exactly the buffered epochs up to the horizon, like Flush but independent
// of the watermark.
func TestRunnerSealTo(t *testing.T) {
	trace := simulateSmall(t, 5, 7)
	rByT, lByT, _ := ingestByEpoch(trace)
	r, err := rfid.NewRunner(runnerConfig(trace), rfid.RunnerConfig{HoldEpochs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Huge hold: Advance seals nothing.
	for tt := 0; tt < 10; tt++ {
		r.Ingest(rByT[tt], lByT[tt])
	}
	if evs, err := r.Advance(); err != nil || len(evs) != 0 {
		t.Fatalf("advance sealed despite hold: %d events, err %v", len(evs), err)
	}
	if _, err := r.SealTo(4); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.NextEpoch != 5 {
		t.Fatalf("SealTo(4) advanced next to %d, want 5", st.NextEpoch)
	}
	if st.BufferedEpochs != 5 {
		t.Fatalf("SealTo(4) left %d buffered epochs, want 5", st.BufferedEpochs)
	}
}
