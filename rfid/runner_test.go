package rfid_test

import (
	"reflect"
	"testing"

	"repro/rfid"
)

// runnerConfig is the engine configuration shared by the Runner tests.
func runnerConfig(trace *rfid.Trace) rfid.Config {
	cfg := rfid.DefaultConfig(rfid.DefaultParams(), trace.World)
	cfg.NumObjectParticles = 200
	cfg.NumReaderParticles = 50
	cfg.Seed = 11
	cfg.ReportPolicy = rfid.ReportEveryEpoch
	return cfg
}

// TestRunnerMatchesBatchPipeline pins the core property of the continuous
// driver: ingesting a trace incrementally (one epoch's raw records per batch,
// advancing after each) produces exactly the events of a batch Pipeline.Run
// over the synchronized trace.
func TestRunnerMatchesBatchPipeline(t *testing.T) {
	trace := simulateSmall(t, 8, 11)
	readings, locations := rfid.RawStreams(trace)

	// Batch reference run.
	pipe, err := rfid.NewPipeline(runnerConfig(trace))
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	want, err := pipe.Run(rfid.Synchronize(readings, locations))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Continuous run: group raw records by epoch, ingest epoch by epoch.
	byTime := make(map[int]struct {
		r []rfid.Reading
		l []rfid.LocationReport
	})
	maxT := 0
	for _, r := range readings {
		b := byTime[r.Time]
		b.r = append(b.r, r)
		byTime[r.Time] = b
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	for _, l := range locations {
		b := byTime[l.Time]
		b.l = append(b.l, l)
		byTime[l.Time] = b
		if l.Time > maxT {
			maxT = l.Time
		}
	}

	runner, err := rfid.NewRunner(runnerConfig(trace), rfid.RunnerConfig{})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	var got []rfid.Event
	for ti := 0; ti <= maxT; ti++ {
		b, ok := byTime[ti]
		if !ok {
			continue
		}
		runner.Ingest(b.r, b.l)
		events, err := runner.Advance()
		if err != nil {
			t.Fatalf("Advance at t=%d: %v", ti, err)
		}
		got = append(got, events...)
	}
	final, err := runner.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	got = append(got, final...)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("continuous run diverged from batch run: %d vs %d events", len(got), len(want))
	}
	st := runner.Stats()
	if st.Epochs != len(trace.Epochs) {
		t.Errorf("processed %d epochs, trace has %d", st.Epochs, len(trace.Epochs))
	}
	if st.Particles == 0 {
		t.Error("Particles gauge is zero after processing")
	}
}

// TestRunnerFingerprintComputedOnce pins the stored fingerprint: it is the
// configuration's (so no existing checkpoint is invalidated), the same
// through Pipeline and Runner, and asking for it allocates nothing — the
// durability layer asks on every checkpoint write and every restore.
func TestRunnerFingerprintComputedOnce(t *testing.T) {
	trace := simulateSmall(t, 4, 21)
	cfg := runnerConfig(trace)
	r, err := rfid.NewRunner(cfg, rfid.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := rfid.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Fingerprint()
	if r.Fingerprint() != want || pipe.Fingerprint() != want {
		t.Fatalf("fingerprints runner %#x, pipeline %#x, config %#x", r.Fingerprint(), pipe.Fingerprint(), want)
	}
	if n := testing.AllocsPerRun(100, func() { r.Fingerprint() }); n != 0 {
		t.Fatalf("Runner.Fingerprint allocates %v times per call", n)
	}
}

// TestRunnerOutputIndependentOfWorkers pins that the continuous driver
// preserves the engine's guarantee that output does not depend on Workers.
func TestRunnerOutputIndependentOfWorkers(t *testing.T) {
	trace := simulateSmall(t, 8, 12)
	readings, locations := rfid.RawStreams(trace)

	run := func(workers int) []rfid.Event {
		cfg := runnerConfig(trace)
		cfg.Workers = workers
		runner, err := rfid.NewRunner(cfg, rfid.RunnerConfig{})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		runner.Ingest(readings, locations)
		events, err := runner.Close()
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		return events
	}

	if !reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("Workers=2 continuous run diverged from the Workers=1 run")
	}
}

// TestRunnerHoldAndLateness covers the external clocking rules: the hold
// slack keeps recent epochs buffered, Flush overrides it, and records behind
// the processed frontier are dropped as late.
func TestRunnerHoldAndLateness(t *testing.T) {
	trace := simulateSmall(t, 4, 13)
	cfg := runnerConfig(trace)
	runner, err := rfid.NewRunner(cfg, rfid.RunnerConfig{HoldEpochs: 2})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}

	readings, locations := rfid.RawStreams(trace)
	rep := runner.Ingest(readings, locations)
	if rep.LateDropped != 0 {
		t.Fatalf("fresh ingest dropped %d records", rep.LateDropped)
	}

	if _, err := runner.Advance(); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	st := runner.Stats()
	if st.BufferedEpochs == 0 {
		t.Fatal("hold slack should leave the last epochs buffered")
	}
	if st.NextEpoch > st.Watermark-2+1 {
		t.Fatalf("advance processed into the hold window: next=%d watermark=%d", st.NextEpoch, st.Watermark)
	}
	// Position is the same three counters without the particle count.
	if pos, want := runner.Position(), (rfid.RunnerPosition{Epochs: st.Epochs, NextEpoch: st.NextEpoch, Watermark: st.Watermark}); pos != want || pos.Epochs == 0 {
		t.Fatalf("Position = %+v, Stats has %+v", pos, want)
	}
	// Stats' population figures are the ones the full lists give.
	if st.TrackedObjects != len(runner.Tracked()) || st.TrackedObjects == 0 {
		t.Fatalf("TrackedObjects = %d, Tracked() lists %d", st.TrackedObjects, len(runner.Tracked()))
	}

	if _, err := runner.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st = runner.Stats()
	if st.BufferedEpochs != 0 {
		t.Fatalf("flush left %d epochs buffered", st.BufferedEpochs)
	}

	// Everything is processed now, so re-ingesting the same records must be
	// dropped as late.
	rep = runner.Ingest(readings[:3], nil)
	if rep.Readings != 0 || rep.LateDropped != 3 {
		t.Fatalf("late ingest accepted: %+v", rep)
	}
	if runner.Stats().LateDropped != 3 {
		t.Fatalf("LateDropped = %d, want 3", runner.Stats().LateDropped)
	}
}

// TestRunnerSnapshots exercises the concurrent-read surface.
func TestRunnerSnapshots(t *testing.T) {
	trace := simulateSmall(t, 4, 14)
	runner, err := rfid.NewRunner(runnerConfig(trace), rfid.RunnerConfig{})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	readings, locations := rfid.RawStreams(trace)
	runner.Ingest(readings, locations)
	if _, err := runner.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	tags := runner.Tracked()
	if len(tags) != 4 {
		t.Fatalf("tracked %d objects, want 4", len(tags))
	}
	loc, st, ok := runner.Snapshot(tags[0])
	if !ok {
		t.Fatalf("Snapshot(%s) not found", tags[0])
	}
	if st.NumParticles == 0 && !st.Compressed {
		t.Error("snapshot carries neither particles nor a compressed belief")
	}
	if loc == (rfid.Vec3{}) {
		t.Error("snapshot location is the zero vector")
	}
	if _, _, ok := runner.Snapshot("no-such-tag"); ok {
		t.Error("Snapshot of unknown tag reported found")
	}
	if pose := runner.ReaderSnapshot(); pose.Pos == (rfid.Vec3{}) {
		t.Error("reader snapshot is the zero pose")
	}
}
