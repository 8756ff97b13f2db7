package main

import (
	"fmt"
	"time"

	"repro/rfid"
)

// batch-warehouse: the paper's scalability experiment as a library call. A
// robot scans a 1200-object row (4 rows deep) twice; one object moves every
// 50 epochs. The full system runs (factored filter, spatial index, belief
// compression) at 150 object and 50 reader particles with one engine worker
// per CPU.
var batchShelf = shelfShape{Objects: 1200, Rounds: 2, RowsDeep: 4, ObjectSpacing: 0.5, RowSpacing: 0.25, MoveInterval: 50}

const (
	batchObjectParticles = 150
	batchReaderParticles = 50
	// batchMinRepeats whole-trace runs are made even when --seconds is
	// shorter than they take, so that a median exists.
	batchMinRepeats = 3
)

// batchRun is one whole-trace run on a fresh pipeline.
type batchRun struct {
	events   []rfid.Event
	stats    rfid.Stats
	elapsed  time.Duration
	epochMS  []float64 // per-epoch ProcessEpoch latency
	failures int
}

// runBatchOnce processes every epoch of in on pipe, timing each call, and
// finishes the stream — exactly what Pipeline.Run does, with a clock around
// each epoch.
func runBatchOnce(pipe *rfid.Pipeline, in *sessionInput, ops *opCounter) batchRun {
	r := batchRun{epochMS: make([]float64, 0, len(in.epochs))}
	start := time.Now()
	for _, ep := range in.epochs {
		ops.attempt()
		t0 := time.Now()
		events, err := pipe.ProcessEpoch(ep)
		r.epochMS = append(r.epochMS, ms(time.Since(t0)))
		if err != nil {
			ops.fail("ProcessEpoch", err)
			r.failures++
			continue
		}
		r.events = append(r.events, events...)
	}
	r.events = append(r.events, pipe.Finish()...)
	r.elapsed = time.Since(start)
	r.stats = pipe.Stats()
	return r
}

// eventsHash is a SHA-256 over every field of every event, in order.
func eventsHash(events []rfid.Event) string {
	d := newDigest()
	for _, ev := range events {
		d.num(uint64(ev.Time))
		d.str(string(ev.Tag))
		for _, f := range []float64{ev.Loc.X, ev.Loc.Y, ev.Loc.Z, ev.Stats.Variance.X, ev.Stats.Variance.Y, ev.Stats.Variance.Z} {
			d.f64(f)
		}
		d.num(uint64(ev.Stats.NumParticles))
		if ev.Stats.Compressed {
			d.num(1)
		} else {
			d.num(0)
		}
	}
	return d.sum()
}

type batchSetup struct {
	in   *sessionInput
	pipe *rfid.Pipeline
	genS float64
}

func setupBatch(e *env) (batchSetup, error) {
	t0 := time.Now()
	shelf := batchShelf
	shelf.Objects = e.scaled(shelf.Objects, 40)
	in, err := genInput(shelf, 0, e.seed)
	if err != nil {
		return batchSetup{}, err
	}
	genS := time.Since(t0).Seconds()
	pipe, err := rfid.NewPipeline(batchConfig(in, e.nproc))
	if err != nil {
		return batchSetup{}, fmt.Errorf("new pipeline: %w", err)
	}
	return batchSetup{in: in, pipe: pipe, genS: genS}, nil
}

func batchConfig(in *sessionInput, workers int) rfid.Config {
	cfg := rfid.DefaultConfig(in.engineParams(), in.trace.World)
	cfg.NumObjectParticles = batchObjectParticles
	cfg.NumReaderParticles = batchReaderParticles
	cfg.Workers = workers
	cfg.Seed = 1
	return cfg
}

func runBatchWarehouse(e *env) error {
	su, _, err := repeatSetup(e, func(bool) (batchSetup, error) { return setupBatch(e) }, func(batchSetup) {}, nil)
	if err != nil {
		return err
	}
	in := su.in
	e.hash = inputHash([]*sessionInput{in})
	e.set("sim.generate_s", su.genS)

	// Timed: whole-trace runs on fresh pipelines until the measuring time is
	// used up. The first uses the pipeline the last set-up built.
	var runs []batchRun
	deadline := time.Now().Add(e.phaseDur(1))
	pipe := su.pipe
	for len(runs) < batchMinRepeats || time.Now().Before(deadline) {
		if pipe == nil {
			if pipe, err = rfid.NewPipeline(batchConfig(in, e.nproc)); err != nil {
				return fmt.Errorf("new pipeline: %w", err)
			}
		}
		runs = append(runs, runBatchOnce(pipe, in, &e.ops))
		pipe = nil
	}
	var rates, p50s, p95s, p99s []float64
	for _, r := range runs {
		rates = append(rates, float64(in.readings)/r.elapsed.Seconds())
		p50s = append(p50s, quantile(r.epochMS, 0.5))
		p95s = append(p95s, quantile(r.epochMS, 0.95))
		p99s = append(p99s, quantile(r.epochMS, 0.99))
	}
	first := runs[0]
	rep := rfid.ScoreAgainstTrace(first.events, in.trace)
	e.set("readings_per_s", median(rates))
	e.set("loadgen.saturate_readings_per_s", median(rates))
	e.set("ack_p50_ms", median(p50s))
	e.set("loadgen.ack_p95_ms", median(p95s))
	e.set("mean_error_ft", rep.MeanXY)
	e.set("loadgen.ack_p99_ms", median(p99s))
	e.set("loadgen.ack_max_ms", quantile(first.epochMS, 1))
	e.set("loadgen.sent_batches", float64(len(runs)*len(in.epochs)))
	rs := spreadOf(rates, len(rates))
	e.notef("batch: %d repeats of %d epochs / %d readings; readings/s median %.0f [min %.0f max %.0f]; epoch p50 %.3f ms p95 %.3f ms p99 %.3f ms (n=%d per repeat)",
		len(runs), len(in.epochs), in.readings, rs.median, rs.min, rs.max, median(p50s), median(p95s), median(p99s), len(in.epochs))

	// Correctness: the event stream must not depend on the worker count, no
	// scored object may lack ground truth, and the error must be sane.
	single, err := rfid.NewPipeline(batchConfig(in, 1))
	if err != nil {
		return fmt.Errorf("new pipeline: %w", err)
	}
	ref := runBatchOnce(single, in, &e.ops)
	same := eventsHash(ref.events) == eventsHash(first.events)
	e.ops.check("events equal for Workers=nproc and Workers=1", same,
		fmt.Sprintf("%d events at %d workers, %d at 1", len(first.events), e.nproc, len(ref.events)))
	e.ops.check("no scored object lacks ground truth", rep.Missing == 0, fmt.Sprintf("%d missing", rep.Missing))
	e.ops.check("mean error is sane", rep.MeanXY > 0 && rep.MeanXY < maxSaneErrorFt, fmt.Sprintf("mean XY error %.3f ft", rep.MeanXY))

	if e.traced {
		runProbes(e, "batch-warehouse", in, probeShape{
			objectParticles: batchObjectParticles, readerParticles: batchReaderParticles, report: rfid.ReportAfterDelay,
		})
		// The probes cover the first epochs only; the worker comparison above
		// covers the whole trace, so it is the better figure here.
		w1 := float64(in.readings) / ref.elapsed.Seconds()
		e.set("core.workers1.readings_per_s", w1)
		e.set("core.scaling", median(rates)/w1)
		e.set("core.events_sha256_equal_across_workers", 0)
		if same {
			e.set("core.events_sha256_equal_across_workers", 1)
		}
	}
	return nil
}
