package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/factored"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// The layer probes time each module's exported entry points, in process, on
// the workload's own generated inputs and at its particle counts. They go only
// through rfid.NewPipeline (Config.Workers), rfid.NewRunner and the functions
// README.md lists, so that the engine-collapsing PRs on the roadmap do not have
// to touch this file.

// probeShape is the part of a workload's configuration the probes need.
type probeShape struct {
	objectParticles int
	readerParticles int
	report          rfid.ReportPolicy
	holdEpochs      int
	history         int
}

// probeEpochs bounds how much of the input each probe consumes.
const probeEpochs = 384

// sink keeps the compiler from discarding a probed call's result.
var sink float64

// timeIt calls fn repeatedly for at least 20 ms and returns nanoseconds per
// call.
func timeIt(fn func()) float64 {
	fn() // warm caches and lazy initialisation
	calls := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(start); el >= 20*time.Millisecond {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// mallocs is the process's cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func runProbes(e *env, workloadName string, in *sessionInput, shape probeShape) {
	t0 := time.Now()
	n := min(e.scaled(probeEpochs, 32), len(in.epochs))
	epochs := in.epochs[:n]
	batches := in.batches[:n]
	readings := 0
	for _, b := range batches {
		readings += len(b.Readings)
	}
	if readings == 0 {
		e.ops.check("probe input has readings", false, "no readings in the probed epochs")
		return
	}
	probeKernels(e, shape)
	factoredTimes := probeFactored(e, in, epochs, shape)
	coreTimes, coreTotal1, events := probeCore(e, in, epochs, readings, shape)
	runnerTimes, finalRunner := probeRunner(e, in, batches, readings, coreTotal1, shape)
	probeCodecs(e, batches, readings)
	probeQueries(e, events)
	probeWAL(e, in, batches, readings)
	if finalRunner != nil {
		probeCheckpoint(e, in, finalRunner, shape)
	}
	// One logical trace per probed epoch: the runner's advance contains the
	// engine's epoch, which contains the filter's three phases. The three
	// came from separate instances fed the same epoch, so the parent relation
	// is by duration, not by wall-clock containment.
	if e.spans != nil {
		base := time.Now()
		for k := 0; k < n; k++ {
			tid := fmt.Sprintf("%s/probe/%d", workloadName, k)
			adv := e.spans.add(0, tid, "rfid.runner.advance", base, base.Add(runnerTimes[k]))
			pe := e.spans.add(adv, tid, "core.process_epoch", base, base.Add(coreTimes[k]))
			at := base
			for i, name := range []string{"factored.begin_epoch", "factored.step_objects", "factored.end_epoch"} {
				e.spans.add(pe, tid, name, at, at.Add(factoredTimes[k][i]))
				at = at.Add(factoredTimes[k][i])
			}
		}
	}
	e.notef("probes: %d epochs, %d readings, %.2fs", n, readings, time.Since(t0).Seconds())
}

// probeKernels times the SoA weighting and normalisation kernels on columns
// of the workload's particle counts, exact mode.
func probeKernels(e *env, shape probeShape) {
	rng := rand.New(rand.NewSource(e.seed))
	n, r := shape.objectParticles, shape.readerParticles
	model := rfid.SensorModel{A0: sensorA0, A1: sensorA1, A2: sensorA2, B1: sensorB1, B2: sensorB2, MaxRange: sensorMaxRange}
	frames := make([]sensor.Frame, r)
	for i := range frames {
		frames[i] = sensor.FrameFor(geom.Pose{Pos: geom.Vec3{X: -1.5 + 0.02*rng.NormFloat64(), Y: 4 + 0.02*rng.NormFloat64()}, Phi: 0.005 * rng.NormFloat64()})
	}
	reader := make([]int32, n)
	locs := make([]geom.Vec3, n)
	for i := range locs {
		reader[i] = int32(rng.Intn(r))
		locs[i] = geom.Vec3{X: rng.Float64(), Y: 3 + 2*rng.Float64()}
	}
	logW := make([]float64, max(n, r))
	e.set("sensor.accum_logobs.ns_per_particle", timeIt(func() {
		clear(logW)
		model.AccumLogObs(logW, true, frames, reader, locs, false)
	})/float64(n))
	e.set("sensor.accum_logobs_fixed.ns_per_particle", timeIt(func() {
		clear(logW)
		model.AccumLogObsFixed(logW, true, frames, geom.Vec3{X: 0, Y: 4}, false)
	})/float64(r))
	src := make([]float64, n)
	for i := range src {
		src[i] = -3 * rng.Float64()
	}
	col := make([]float64, n)
	e.set("stats.normalize_logw.ns_per_particle", timeIt(func() {
		copy(col, src) // the kernel normalises in place
		sink += stats.NormalizeLogWeights(col)
	})/float64(n))
	e.set("stats.weighted_mean.ns_per_particle", timeIt(func() { sink += stats.WeightedMeanVec(locs, col).X })/float64(n))
	e.set("stats.fit_gaussian3.ns_per_particle", timeIt(func() { sink += stats.FitGaussian3(locs, col).Mean.X })/float64(n))
}

// probeFactored drives the bare factored filter through its three epoch
// phases with the epoch's observed tags as the active set, and then estimates
// every observed object.
func probeFactored(e *env, in *sessionInput, epochs []*rfid.Epoch, shape probeShape) [][3]time.Duration {
	f := factored.New(factored.Config{
		NumReaderParticles: shape.readerParticles,
		NumObjectParticles: shape.objectParticles,
		Params:             in.engineParams(),
		World:              in.trace.World,
		UseMotionModel:     true,
		Seed:               1,
	})
	arena := factored.NewArena()
	times := make([][3]time.Duration, len(epochs))
	var begin, step, end, est time.Duration
	stepped, estimated := 0, 0
	m0, _ := mallocs()
	for k, ep := range epochs {
		active := ep.ObservedList()
		t0 := time.Now()
		ids := f.BeginEpoch(ep, active)
		t1 := time.Now()
		f.StepObjectsWith(arena, ep, ids)
		t2 := time.Now()
		f.EndEpoch()
		t3 := time.Now()
		for _, id := range active {
			if loc, _, ok := f.Estimate(id); ok {
				sink += loc.X
				estimated++
			}
		}
		t4 := time.Now()
		times[k] = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
		begin += t1.Sub(t0)
		step += t2.Sub(t1)
		end += t3.Sub(t2)
		est += t4.Sub(t3)
		stepped += len(ids)
	}
	m1, _ := mallocs()
	e.set("factored.begin_epoch.us_per_epoch", us(begin)/float64(len(epochs)))
	e.set("factored.end_epoch.us_per_epoch", us(end)/float64(len(epochs)))
	if stepped > 0 {
		e.set("factored.step_objects.us_per_object", us(step)/float64(stepped))
	}
	if estimated > 0 {
		e.set("factored.estimate.us_per_object", us(est)/float64(estimated))
	}
	e.set("factored.allocs_per_epoch", float64(m1-m0)/float64(len(epochs)))
	e.set("factored.objects_stepped", float64(stepped))
	return times
}

// probeCore runs the engine through rfid.NewPipeline at one worker and at one
// per CPU. It returns the per-epoch times of the multi-worker run, the total
// time of the single-worker run and that run's events.
func probeCore(e *env, in *sessionInput, epochs []*rfid.Epoch, readings int, shape probeShape) ([]time.Duration, time.Duration, []rfid.Event) {
	type result struct {
		times  []time.Duration
		total  time.Duration
		events []rfid.Event
		stats  rfid.Stats
		live   int
		allocs float64
		bytes  float64
	}
	run := func(workers int) (result, error) {
		cfg := engineConfig(in, shape.objectParticles, shape.readerParticles, workers, 1)
		cfg.ReportPolicy = shape.report
		pipe, err := rfid.NewPipeline(cfg)
		if err != nil {
			return result{}, err
		}
		r := result{times: make([]time.Duration, len(epochs))}
		m0, b0 := mallocs()
		for k, ep := range epochs {
			t0 := time.Now()
			events, err := pipe.ProcessEpoch(ep)
			r.times[k] = time.Since(t0)
			r.total += r.times[k]
			if err != nil {
				return result{}, err
			}
			r.events = append(r.events, events...)
		}
		m1, b1 := mallocs()
		r.stats, r.live = pipe.Stats(), pipe.Particles()
		r.allocs, r.bytes = float64(m1-m0)/float64(readings), float64(b1-b0)/float64(readings)
		return r, nil
	}
	one, err1 := run(1)
	many, err2 := run(e.nproc)
	e.ops.check("core probe runs", err1 == nil && err2 == nil, fmt.Sprintf("workers=1: %v, workers=%d: %v", err1, e.nproc, err2))
	if err1 != nil || err2 != nil {
		return make([]time.Duration, len(epochs)), 0, nil
	}
	var usPer []float64
	for _, d := range many.times {
		usPer = append(usPer, us(d))
	}
	e.set("core.epoch_p50_us", quantile(usPer, 0.5))
	e.set("core.epoch_p95_us", quantile(usPer, 0.95))
	e.set("core.workers1.readings_per_s", float64(readings)/one.total.Seconds())
	e.set("core.scaling", one.total.Seconds()/many.total.Seconds())
	e.set("core.objects_processed_per_reading", float64(many.stats.ObjectsProcessed)/float64(readings))
	e.set("core.compressions", float64(many.stats.Compressions))
	e.set("core.decompressions", float64(many.stats.Decompressions))
	e.set("core.particles_live", float64(many.live))
	e.set("core.allocs_per_reading", many.allocs)
	e.set("core.bytes_per_reading", many.bytes)
	equal := eventsHash(one.events) == eventsHash(many.events)
	e.ops.check("probe events equal across worker counts", equal, "Workers=1 and Workers=nproc event streams differ")
	if equal {
		e.set("core.events_sha256_equal_across_workers", 1)
	}
	return many.times, one.total, one.events
}

// probeRunner times rfid.Synchronize and a Runner fed one epoch per batch. It
// returns the per-epoch Advance times and the runner in its final state.
func probeRunner(e *env, in *sessionInput, batches []api.IngestRequest, readings int, coreTotal time.Duration, shape probeShape) ([]time.Duration, *rfid.Runner) {
	var raw []rfid.Reading
	var locs []rfid.LocationReport
	for k := range batches {
		rs, ls := in.epochsRaw(k)
		raw = append(raw, rs...)
		locs = append(locs, ls...)
	}
	e.set("rfid.synchronize.ns_per_reading", timeIt(func() { sink += float64(len(rfid.Synchronize(raw, locs))) })/float64(readings))

	times := make([]time.Duration, len(batches))
	cfg := engineConfig(in, shape.objectParticles, shape.readerParticles, 1, 1)
	cfg.ReportPolicy = shape.report
	r, err := rfid.NewRunner(cfg, rfid.RunnerConfig{HoldEpochs: shape.holdEpochs, HistoryEpochs: shape.history})
	e.ops.check("runner probe builds", err == nil, fmt.Sprint(err))
	if err != nil {
		return times, nil
	}
	var ingest, advance time.Duration
	for k := range batches {
		rs, ls := in.epochsRaw(k)
		t0 := time.Now()
		r.Ingest(rs, ls)
		t1 := time.Now()
		_, err := r.Advance()
		times[k] = time.Since(t1)
		ingest += t1.Sub(t0)
		advance += times[k]
		if err != nil {
			e.ops.check("runner probe advances", false, err.Error())
			return times, nil
		}
	}
	e.set("rfid.runner.ingest.us_per_batch", us(ingest)/float64(len(batches)))
	e.set("rfid.runner.advance.us_per_epoch", us(advance)/float64(len(batches)))
	if coreTotal > 0 {
		e.set("rfid.runner_over_core", (ingest+advance).Seconds()/coreTotal.Seconds())
	}
	return times, r
}

// countingSink is a reused wire.BatchSink that keeps nothing.
type countingSink struct{ n int }

func (s *countingSink) Reading(int, []byte)                                    { s.n++ }
func (s *countingSink) Location(int, float64, float64, float64, float64, bool) { s.n++ }

// probeCodecs times the binary batch codec and encoding/json on the same
// batches.
func probeCodecs(e *env, batches []api.IngestRequest, readings int) {
	var enc wire.Encoder
	encoded := make([][]byte, len(batches))
	wireBytes := 0
	for k, b := range batches {
		enc.Reset()
		wire.AppendBatch(&enc, wire.APIBatch{Readings: b.Readings, Locations: b.Locations})
		encoded[k] = append([]byte(nil), enc.Bytes()...)
		wireBytes += len(encoded[k])
	}
	e.set("wire.bytes_per_reading", float64(wireBytes)/float64(readings))
	e.set("wire.encode.ns_per_reading", timeIt(func() {
		for _, b := range batches {
			enc.Reset()
			wire.AppendBatch(&enc, wire.APIBatch{Readings: b.Readings, Locations: b.Locations})
		}
	})/float64(readings))
	var dec wire.Decoder
	var cs countingSink
	decodeAll := func() {
		for _, data := range encoded {
			dec.Reset(data)
			if err := wire.DecodeBatch(&dec, &cs); err != nil {
				panic(err) // bytes this function just encoded: a bug, not an input error
			}
		}
	}
	e.set("wire.decode.ns_per_reading", timeIt(decodeAll)/float64(readings))
	m0, _ := mallocs()
	decodeAll()
	m1, _ := mallocs()
	e.set("wire.decode.allocs_per_batch", float64(m1-m0)/float64(len(batches)))

	docs := make([][]byte, len(batches))
	jsonBytes := 0
	for k, b := range batches {
		data, err := json.Marshal(b)
		if err != nil {
			panic(err) // plain structs of numbers and strings cannot fail to marshal
		}
		docs[k] = data
		jsonBytes += len(data)
	}
	e.set("api.json_bytes_per_reading", float64(jsonBytes)/float64(readings))
	e.set("api.json_decode.ns_per_reading", timeIt(func() {
		for _, data := range docs {
			var req api.IngestRequest
			if err := json.Unmarshal(data, &req); err != nil {
				panic(err) // bytes this function just marshalled
			}
			sink += float64(len(req.Readings))
		}
	})/float64(readings))
}

// probeQueries feeds the engine's events to a registry holding one query and
// to one holding the ten queries of http-durable-mixed.
func probeQueries(e *env, events []rfid.Event) {
	if len(events) == 0 {
		return
	}
	feed := func(specs []api.QuerySpec) (usPerEvent float64, buffered int) {
		reg := query.NewRegistry(0)
		for _, s := range specs {
			_, err := reg.Register(query.Spec{
				Kind: query.Kind(s.Kind), MinChange: s.MinChange, WindowEpochs: s.WindowEpochs,
				ThresholdPounds: s.ThresholdPounds, WeightPounds: s.WeightPounds,
				Op: query.AggregateOp(s.Op), GroupBy: query.GroupKey(s.GroupBy),
			})
			if err != nil {
				e.ops.check("query probe registers", false, err.Error())
				return 0, 0
			}
		}
		t0 := time.Now()
		for i := 0; i < len(events); {
			j := i
			for j < len(events) && events[j].Time == events[i].Time {
				j++
			}
			reg.Feed(events[i:j])
			i = j
		}
		el := time.Since(t0)
		for _, info := range reg.List() {
			buffered += info.Buffered
		}
		return us(el) / float64(len(events)), buffered
	}
	q1, _ := feed(httpQueries[:1])
	q10, buffered := feed(httpQueries)
	e.set("query.feed_q1.us_per_event", q1)
	e.set("query.feed_q10.us_per_event", q10)
	e.set("query.rows_buffered", float64(buffered))
}

// probeWAL appends the batches as records under both extreme fsync policies,
// then replays and tails the unsynced log.
func probeWAL(e *env, in *sessionInput, batches []api.IngestRequest, readings int) {
	err := func() error {
		records := make([]wal.Record, len(batches))
		for k := range batches {
			rs, ls := in.epochsRaw(k)
			records[k] = wal.Record{Type: wal.RecBatch, Readings: rs, Locations: ls}
		}
		appendAll := func(dir string, policy wal.SyncPolicy, recs []wal.Record) (time.Duration, wal.Stats, error) {
			log, err := wal.Open(dir, wal.Options{Sync: policy})
			if err != nil {
				return 0, wal.Stats{}, err
			}
			t0 := time.Now()
			for _, rec := range recs {
				if err := log.Append(rec); err != nil {
					log.Close()
					return 0, wal.Stats{}, err
				}
			}
			el := time.Since(t0)
			st := log.Stats()
			return el, st, log.Close()
		}
		never := filepath.Join(e.tmp, "probe-wal-never")
		el, st, err := appendAll(never, wal.SyncNever, records)
		if err != nil {
			return err
		}
		e.set("wal.append_never.us_per_record", us(el)/float64(len(records)))
		e.set("wal.bytes_per_reading", float64(st.AppendedBytes)/float64(readings))
		// Every append fsyncs under "always"; 64 records are enough to time it.
		synced := records[:min(64, len(records))]
		el, _, err = appendAll(filepath.Join(e.tmp, "probe-wal-always"), wal.SyncAlways, synced)
		if err != nil {
			return err
		}
		e.set("wal.append_always.us_per_record", us(el)/float64(len(synced)))

		t0 := time.Now()
		rst, err := wal.Replay(never, 0, func(wal.Record) error { return nil })
		if err != nil {
			return err
		}
		if rst.Records != len(records) {
			return fmt.Errorf("replayed %d of %d records", rst.Records, len(records))
		}
		e.set("wal.replay.us_per_record", us(time.Since(t0))/float64(rst.Records))

		cur, err := wal.OpenCursor(never, 0, 0)
		if err != nil {
			return err
		}
		defer cur.Close()
		t0 = time.Now()
		got := 0
		for {
			_, _, err := cur.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			got++
		}
		if got != len(records) {
			return fmt.Errorf("cursor read %d of %d records", got, len(records))
		}
		e.set("wal.cursor_next.us_per_record", us(time.Since(t0))/float64(got))
		return nil
	}()
	e.ops.check("wal probe", err == nil, fmt.Sprint(err))
}

// probeCheckpoint saves, writes, loads and restores the probe runner's final
// state, five times each, and reports medians.
func probeCheckpoint(e *env, in *sessionInput, r *rfid.Runner, shape probeShape) {
	err := func() error {
		dir := filepath.Join(e.tmp, "probe-ckpt")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var save, write, load, restore []float64
		bytes := 0
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			enc := checkpoint.NewEncoder()
			r.SaveState(enc)
			save = append(save, ms(time.Since(t0)))
			snap := checkpoint.Snapshot{
				Version: checkpoint.Version, Fingerprint: r.Fingerprint(),
				Epoch: r.Stats().NextEpoch - 1 + rep, WALSegment: 1, Payload: enc.Bytes(),
			}
			t0 = time.Now()
			if _, err := checkpoint.Write(dir, snap); err != nil {
				return err
			}
			write = append(write, ms(time.Since(t0)))
			t0 = time.Now()
			_, got, ok, err := checkpoint.Latest(dir)
			if err != nil || !ok {
				return fmt.Errorf("latest checkpoint: ok=%v err=%v", ok, err)
			}
			load = append(load, ms(time.Since(t0)))
			bytes = len(checkpoint.Encode(got))
			cfg := engineConfig(in, shape.objectParticles, shape.readerParticles, 1, 1)
			cfg.ReportPolicy = shape.report
			fresh, err := rfid.NewRunner(cfg, rfid.RunnerConfig{HoldEpochs: shape.holdEpochs, HistoryEpochs: shape.history})
			if err != nil {
				return err
			}
			t0 = time.Now()
			if err := fresh.RestoreState(checkpoint.NewDecoder(got.Payload)); err != nil {
				return err
			}
			restore = append(restore, ms(time.Since(t0)))
			if fresh.Stats().Epochs != r.Stats().Epochs {
				return fmt.Errorf("restored runner at %d epochs, original at %d", fresh.Stats().Epochs, r.Stats().Epochs)
			}
		}
		e.set("checkpoint.save_state_ms", median(save))
		e.set("checkpoint.write_ms", median(write))
		e.set("checkpoint.load_ms", median(load))
		e.set("checkpoint.restore_state_ms", median(restore))
		e.set("checkpoint.bytes", float64(bytes))
		return nil
	}()
	e.ops.check("checkpoint probe", err == nil, fmt.Sprint(err))
}
