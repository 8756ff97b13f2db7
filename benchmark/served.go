package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// env is the state of one workload run: its arguments, where it may write,
// and the metrics and operation counts it produces.
type env struct {
	seed      int64
	seconds   float64
	traced    bool
	recovery  bool // http-durable-mixed also measures crash recovery and replica catch-up
	started   time.Time
	nproc     int
	serverBin string
	tmp       string // run-private directory under os.TempDir(), removed afterwards
	scale     float64

	ops   opCounter
	m     map[string]float64
	spans *spanLog // nil unless traced
	notes []string
	hash  string // SHA-256 of the generated inputs
}

func (e *env) set(name string, v float64) { e.m[name] = v }

func (e *env) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// overBudget reports whether the run has used up runBudget.
func (e *env) overBudget() bool { return time.Since(e.started) > runBudget }

// scaled is n shrunk by the run's scale factor, but at least floor.
func (e *env) scaled(n, floor int) int {
	return max(floor, int(float64(n)*e.scale))
}

// phaseDur is the given share of the run's measuring time.
func (e *env) phaseDur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// traceEpochsFlag is the server's tracing knob: off for end-to-end numbers,
// a 64-epoch ring in the traced pass.
func traceEpochsFlag(traced bool) string {
	if traced {
		return "64"
	}
	return "0"
}

// A run performs its whole set-up several times: at least setupRepeats times,
// and further until setupMinTotal has been spent on it or setupMaxRepeats are
// done, so that a set-up of a few hundredths of a second (batch-warehouse) is
// the median of more samples than one of two seconds. setup_s is the median;
// the last set-up is the one measured against.
const (
	setupRepeats    = 3
	setupMaxRepeats = 9
	setupMinTotal   = time.Second
)

// repeatSetup runs setup repeatedly, tearing all but the last down again, and
// records the median duration as setup_s. In the traced pass the first,
// discarded set-up boots an untraced server and saturate (when non-nil) runs a
// short closed-loop phase on it, whose rate is returned as the base of
// trace.overhead_pct; every other set-up is traced.
func repeatSetup[T any](e *env, setup func(traced bool) (T, error), teardown func(T), saturate func(T, time.Duration) *phase) (last T, untracedRate float64, err error) {
	var times []float64
	total := 0.0
	minRepeats := e.scaled(setupRepeats, 1)
	if e.traced {
		minRepeats = max(minRepeats, 2) // one untraced, for the overhead, and one traced
	}
	for rep := 0; ; rep++ {
		t0 := time.Now()
		v, err := setup(e.traced && rep > 0)
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[rep]
		if rep+1 >= minRepeats && (total >= e.scale*setupMinTotal.Seconds() || rep+1 >= setupMaxRepeats) {
			last = v
			break
		}
		if rep == 0 && e.traced && saturate != nil {
			untracedRate = saturate(v, e.phaseDur(0.2)).windowRate(laneApplied).median
		}
		teardown(v)
	}
	e.set("setup_s", median(times))
	e.notef("setup_s runs: %.4f", times)
	// The discarded set-ups just deleted their files; let the filesystem
	// finish that before anything is timed.
	syscall.Sync()
	return last, untracedRate, nil
}

// served is a booted server with its sessions created and warmed up.
type served struct {
	srv      *serverProc
	dataDir  string
	c        *client.Client
	inputs   []*sessionInput
	sessions []*client.Session
	genS     float64
}

func (s *served) teardown() {
	s.srv.kill()
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir) // best effort: the run's temp root is removed anyway
	}
}

// genInputs simulates n session inputs concurrently, seeds seed*1000+i, and
// reports how long that took.
func genInputs(n int, shape shelfShape, epochs int, seed int64) ([]*sessionInput, float64, error) {
	t0 := time.Now()
	inputs := make([]*sessionInput, n)
	errs := make([]error, n)
	runDrivers(n, func(i int) {
		inputs[i], errs[i] = genInput(shape, epochs, seed*1000+int64(i))
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return inputs, time.Since(t0).Seconds(), nil
}

// drivePhase runs one timed phase on every driver at once — closed loop when
// rate is zero, otherwise open loop at rate batches per second in total — and
// logs its figures. op is driver i's operation; after, when non-nil, runs on
// each driver once its loop ends (the stream drivers drain their acks there).
func drivePhase(e *env, name string, dur time.Duration, rate float64, op func(i int, due time.Time, p *phase, l *lane) bool, after func(i int)) *phase {
	p := newPhase(name, dur, e.nproc)
	p.start = time.Now()
	runDrivers(e.nproc, func(i int) {
		l := p.lanes[i]
		step := func(due time.Time) bool { return op(i, due, p, l) }
		if rate == 0 {
			closedLoop(p, step)
		} else {
			openLoop(p, l, rate/float64(e.nproc), float64(i)/float64(e.nproc), step)
		}
		if after != nil {
			after(i)
		}
	})
	reportPhase(e, p)
	return p
}

// setOverhead records trace.overhead_pct: how much lower the traced saturate
// rate is than the untraced one measured on the run's first set-up.
func setOverhead(e *env, untraced, traced float64) {
	if untraced > 0 {
		e.set("trace.overhead_pct", (untraced-traced)/untraced*100)
	}
}

// driverClient is an SDK client that holds at most one connection, so n
// drivers mean n connections.
func driverClient(base string) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
}

// opCtx is the context of one bounded operation.
func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), opDeadline)
}

// sessionRequest is the creation request of a benchmark session over input.
func sessionRequest(id string, in *sessionInput, engine api.EngineConfig) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		ID:     id,
		Source: api.SourceWorld,
		World:  in.apiWorld(),
		Params: in.apiParams(),
		Engine: &engine,
	}
}

// finalEstimates reads every tracked object's current estimate through the
// snapshot API.
func finalEstimates(sess *client.Session, in *sessionInput) (map[string]rfid.Vec3, int, error) {
	ctx, cancel := opCtx()
	over, err := sess.Snapshot(ctx)
	cancel()
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot overview: %w", err)
	}
	est := make(map[string]rfid.Vec3, len(over.Tracked))
	for _, tag := range over.Tracked {
		if in.trace.World.IsShelfTag(rfid.TagID(tag)) {
			continue
		}
		ctx, cancel := opCtx()
		snap, err := sess.SnapshotTag(ctx, tag)
		cancel()
		if err != nil {
			return nil, 0, fmt.Errorf("snapshot %s: %w", tag, err)
		}
		est[tag] = rfid.Vec3{X: snap.X, Y: snap.Y, Z: snap.Z}
	}
	return est, over.NextEpoch - 1, nil
}

// meanErrorOf scores the final estimates of the given sessions against their
// traces' ground truth and returns the object-weighted mean XY error.
func meanErrorOf(e *env, sessions []*client.Session, inputs []*sessionInput) float64 {
	sum, n := 0.0, 0
	for i, sess := range sessions {
		e.ops.attempt()
		est, last, err := finalEstimates(sess, inputs[i])
		if err != nil {
			e.ops.fail("final snapshots", err)
			continue
		}
		mean, scored := scoreEstimates(inputs[i], est, last)
		sum += mean * float64(scored)
		n += scored
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// maxSaneErrorFt fails a run whose inference has plainly broken: the paper's
// accuracy requirement is 0.5 ft and every workload here sits well under 2.
const maxSaneErrorFt = 2.0

// referenceEpochs is how many epochs the server-versus-library equivalence
// check feeds.
const referenceEpochs = 48

// checkAgainstReference creates one more session, feeds it the first epochs of
// in over HTTP and requires every resulting estimate to equal, bit for bit,
// what an in-process rfid.Runner with the same configuration computes from
// the same batches.
func checkAgainstReference(e *env, c *client.Client, in *sessionInput, engine api.EngineConfig) {
	ok, detail := func() (bool, string) {
		ctx, cancel := opCtx()
		defer cancel()
		engine.Workers = 1
		if _, err := c.CreateSession(ctx, sessionRequest("verify", in, engine)); err != nil {
			return false, err.Error()
		}
		sess := c.Session("verify")
		n := min(referenceEpochs, len(in.batches))
		ref, err := rfid.NewRunner(
			engineConfig(in, engine.ObjectParticles, engine.ReaderParticles, 1, engine.Seed),
			rfid.RunnerConfig{HoldEpochs: engine.HoldEpochs, HistoryEpochs: engine.HistoryEpochs})
		if err != nil {
			return false, err.Error()
		}
		for k := 0; k < n; k++ {
			if _, err := sess.Ingest(ctx, in.batches[k]); err != nil {
				return false, err.Error()
			}
			ref.Ingest(in.epochsRaw(k))
			if _, err := ref.Advance(); err != nil {
				return false, err.Error()
			}
		}
		if _, err := sess.Flush(ctx, false); err != nil {
			return false, err.Error()
		}
		if _, err := ref.Flush(); err != nil {
			return false, err.Error()
		}
		est, _, err := finalEstimates(sess, in)
		if err != nil {
			return false, err.Error()
		}
		tracked := 0
		for _, id := range ref.Tracked() {
			if in.trace.World.IsShelfTag(id) {
				continue
			}
			tracked++
			want, _, found := ref.Snapshot(id)
			got, have := est[string(id)]
			if !found || !have || got != want {
				return false, fmt.Sprintf("tag %s: server %v, library %v", id, got, want)
			}
		}
		if tracked == 0 || tracked != len(est) {
			return false, fmt.Sprintf("server tracks %d objects, library %d", len(est), tracked)
		}
		if err := sess.Delete(ctx); err != nil {
			return false, err.Error()
		}
		return true, ""
	}()
	e.ops.check("server equals in-process rfid.Runner", ok, detail)
}

// epochsRaw is batch k as the library's raw record types.
func (in *sessionInput) epochsRaw(k int) ([]rfid.Reading, []rfid.LocationReport) {
	b := in.batches[k]
	rs := make([]rfid.Reading, len(b.Readings))
	for i, r := range b.Readings {
		rs[i] = rfid.Reading{Time: r.Time, Tag: rfid.TagID(r.Tag)}
	}
	ls := make([]rfid.LocationReport, len(b.Locations))
	for i, l := range b.Locations {
		ls[i] = rfid.LocationReport{Time: l.Time, Pos: rfid.Vec3{X: l.X, Y: l.Y, Z: l.Z}, Phi: l.Phi, HasPhi: l.HasPhi}
	}
	return rs, ls
}

// counterBaseline is the server's cumulative counters when timing starts.
type counterBaseline struct {
	s   scrape
	cpu float64
}

func takeBaseline(e *env, srv *serverProc) counterBaseline {
	s, err := srv.scrape()
	e.ops.attempt()
	if err != nil {
		e.ops.fail("scrape", err)
		s = scrape{}
	}
	return counterBaseline{s: s, cpu: srv.cpuSeconds()}
}

// checkCounters requires the server's own counts since the baseline to equal
// what the generator sent, and nothing to have been dropped or to have
// errored.
func checkCounters(e *env, before counterBaseline, after scrape, sentReadings, sentEpochs int) {
	d := func(f string) float64 { return after.sum(f) - before.s.sum(f) }
	e.ops.check("readings_total equals readings sent", int(d("rfidserve_readings_total")) == sentReadings,
		fmt.Sprintf("server counted %v readings, generator sent %d", d("rfidserve_readings_total"), sentReadings))
	e.ops.check("epochs_total equals epochs sent", int(d("rfidserve_epochs_total")) == sentEpochs,
		fmt.Sprintf("server counted %v epochs, generator sent %d", d("rfidserve_epochs_total"), sentEpochs))
	e.ops.check("no engine errors", d("rfidserve_engine_errors_total") == 0, fmt.Sprintf("%v engine errors", d("rfidserve_engine_errors_total")))
	e.ops.check("nothing late-dropped", d("rfidserve_late_dropped_total") == 0, fmt.Sprintf("%v records late-dropped", d("rfidserve_late_dropped_total")))
}

// serveMetrics derives the scraped serve.*, wal.* and checkpoint.* per-layer
// metrics over the timed phases.
func serveMetrics(e *env, srv *serverProc, before counterBaseline, after scrape, readings int, clientAckP50 float64) {
	d := func(f string) float64 { return after.sum(f) - before.s.sum(f) }
	hist := func(f string) histogram { return after.hist(f).sub(before.s.hist(f)) }
	epoch := hist("rfidserve_epoch_seconds")
	ingest := hist("rfidserve_ingest_seconds")
	e.set("serve.epoch_p50_ms", epoch.quantileMS(0.5))
	e.set("serve.epoch_p95_ms", epoch.quantileMS(0.95))
	e.set("serve.epoch_max_ms", epoch.maxMS())
	e.set("serve.ingest_p50_ms", ingest.quantileMS(0.5))
	e.set("serve.ingest_p95_ms", ingest.quantileMS(0.95))
	e.set("serve.longpoll_p50_ms", hist("rfidserve_longpoll_seconds").quantileMS(0.5))
	if ingest.total() > 0 {
		e.set("serve.client_minus_server_ack_p50_ms", clientAckP50-ingest.quantileMS(0.5))
	}
	if readings > 0 {
		e.set("serve.cpu_s_per_kreading", (srv.cpuSeconds()-before.cpu)/float64(readings)*1e3)
	}
	e.set("serve.peak_rss_mb", srv.peakRSSMB())
	e.set("serve.boot_s", srv.bootS)
	e.set("serve.batches_rejected", d("rfidserve_batches_rejected_total"))
	e.set("serve.late_dropped", d("rfidserve_late_dropped_total"))
	e.set("serve.engine_errors", d("rfidserve_engine_errors_total"))
	hyd := d("rfidserve_hydrations_total")
	e.set("serve.hydrations", hyd)
	e.set("serve.evictions", d("rfidserve_evictions_total"))
	if batches := d("rfidserve_batches_total"); batches > 0 {
		e.set("serve.resident_hit_ratio", 1-hyd/batches)
	}
	hydHist := hist("rfidserve_hydration_seconds")
	e.set("serve.hydration_p50_ms", hydHist.quantileMS(0.5))
	e.set("serve.hydration_p95_ms", hydHist.quantileMS(0.95))
	stageSum := 0.0
	for _, st := range stageNames {
		v := after.stage(st) - before.s.stage(st)
		e.set("serve.stage."+st+"_s", v)
		stageSum += v
	}
	if wall := after.sum("rfidserve_epoch_seconds_sum") - before.s.sum("rfidserve_epoch_seconds_sum"); wall > 0 {
		e.set("serve.stage_sum_over_epoch_wall", stageSum/wall)
	}
	e.set("wal.records", d("rfidserve_wal_records_total"))
	e.set("wal.fsyncs", d("rfidserve_wal_fsyncs_total"))
	e.set("wal.fsync_p50_ms", hist("rfidserve_wal_fsync_seconds").quantileMS(0.5))
	e.set("wal.fsync_max_ms", after.max("rfidserve_wal_fsync_max_seconds")*1e3)
	e.set("checkpoint.count", d("rfidserve_checkpoints_total"))
	e.set("checkpoint.server_write_p50_ms", hist("rfidserve_checkpoint_write_seconds").quantileMS(0.5))
}

// loadgenMetrics reports the generator's own figures for the paced phase the
// end-to-end latencies come from.
func loadgenMetrics(e *env, phases []*phase, paced *phase) {
	sent, failed := 0, 0
	for _, p := range phases {
		s, f := p.sent()
		sent += s
		failed += f
	}
	e.set("loadgen.sent_batches", float64(sent))
	e.set("loadgen.failed_batches", float64(failed))
	// Like the latencies it qualifies, the lateness figure is the median of
	// the per-window quantiles: one window in which the whole machine stalled
	// does not condemn the run, a generator that cannot keep its schedule does.
	late := paced.windowQuantile(func(l *lane) []timed { return l.late }, 0.95).median
	e.set("loadgen.late_p95_ms", late)
	if late > maxLateP95MS {
		e.notef("INVALID paced phase: batches started %.3f ms after they were due at p95 (limit %v ms); its latencies measure the generator, not the server", late, maxLateP95MS)
	}
	e.set("loadgen.ack_p99_ms", paced.all(func(l *lane) []timed { return l.ack }, 0.99))
	e.set("loadgen.ack_max_ms", paced.all(func(l *lane) []timed { return l.ack }, 1))
}

func laneAck(l *lane) []timed     { return l.ack }
func laneResult(l *lane) []timed  { return l.result }
func laneRead(l *lane) []timed    { return l.read }
func laneApplied(l *lane) []timed { return l.applied }

// reportPhase prints one phase's figures with their window spread and sample
// counts to the run log.
func reportPhase(e *env, p *phase) {
	rate := p.windowRate(laneApplied)
	sent, failed := p.sent()
	e.notef("phase %-10s %6.2fs  sent %d failed %d  readings/s median %.0f [min %.0f max %.0f] windows %.0f",
		p.name, p.dur.Seconds(), sent, failed, rate.median, rate.min, rate.max, rate.each)
	for _, q := range []struct {
		name string
		sel  func(*lane) []timed
	}{{"ack", laneAck}, {"result", laneResult}, {"read", laneRead}} {
		p50 := p.windowQuantile(q.sel, 0.5)
		if p50.samples == 0 {
			continue
		}
		p95 := p.windowQuantile(q.sel, 0.95)
		e.notef("  %-6s n=%d  p50 %.3f ms [%.3f..%.3f]  p95 %.3f ms [%.3f..%.3f]  p99 %.3f  max %.3f",
			q.name, p50.samples, p50.median, p50.min, p50.max, p95.median, p95.min, p95.max,
			p.all(q.sel, 0.99), p.all(q.sel, 1))
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
