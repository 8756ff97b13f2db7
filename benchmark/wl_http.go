package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// http-durable-mixed: a durable server (interval fsync, a checkpoint every 256
// epochs, 64 epochs of history), one session per CPU over a shelf of 10
// objects per foot (about 16 readings per epoch) at 200 particles, 10
// registered queries per session. Each driver posts one epoch as JSON, long
// polls until that epoch's location-update rows arrive, and on every 4th batch
// makes a read round: one tag's snapshot and one time-travel snapshot.
var httpShelf = shelfShape{RowsDeep: 4, ObjectSpacing: 0.4, RowSpacing: 0.25}

const (
	httpObjectParticles = 200
	httpHistoryEpochs   = 64
	httpCheckpointEvery = 256
	httpReadEvery       = 4
	httpTimeTravelBack  = 8
	// httpMaxBatchRate bounds how much input is generated per session and
	// second of measuring time.
	httpMaxBatchRate = 500
	recoverRepeats   = 5
	replicaRepeats   = 3
)

func httpEngine(seed int64) api.EngineConfig {
	return api.EngineConfig{ObjectParticles: httpObjectParticles, Seed: seed, HistoryEpochs: httpHistoryEpochs}
}

// httpQueries are the 10 continuous queries of every session. The first one
// is the one the driver polls: min_change -1 emits a row for every event, so
// every epoch with an object reading has a row to wait for.
var httpQueries = []api.QuerySpec{
	{Kind: api.QueryLocationUpdates, MinChange: -1},
	{Kind: api.QueryLocationUpdates, MinChange: 0.5},
	{Kind: api.QueryFireCode, WindowEpochs: 5, ThresholdPounds: 3},
	{Kind: api.QueryFireCode, WindowEpochs: 10, ThresholdPounds: 5},
	{Kind: api.QueryFireCode, WindowEpochs: 20, ThresholdPounds: 8},
	{Kind: api.QueryWindowedAggregate, WindowEpochs: 5, Op: "count", GroupBy: "none"},
	{Kind: api.QueryWindowedAggregate, WindowEpochs: 5, Op: "count", GroupBy: "area"},
	{Kind: api.QueryWindowedAggregate, WindowEpochs: 10, Op: "sum-weight", GroupBy: "none", WeightPounds: 2},
	{Kind: api.QueryWindowedAggregate, WindowEpochs: 10, Op: "sum-weight", GroupBy: "area", WeightPounds: 2},
	{Kind: api.QueryWindowedAggregate, WindowEpochs: 20, Op: "mean-weight", GroupBy: "area", WeightPounds: 2},
}

// httpDriver drives one session over one connection.
type httpDriver struct {
	e       *env
	in      *sessionInput
	sess    *client.Session
	queryID string
	next    int // next epoch to send
	after   int // result cursor of the polled query
}

// op sends epoch d.next, waits for its rows and, on every 4th batch, reads.
// It reports false when the input is exhausted.
func (d *httpDriver) op(due time.Time, p *phase, l *lane) bool {
	if d.next >= len(d.in.batches) {
		return false
	}
	k := d.next
	d.next++
	e := d.e
	record := l != nil
	if record {
		l.sent++
	}
	tid := ""
	if e.spans != nil && record {
		tid = fmt.Sprintf("http-durable-mixed/%s/%d", d.sess.ID(), k)
	}
	batch := d.in.batches[k]

	e.ops.attempt()
	tSend := time.Now()
	ctx, cancel := opCtx()
	_, err := d.sess.Ingest(ctx, batch)
	cancel()
	tAck := time.Now()
	if err != nil {
		e.ops.fail("ingest", err)
		if record {
			l.failed++
		}
		return true
	}
	if record {
		l.ack = append(l.ack, timed{at: p.since(), v: ms(tAck.Sub(due))})
		l.applied = append(l.applied, timed{at: p.since(), v: float64(len(batch.Readings))})
	}
	tEnd := tAck
	var tPolled time.Time
	if d.in.objectReadings[k] > 0 {
		if d.poll(k) {
			tPolled = time.Now()
			tEnd = tPolled
			if record {
				l.result = append(l.result, timed{at: p.since(), v: ms(tPolled.Sub(due))})
			}
		} else if record {
			l.failed++
		}
	}
	// One read round: the snapshot of a tag just read and the time-travel
	// snapshot 8 epochs back, timed together. Timed one by one, the two kinds
	// (0.25 ms and 4 ms) would put the median on the gap between them.
	var reads [][2]time.Time
	if k%httpReadEvery == 0 && k >= httpTimeTravelBack {
		tag := ""
		for _, r := range batch.Readings {
			if !d.in.trace.World.IsShelfTag(rfid.TagID(r.Tag)) {
				tag = r.Tag
				break
			}
		}
		if tag != "" {
			tagRead, okTag := d.read(l, func(ctx context.Context) error {
				_, err := d.sess.SnapshotTag(ctx, tag)
				return err
			})
			pastRead, okPast := d.read(l, func(ctx context.Context) error {
				_, err := d.sess.SnapshotAt(ctx, k-httpTimeTravelBack)
				return err
			})
			reads = append(reads, tagRead, pastRead)
			if record && okTag && okPast {
				l.read = append(l.read, timed{at: p.since(), v: ms(pastRead[1].Sub(tagRead[0]))})
			}
		}
	}
	if tid != "" {
		root := e.spans.add(0, tid, "batch", due, tEnd)
		e.spans.add(root, tid, "loadgen.lateness", due, tSend)
		e.spans.add(root, tid, "client.ingest", tSend, tAck)
		if !tPolled.IsZero() {
			e.spans.add(root, tid, "client.poll", tAck, tPolled)
		}
		for _, r := range reads {
			e.spans.add(root, tid, "client.read", r[0], r[1])
		}
	}
	return true
}

// poll long-polls the location-updates query until a row of epoch k (or
// later) is delivered.
func (d *httpDriver) poll(k int) bool {
	for attempt := 0; attempt < 4; attempt++ {
		d.e.ops.attempt()
		ctx, cancel := opCtx()
		page, err := d.sess.PollResults(ctx, d.queryID, client.PollOptions{After: d.after, Wait: opDeadline / 2})
		cancel()
		if err != nil {
			d.e.ops.fail("poll", err)
			return false
		}
		if len(page.Results) == 0 {
			d.e.ops.fail("poll", fmt.Errorf("epoch %d: no row within the long-poll wait", k))
			return false
		}
		last := page.Results[len(page.Results)-1]
		d.after = last.Seq
		var row struct {
			Time int `json:"time"`
		}
		if err := json.Unmarshal(last.Row, &row); err != nil {
			d.e.ops.fail("poll", fmt.Errorf("decode row: %w", err))
			return false
		}
		if row.Time >= k {
			return true
		}
	}
	d.e.ops.fail("poll", fmt.Errorf("epoch %d: rows never reached the epoch", k))
	return false
}

// read performs one snapshot GET as a counted operation and returns when it
// started and ended.
func (d *httpDriver) read(l *lane, get func(context.Context) error) (span [2]time.Time, ok bool) {
	d.e.ops.attempt()
	ctx, cancel := opCtx()
	t0 := time.Now()
	err := get(ctx)
	t1 := time.Now()
	cancel()
	if err != nil {
		d.e.ops.fail("read", err)
		if l != nil {
			l.failed++
		}
	}
	return [2]time.Time{t0, t1}, err == nil
}

type httpSetup struct {
	served
	args    []string // server flags without -data-dir
	drivers []*httpDriver
}

func httpServerArgs(e *env, traced bool) []string {
	return []string{
		"-fsync", "interval", "-checkpoint-every", strconv.Itoa(e.scaled(httpCheckpointEvery, 16)), "-history", strconv.Itoa(httpHistoryEpochs),
		"-trace-epochs", traceEpochsFlag(traced), "-max-sessions", strconv.Itoa(e.nproc + 4),
	}
}

func setupHTTP(e *env, traced bool) (*httpSetup, error) {
	su := &httpSetup{args: httpServerArgs(e, traced)}
	// One checkpoint interval more than the phases can use, for the top-up to
	// a 255-epoch WAL tail before the kill.
	epochs := warmupEpochs + httpCheckpointEvery + int(httpMaxBatchRate*e.seconds)
	var err error
	if su.inputs, su.genS, err = genInputs(e.nproc, httpShelf, epochs, e.seed); err != nil {
		return nil, err
	}
	if su.dataDir, err = os.MkdirTemp(e.tmp, "durable-"); err != nil {
		return nil, err
	}
	if su.srv, err = startServer(e.serverBin, append([]string{"-data-dir", su.dataDir}, su.args...)...); err != nil {
		return nil, err
	}
	su.c = client.New(su.srv.base)
	for i, in := range su.inputs {
		id := fmt.Sprintf("mixed-%d", i)
		ctx, cancel := opCtx()
		_, err := su.c.CreateSession(ctx, sessionRequest(id, in, httpEngine(e.seed+int64(i))))
		cancel()
		if err != nil {
			su.teardown()
			return nil, fmt.Errorf("create session: %w", err)
		}
		sess := driverClient(su.srv.base).Session(id)
		d := &httpDriver{e: e, in: in, sess: sess, after: client.FromStart}
		for q, spec := range httpQueries {
			ctx, cancel := opCtx()
			info, err := sess.RegisterQuery(ctx, spec)
			cancel()
			if err != nil {
				su.teardown()
				return nil, fmt.Errorf("register query %d: %w", q, err)
			}
			if q == 0 {
				d.queryID = info.ID
			}
		}
		su.sessions = append(su.sessions, sess)
		su.drivers = append(su.drivers, d)
	}
	runDrivers(e.nproc, func(i int) {
		d := su.drivers[i]
		for d.next < warmupEpochs && d.op(time.Now(), nil, nil) {
		}
	})
	return su, nil
}

// httpPhase runs one phase on every HTTP driver.
func httpPhase(e *env, su *httpSetup, name string, dur time.Duration, rate float64) *phase {
	return drivePhase(e, name, dur, rate,
		func(i int, due time.Time, p *phase, l *lane) bool { return su.drivers[i].op(due, p, l) }, nil)
}

func runHTTPDurableMixed(e *env) error {
	su, untracedRate, err := repeatSetup(e,
		func(traced bool) (*httpSetup, error) { return setupHTTP(e, traced) },
		(*httpSetup).teardown,
		func(su *httpSetup, dur time.Duration) *phase { return httpPhase(e, su, "untraced", dur, 0) })
	if err != nil {
		return err
	}
	defer su.teardown()
	e.hash = inputHash(su.inputs)
	e.set("sim.generate_s", su.genS)

	before := takeBaseline(e, su.srv)
	satShare, pacedShare := 0.4, 0.6
	if e.traced {
		satShare, pacedShare = 0.2, 0.4
	}
	saturate := httpPhase(e, su, "saturate", e.phaseDur(satShare), 0)
	paced := httpPhase(e, su, "paced", e.phaseDur(pacedShare), httpDurablePacedRate)
	phases := []*phase{saturate, paced}
	e.set("readings_per_s", saturate.windowRate(laneApplied).median)
	e.set("loadgen.saturate_readings_per_s", saturate.windowRate(laneApplied).median)
	ackP50 := paced.windowQuantile(laneAck, 0.5).median
	e.set("ack_p50_ms", ackP50)
	e.set("loadgen.ack_p95_ms", paced.windowQuantile(laneAck, 0.95).median)
	e.set("result_p50_ms", paced.windowQuantile(laneResult, 0.5).median)
	e.set("loadgen.result_p95_ms", paced.windowQuantile(laneResult, 0.95).median)
	e.set("read_p50_ms", paced.windowQuantile(laneRead, 0.5).median)
	e.set("loadgen.read_p95_ms", paced.windowQuantile(laneRead, 0.95).median)
	loadgenMetrics(e, phases, paced)
	setOverhead(e, untracedRate, saturate.windowRate(laneApplied).median)

	after, err := su.srv.scrape()
	if err != nil {
		return err
	}
	sentReadings, sentEpochs := 0, 0
	for _, d := range su.drivers {
		for _, b := range d.in.batches[warmupEpochs:d.next] {
			sentReadings += len(b.Readings)
		}
		sentEpochs += d.next - warmupEpochs
	}
	checkCounters(e, before, after, sentReadings, sentEpochs)
	meanErr := meanErrorOf(e, su.sessions, su.inputs)
	e.set("mean_error_ft", meanErr)
	e.ops.check("mean error is sane", meanErr > 0 && meanErr < maxSaneErrorFt, fmt.Sprintf("mean XY error %.3f ft", meanErr))
	checkAgainstReference(e, su.c, su.inputs[0], httpEngine(e.seed))

	if e.traced {
		serveMetrics(e, su.srv, before, after, sentReadings, ackP50)
	}
	if e.recovery {
		if err := recoverAndReplicate(e, su); err != nil {
			return err
		}
	}
	if e.traced {
		runProbes(e, "http-durable-mixed", su.inputs[0], probeShape{
			objectParticles: httpObjectParticles, readerParticles: 100, report: rfid.ReportEveryEpoch, history: httpHistoryEpochs,
		})
	}
	return nil
}

// sessionView is what a session must answer identically before a crash, after
// recovery and on a converged replica: its progress and the MAP location of
// every object at its last sealed epoch.
type sessionView struct {
	Epochs int
	Last   api.HistorySnapshot
}

func viewOf(sess *client.Session) (sessionView, error) {
	ctx, cancel := opCtx()
	defer cancel()
	over, err := sess.Snapshot(ctx)
	if err != nil {
		return sessionView{}, err
	}
	last, err := sess.SnapshotAt(ctx, over.NextEpoch-1)
	if err != nil {
		return sessionView{}, err
	}
	return sessionView{Epochs: over.Epochs, Last: last}, nil
}

// recoverAndReplicate measures crash recovery and replica catch-up on the
// data the timed phases left behind. The primary is killed with a 255-epoch
// WAL tail behind its last checkpoint, restarted from identical copies of the
// crashed directory, and then followed by fresh replicas one after another
// while it idles (so the open wal.Cursor rotation race cannot interfere).
func recoverAndReplicate(e *env, su *httpSetup) error {
	// Top every session up to one epoch short of its next checkpoint.
	runDrivers(e.nproc, func(i int) {
		d := su.drivers[i]
		for every := e.scaled(httpCheckpointEvery, 16); d.next%every != every-1 && d.op(time.Now(), nil, nil); {
		}
		// d.next epochs sent means epoch numbers 0..d.next-1, so the session
		// has sealed d.next epochs: 255 past a multiple of 256.
	})
	want := make([]sessionView, len(su.sessions))
	for i, sess := range su.sessions {
		e.ops.attempt()
		v, err := viewOf(sess)
		if err != nil {
			e.ops.fail("pre-kill view", err)
			return fmt.Errorf("pre-kill view: %w", err)
		}
		want[i] = v
	}
	su.srv.kill()
	crashed := su.dataDir

	// The last restarted server stays up as the replicas' primary. Repeats
	// beyond the first stop once the run is over its time budget.
	var recoverS []float64
	var primary *serverProc
	var primaryDir string
	for rep, n := 0, e.scaled(recoverRepeats, 1); rep < n && (rep == 0 || !e.overBudget()); rep++ {
		if primary != nil {
			primary.kill()
			_ = os.RemoveAll(primaryDir) // best effort: the run's temp root is removed anyway
			primary = nil
		}
		dir := filepath.Join(e.tmp, fmt.Sprintf("recover-%d", rep))
		if err := copyDir(crashed, dir); err != nil {
			return fmt.Errorf("copy crashed data dir: %w", err)
		}
		e.ops.attempt()
		t0 := time.Now()
		srv, err := startServer(e.serverBin, append([]string{"-data-dir", dir}, su.args...)...)
		if err != nil {
			e.ops.fail("restart", err)
			continue
		}
		primary, primaryDir = srv, dir
		c := client.New(srv.base)
		ok := true
		for i, sess := range su.sessions {
			// healthz reports the default session only, and a session still
			// replaying its WAL answers reads from its partial state, so wait
			// for the session itself to report serving before comparing.
			err := waitSessionServing(c, sess.ID())
			var got sessionView
			if err == nil {
				got, err = viewOf(c.Session(sess.ID()))
			}
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				ok = false
				e.ops.fail("recovered state", fmt.Errorf("session %s differs from its pre-kill state (err %v): %d epochs, want %d", sess.ID(), err, got.Epochs, want[i].Epochs))
			}
		}
		if ok {
			recoverS = append(recoverS, time.Since(t0).Seconds())
		}
	}
	e.set("recover_s", median(recoverS))
	e.notef("recover_s runs: %v", recoverS)
	if primary == nil {
		return fmt.Errorf("no recovered primary to replicate from")
	}
	su.srv, su.dataDir = primary, primaryDir // torn down with the set-up

	var catchupS []float64
	for rep, n := 0, e.scaled(replicaRepeats, 1); rep < n && (rep == 0 || !e.overBudget()); rep++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("replica-%d", rep))
		e.ops.attempt()
		t0 := time.Now()
		rsrv, err := startServer(e.serverBin, append([]string{"-replica-of", primary.hostPt, "-data-dir", dir, "-replica-name", fmt.Sprintf("bench-%d", rep)}, su.args...)...)
		if err != nil {
			e.ops.fail("replica boot", err)
			continue
		}
		rc := client.New(rsrv.base)
		converged := waitConverged(rc, su.sessions, want)
		el := time.Since(t0).Seconds()
		if converged != nil {
			e.ops.fail("replica catch-up", converged)
		} else {
			catchupS = append(catchupS, el)
			if s, err := rsrv.scrape(); err == nil {
				records := s.sum("rfidserve_replication_applied_records_total")
				e.set("replica.applied_records", records)
				e.set("replica.apply_records_per_s", records/el)
			}
			e.set("replica.bootstrap_bytes", float64(dirBytes(dir)))
		}
		if rep == 0 && converged == nil {
			e.ops.attempt()
			ctx, cancel := opCtx()
			t1 := time.Now()
			res, err := rc.Promote(ctx)
			cancel()
			if err != nil || res.Role != "primary" {
				e.ops.fail("promote", fmt.Errorf("role %q, err %v", res.Role, err))
			} else {
				e.set("serve.promote_ms", ms(time.Since(t1)))
			}
		}
		rsrv.kill()
	}
	e.set("replica_catchup_s", median(catchupS))
	e.notef("replica_catchup_s runs: %v", catchupS)
	return nil
}

// waitSessionServing polls one session's lifecycle state until recovery has
// finished.
func waitSessionServing(c *client.Client, id string) error {
	end := time.Now().Add(settleDeadline)
	for {
		ctx, cancel := opCtx()
		info, err := c.GetSession(ctx, id)
		cancel()
		if err == nil && info.State == "serving" {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("session %s not serving within %v (state %q, err %v)", id, settleDeadline, info.State, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitConverged polls the replica until every session has applied as many
// epochs as the primary and answers the same last-epoch snapshot.
func waitConverged(rc *client.Client, sessions []*client.Session, want []sessionView) error {
	end := time.Now().Add(settleDeadline)
	for i, sess := range sessions {
		for {
			got, err := viewOf(rc.Session(sess.ID()))
			if err == nil && got.Epochs == want[i].Epochs {
				if !reflect.DeepEqual(got, want[i]) {
					return fmt.Errorf("session %s: replica snapshot differs from the primary's", sess.ID())
				}
				break
			}
			if time.Now().After(end) {
				return fmt.Errorf("session %s: not converged within %v (err %v)", sess.ID(), settleDeadline, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a file vanishing mid-walk only makes the figure smaller
	})
	return n
}
