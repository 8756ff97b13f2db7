package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// density-churn: a durable server (fsync never) that keeps at most 64 of 256
// sessions resident. Every session scans a shelf of 5 objects per foot (about 8
// readings per epoch) at 25 particles with one engine worker and is pre-loaded
// with 16 epochs during set-up. Each driver owns every nproc-th session and
// sends one-epoch JSON ingests to sessions drawn from a seeded Zipf(1.0) over
// its own share, so a stable fraction of requests (0.62 measured) hits a
// resident engine and the rest hydrate one from its checkpoint.
//
// Every miss costs an eviction checkpoint with several fsyncs, about two
// fifths of the time per batch, so the closed-loop rate follows the disk's
// fsync latency as much as the program; it is reported as it is measured.
var densityShelf = shelfShape{RowsDeep: 2, ObjectSpacing: 0.4, RowSpacing: 0.25}

const (
	densitySessions        = 256
	densityResident        = 64
	densityMaxSessions     = 300
	densityObjectParticles = 25
	densityPreloadEpochs   = 16
	// densityTraces distinct simulated traces are shared round-robin by the
	// sessions; sessions are independent, so sharing inputs costs nothing but
	// set-up time.
	densityTraces = 8
	// densityTraceEpochs bounds how many epochs the hottest session can be
	// sent.
	densityTraceEpochs = 4096
)

func densityEngine(seed int64) api.EngineConfig {
	return api.EngineConfig{ObjectParticles: densityObjectParticles, Seed: seed, Workers: 1}
}

// densityDriver owns a share of the sessions and one connection.
type densityDriver struct {
	e        *env
	c        *client.Client
	sessions []*client.Session // owned, hottest first
	inputs   []*sessionInput
	next     []int // next epoch per owned session
	rng      *rand.Rand
	zipf     *zipf
	readings int
	epochs   int
}

// op sends the next epoch of a Zipf-drawn session.
func (d *densityDriver) op(due time.Time, p *phase, l *lane) bool {
	j := d.zipf.rank(d.rng.Float64())
	in := d.inputs[j]
	if d.next[j] >= len(in.batches) {
		return false
	}
	batch := in.batches[d.next[j]]
	d.next[j]++
	d.e.ops.attempt()
	l.sent++
	tSend := time.Now()
	ctx, cancel := opCtx()
	_, err := d.sessions[j].Ingest(ctx, batch)
	cancel()
	now := time.Now()
	if err != nil {
		d.e.ops.fail("ingest", err)
		l.failed++
		return true
	}
	d.readings += len(batch.Readings)
	d.epochs++
	at := now.Sub(p.start)
	l.ack = append(l.ack, timed{at: at, v: ms(now.Sub(due))})
	l.applied = append(l.applied, timed{at: at, v: float64(len(batch.Readings))})
	if d.e.spans != nil {
		tid := fmt.Sprintf("density-churn/%s/%d", d.sessions[j].ID(), d.next[j]-1)
		root := d.e.spans.add(0, tid, "batch", due, now)
		d.e.spans.add(root, tid, "loadgen.lateness", due, tSend)
		d.e.spans.add(root, tid, "client.ingest", tSend, now)
	}
	return true
}

type densitySetup struct {
	served
	drivers []*densityDriver
}

func setupDensity(e *env, traced bool) (*densitySetup, error) {
	su := &densitySetup{}
	traces, genS, err := genInputs(densityTraces, densityShelf, e.scaled(densityTraceEpochs, 256), e.seed)
	if err != nil {
		return nil, err
	}
	su.inputs, su.genS = traces, genS
	if su.dataDir, err = os.MkdirTemp(e.tmp, "density-"); err != nil {
		return nil, err
	}
	su.srv, err = startServer(e.serverBin, "-data-dir", su.dataDir, "-fsync", "never",
		"-max-resident", strconv.Itoa(e.scaled(densityResident, 2)), "-max-sessions", strconv.Itoa(densityMaxSessions),
		"-trace-epochs", traceEpochsFlag(traced))
	if err != nil {
		return nil, err
	}
	su.c = client.New(su.srv.base)
	for d := 0; d < e.nproc; d++ {
		su.drivers = append(su.drivers, &densityDriver{
			e: e, c: driverClient(su.srv.base), rng: rand.New(rand.NewSource(e.seed*7919 + int64(d))),
		})
	}
	for i := 0; i < e.scaled(densitySessions, 8); i++ {
		d := su.drivers[i%e.nproc]
		d.sessions = append(d.sessions, d.c.Session(fmt.Sprintf("churn-%03d", i)))
		d.inputs = append(d.inputs, traces[i%densityTraces])
		d.next = append(d.next, densityPreloadEpochs)
	}
	// Create and pre-load: one request carrying the first 16 epochs.
	fails := make([]error, e.nproc)
	runDrivers(e.nproc, func(di int) {
		d := su.drivers[di]
		d.zipf = newZipf(len(d.sessions))
		for j, sess := range d.sessions {
			in := d.inputs[j]
			ctx, cancel := opCtx()
			_, err := d.c.CreateSession(ctx, sessionRequest(sess.ID(), in, densityEngine(e.seed+int64(j))))
			if err == nil {
				var pre api.IngestRequest
				for _, b := range in.batches[:densityPreloadEpochs] {
					pre.Readings = append(pre.Readings, b.Readings...)
					pre.Locations = append(pre.Locations, b.Locations...)
				}
				_, err = sess.Ingest(ctx, pre)
			}
			cancel()
			if err != nil {
				fails[di] = fmt.Errorf("create and pre-load %s: %w", sess.ID(), err)
				return
			}
		}
	})
	for _, err := range fails {
		if err != nil {
			su.teardown()
			return nil, err
		}
	}
	return su, nil
}

// densityPhase runs one phase on every density driver.
func densityPhase(e *env, su *densitySetup, name string, dur time.Duration, rate float64) *phase {
	return drivePhase(e, name, dur, rate,
		func(i int, due time.Time, p *phase, l *lane) bool { return su.drivers[i].op(due, p, l) }, nil)
}

func runDensityChurn(e *env) error {
	su, untracedRate, err := repeatSetup(e,
		func(traced bool) (*densitySetup, error) { return setupDensity(e, traced) },
		(*densitySetup).teardown,
		func(su *densitySetup, dur time.Duration) *phase { return densityPhase(e, su, "untraced", dur, 0) })
	if err != nil {
		return err
	}
	defer su.teardown()
	e.hash = inputHash(su.inputs)
	e.set("sim.generate_s", su.genS)

	before := takeBaseline(e, su.srv)
	satShare, pacedShare := 0.4, 0.6
	if e.traced {
		satShare, pacedShare = 0.3, 0.5
	}
	saturate := densityPhase(e, su, "saturate", e.phaseDur(satShare), 0)
	paced := densityPhase(e, su, "paced", e.phaseDur(pacedShare), densityPacedRate)
	phases := []*phase{saturate, paced}
	rate := saturate.windowRate(laneApplied).median
	e.set("readings_per_s", rate)
	e.set("loadgen.saturate_readings_per_s", rate)
	setOverhead(e, untracedRate, rate)
	ackP50 := paced.windowQuantile(laneAck, 0.5).median
	e.set("ack_p50_ms", ackP50)
	e.set("loadgen.ack_p95_ms", paced.windowQuantile(laneAck, 0.95).median)
	loadgenMetrics(e, phases, paced)

	after, err := su.srv.scrape()
	if err != nil {
		return err
	}
	sentReadings, sentEpochs := 0, 0
	for _, d := range su.drivers {
		sentReadings += d.readings
		sentEpochs += d.epochs
	}
	checkCounters(e, before, after, sentReadings, sentEpochs)

	// Score every session (reading one hydrates it if it was evicted). The 16
	// hottest alone spread by 14-20 % between seeds, all 256 by 6 %.
	var scored []*client.Session
	var scoredIn []*sessionInput
	for _, d := range su.drivers {
		for j, sess := range d.sessions {
			scored = append(scored, su.c.Session(sess.ID()))
			scoredIn = append(scoredIn, d.inputs[j])
		}
	}
	meanErr := meanErrorOf(e, scored, scoredIn)
	e.set("mean_error_ft", meanErr)
	e.ops.check("mean error is sane", meanErr > 0 && meanErr < maxSaneErrorFt, fmt.Sprintf("mean XY error %.3f ft", meanErr))
	checkAgainstReference(e, su.c, su.inputs[0], densityEngine(e.seed))

	if e.traced {
		serveMetrics(e, su.srv, before, after, sentReadings, ackP50)
		runProbes(e, "density-churn", su.inputs[0], probeShape{
			objectParticles: densityObjectParticles, readerParticles: 100, report: rfid.ReportEveryEpoch,
		})
	}
	return nil
}
