package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/client"
)

// stream-dense: an in-memory server, one session and one StreamIngester per
// CPU, a dense shelf (80 objects per foot) passed at 0.02 ft per epoch so that
// every epoch carries about 128 readings while fewer than two new objects
// enter per epoch, 25 particles per object, no queries. Records travel in
// fixed batches of 129 (about one epoch); sessions hold an epoch until the
// next one's first record arrives (hold_epochs 1), so batches need not align
// with epochs.
var streamShelf = shelfShape{RowsDeep: 8, ObjectSpacing: 0.1, RowSpacing: 0.1, ReaderStep: 0.02}

const (
	streamObjectParticles = 25
	streamBatchRecords    = 129
	// streamWindow is how many sealed batches a driver keeps unacknowledged
	// in the saturate phase, and the most it lets queue in a paced phase.
	streamWindow = 4
	// streamMaxBatchRate bounds how much input is generated per session and
	// second of measuring time.
	streamMaxBatchRate = 500
)

func streamEngine(seed int64) api.EngineConfig {
	return api.EngineConfig{ObjectParticles: streamObjectParticles, Seed: seed, HoldEpochs: 1}
}

// streamBatch is one sealed batch awaiting its cumulative ack.
type streamBatch struct {
	seq      uint64
	due      time.Time
	sendAt   time.Time
	readings int
	phase    *phase
	lane     *lane
}

// streamDriver feeds one session through one StreamIngester.
type streamDriver struct {
	e   *env
	id  string
	in  *sessionInput
	ing *client.StreamIngester
	// (epoch, rec) is the next record to add: record rec of batch epoch,
	// location reports first, then readings.
	epoch int
	rec   int
	slots chan struct{}

	lastEpoch int // highest epoch fully or partly sent
	sentReads int // readings in sealed batches

	mu       sync.Mutex
	inflight []streamBatch // FIFO by seq
	sealed   uint64
}

func newStreamDriver(e *env, sess *client.Session, in *sessionInput) *streamDriver {
	d := &streamDriver{e: e, id: sess.ID(), in: in, slots: make(chan struct{}, streamWindow), lastEpoch: -1}
	d.ing = sess.Stream(client.StreamOptions{
		BatchSize:     streamBatchRecords,
		FlushInterval: time.Hour, // batches seal on size only, so their contents are a function of the seed
		Window:        streamWindow,
		OnAck:         d.onAck,
	})
	return d
}

// onAck runs on the ingester's reader goroutine for every cumulative ack.
func (d *streamDriver) onAck(a api.StreamAck) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.inflight) > 0 && d.inflight[0].seq <= a.UpTo {
		b := d.inflight[0]
		d.inflight = d.inflight[1:]
		if b.lane != nil {
			at := now.Sub(b.phase.start)
			b.lane.ack = append(b.lane.ack, timed{at: at, v: ms(now.Sub(b.due))})
			b.lane.applied = append(b.lane.applied, timed{at: at, v: float64(b.readings)})
			if d.e.spans != nil {
				tid := fmt.Sprintf("stream-dense/%s/%d", d.id, b.seq)
				root := d.e.spans.add(0, tid, "batch", b.due, now)
				d.e.spans.add(root, tid, "loadgen.lateness", b.due, b.sendAt)
				d.e.spans.add(root, tid, "client.ingest", b.sendAt, now)
			}
		}
		<-d.slots
	}
}

// available reports whether a whole batch of input is left.
func (d *streamDriver) available() bool {
	left := -d.rec
	for k := d.epoch; k < len(d.in.batches) && left < streamBatchRecords; k++ {
		left += len(d.in.batches[k].Locations) + len(d.in.batches[k].Readings)
	}
	return left >= streamBatchRecords
}

// send seals one batch due at the given instant. It reports false when the
// input is exhausted or the stream has failed.
func (d *streamDriver) send(due time.Time, p *phase, l *lane) bool {
	if !d.available() {
		d.e.ops.check("generated input outlasts the phase", false, "stream input exhausted; raise streamMaxBatchRate")
		return false
	}
	d.e.ops.attempt()
	if l != nil {
		l.sent++
	}
	timer := time.NewTimer(opDeadline)
	select {
	case d.slots <- struct{}{}:
		timer.Stop()
	case <-timer.C:
		d.e.ops.fail("stream credit", fmt.Errorf("no ack within %v", opDeadline))
		if l != nil {
			l.failed++
		}
		return false
	}
	// Walk the cursor once to learn what the batch holds, publish it as in
	// flight, then add its records (the last add seals and sends it).
	batch := streamBatch{due: due, sendAt: time.Now(), phase: p, lane: l}
	epoch, rec := d.epoch, d.rec
	for n := 0; n < streamBatchRecords; n++ {
		b := d.in.batches[epoch]
		if rec >= len(b.Locations) {
			batch.readings++
		}
		if rec++; rec == len(b.Locations)+len(b.Readings) {
			epoch, rec = epoch+1, 0
		}
	}
	d.mu.Lock()
	d.sealed++
	batch.seq = d.sealed
	d.inflight = append(d.inflight, batch)
	d.mu.Unlock()
	d.sentReads += batch.readings
	for n := 0; n < streamBatchRecords; n++ {
		b := d.in.batches[d.epoch]
		var err error
		if d.rec < len(b.Locations) {
			err = d.ing.AddLocation(b.Locations[d.rec])
		} else {
			err = d.ing.AddReading(d.epoch, b.Readings[d.rec-len(b.Locations)].Tag)
		}
		if err != nil {
			d.e.ops.fail("stream add", err)
			if l != nil {
				l.failed++
			}
			return false
		}
		d.lastEpoch = d.epoch
		if d.rec++; d.rec == len(b.Locations)+len(b.Readings) {
			d.epoch, d.rec = d.epoch+1, 0
		}
	}
	return true
}

// drain waits until every sealed batch is acknowledged; batches still
// outstanding at the deadline are failed ops.
func (d *streamDriver) drain() {
	end := time.Now().Add(opDeadline)
	for {
		d.mu.Lock()
		n := len(d.inflight)
		d.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(end) {
			for i := 0; i < n; i++ {
				d.e.ops.fail("stream ack", fmt.Errorf("batch unacknowledged after %v", opDeadline))
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

type streamSetup struct {
	served
	drivers []*streamDriver
}

func setupStream(e *env, traced bool) (*streamSetup, error) {
	su := &streamSetup{}
	var err error
	su.inputs, su.genS, err = genInputs(e.nproc, streamShelf, warmupEpochs+int(streamMaxBatchRate*e.seconds), e.seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.serverBin, "-trace-epochs", traceEpochsFlag(traced), "-max-sessions", strconv.Itoa(e.nproc+4))
	if err != nil {
		return nil, err
	}
	su.srv = srv
	su.c = client.New(srv.base)
	for i, in := range su.inputs {
		ctx, cancel := opCtx()
		_, err := su.c.CreateSession(ctx, sessionRequest(fmt.Sprintf("dense-%d", i), in, streamEngine(e.seed+int64(i))))
		cancel()
		if err != nil {
			su.teardown()
			return nil, fmt.Errorf("create session: %w", err)
		}
		sess := su.c.Session(fmt.Sprintf("dense-%d", i))
		su.sessions = append(su.sessions, sess)
		su.drivers = append(su.drivers, newStreamDriver(e, sess, in))
	}
	// Warm-up: the first 64 epochs, unrecorded.
	runDrivers(e.nproc, func(i int) {
		d := su.drivers[i]
		for d.lastEpoch < warmupEpochs && d.send(time.Now(), nil, nil) {
		}
		d.drain()
	})
	return su, nil
}

func (su *streamSetup) teardown() {
	for _, d := range su.drivers {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = d.ing.Close(ctx) // a failed close was already counted by drain; the server is killed next
		cancel()
	}
	su.served.teardown()
}

// streamPhase runs one phase on every stream driver and drains its acks.
func streamPhase(e *env, su *streamSetup, name string, dur time.Duration, rate float64) *phase {
	return drivePhase(e, name, dur, rate,
		func(i int, due time.Time, p *phase, l *lane) bool { return su.drivers[i].send(due, p, l) },
		func(i int) { su.drivers[i].drain() })
}

func runStreamDense(e *env) error {
	su, untracedRate, err := repeatSetup(e,
		func(traced bool) (*streamSetup, error) { return setupStream(e, traced) },
		(*streamSetup).teardown,
		func(su *streamSetup, dur time.Duration) *phase { return streamPhase(e, su, "untraced", dur, 0) })
	if err != nil {
		return err
	}
	defer su.teardown()
	e.hash = inputHash(su.inputs)
	e.set("sim.generate_s", su.genS)

	before := takeBaseline(e, su.srv)
	var phases []*phase
	var saturate, paced *phase
	if e.traced {
		saturate = streamPhase(e, su, "saturate", e.phaseDur(0.2), 0)
		paced = streamPhase(e, su, "paced", e.phaseDur(0.2), streamDensePacedRate)
		phases = append(phases, saturate, paced)
		bestOK := 0.0
		for _, step := range streamLadder {
			p := streamPhase(e, su, step.name, e.phaseDur(0.15), step.rate)
			phases = append(phases, p)
			p95 := p.windowQuantile(laneAck, 0.95).median
			e.set("loadgen."+step.name+".ack_p95_ms", p95)
			// "Keeps up" = p95 within 10 ms and the last window no slower
			// than twice the first (no growing backlog).
			qs := p.windowQuantile(laneAck, 0.5)
			if p95 > 0 && p95 <= 10 && qs.max <= 2*qs.min+1 {
				bestOK = step.rate
			}
		}
		e.set("loadgen.max_rate_ok", bestOK)
		setOverhead(e, untracedRate, saturate.windowRate(laneApplied).median)
	} else {
		saturate = streamPhase(e, su, "saturate", e.phaseDur(0.4), 0)
		paced = streamPhase(e, su, "paced", e.phaseDur(0.6), streamDensePacedRate)
		phases = []*phase{saturate, paced}
	}
	e.set("readings_per_s", saturate.windowRate(laneApplied).median)
	e.set("loadgen.saturate_readings_per_s", saturate.windowRate(laneApplied).median)
	ackP50 := paced.windowQuantile(laneAck, 0.5).median
	e.set("ack_p50_ms", ackP50)
	e.set("loadgen.ack_p95_ms", paced.windowQuantile(laneAck, 0.95).median)
	loadgenMetrics(e, phases, paced)

	// Close the streams, seal the held-back last epoch, then check the
	// server's own counts against what was sent.
	sentReadings, sentEpochs := 0, 0
	for i, d := range su.drivers {
		e.ops.attempt()
		ctx, cancel := opCtx()
		if err := d.ing.Close(ctx); err != nil {
			e.ops.fail("stream close", err)
		}
		cancel()
		e.ops.attempt()
		ctx, cancel = opCtx()
		if _, err := su.sessions[i].Flush(ctx, false); err != nil {
			e.ops.fail("flush", err)
		}
		cancel()
		sentReadings += d.sentReads
		sentEpochs += d.lastEpoch + 1
	}
	after, err := su.srv.scrape()
	if err != nil {
		return err
	}
	// The baseline was taken after warm-up, whose held-back epoch sealed
	// during the timed phases; count from zero instead.
	checkCounters(e, counterBaseline{s: scrape{}}, after, sentReadings, sentEpochs)
	meanErr := meanErrorOf(e, su.sessions, su.inputs)
	e.set("mean_error_ft", meanErr)
	e.ops.check("mean error is sane", meanErr > 0 && meanErr < maxSaneErrorFt, fmt.Sprintf("mean XY error %.3f ft", meanErr))
	checkAgainstReference(e, su.c, su.inputs[0], streamEngine(e.seed))

	if e.traced {
		timedReadings := int(after.sum("rfidserve_readings_total") - before.s.sum("rfidserve_readings_total"))
		serveMetrics(e, su.srv, before, after, timedReadings, ackP50)
		runProbes(e, "stream-dense", su.inputs[0], probeShape{
			objectParticles: streamObjectParticles, readerParticles: 100, report: rfid.ReportEveryEpoch, holdEpochs: 1,
		})
	}
	return nil
}
