package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/rfid"
	"repro/rfid/api"
)

// shelfShape describes the warehouse row the simulated robot scans. Everything
// else comes from sim.DefaultWarehouseConfig.
type shelfShape struct {
	// Objects fixes the object count, scanned in Rounds passes. Zero sizes the
	// row instead, so that a single pass lasts the epochs asked for: the robot
	// never revisits a place, which is what the engine's sensing-region index
	// is built for (sweeping one short shelf thousands of times makes every
	// stored region overlap the current one).
	Objects int
	Rounds  int
	// RowsDeep objects sit every ObjectSpacing feet along the row.
	RowsDeep      int
	ObjectSpacing float64
	RowSpacing    float64
	// ReaderStep is the robot's advance per epoch in feet (0.1 when zero).
	ReaderStep float64
	// MoveInterval > 0 relocates one object by 2 ft every MoveInterval epochs.
	MoveInterval int
}

func (s shelfShape) step() float64 {
	if s.ReaderStep > 0 {
		return s.ReaderStep
	}
	return 0.1
}

// sessionInput is everything one session (or one offline run) consumes, made
// from a seed alone: the simulated trace with its ground truth, and the same
// trace cut into one wire batch per epoch.
type sessionInput struct {
	shape   shelfShape
	trace   *rfid.Trace
	epochs  []*rfid.Epoch // rfid.Synchronize of the raw streams
	batches []api.IngestRequest
	// objectReadings[k] is the number of non-shelf-tag readings in batch k;
	// an epoch with none emits no location event.
	objectReadings []int
	readings       int
}

// genInput simulates the robot scanning the shelf for at least minEpochs
// epochs (exactly Rounds passes when the object count is fixed) and converts
// the trace to raw streams and per-epoch batches. Reference shelf tags stand
// every 40 ft, and never fewer than 4.
func genInput(shape shelfShape, minEpochs int, seed int64) (*sessionInput, error) {
	cfg := sim.DefaultWarehouseConfig()
	cfg.RowsDeep = shape.RowsDeep
	cfg.ObjectSpacing = shape.ObjectSpacing
	cfg.RowSpacing = shape.RowSpacing
	cfg.ReaderStep = shape.step()
	cfg.Seed = seed
	cfg.NumObjects, cfg.Rounds = shape.Objects, shape.Rounds
	if shape.Objects == 0 {
		columns := int(math.Ceil(float64(minEpochs) * shape.step() / shape.ObjectSpacing))
		cfg.NumObjects, cfg.Rounds = columns*shape.RowsDeep, 1
	}
	columns := (cfg.NumObjects + shape.RowsDeep - 1) / shape.RowsDeep
	cfg.NumShelfTags = max(4, int(float64(columns)*shape.ObjectSpacing/40))
	if shape.MoveInterval > 0 {
		cfg.MoveInterval = shape.MoveInterval
		cfg.MoveDistance = 2
		cfg.MoveCount = 1
	}
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulate warehouse: %w", err)
	}
	readings, locations := sim.RawStreams(trace)
	in := &sessionInput{
		shape:    shape,
		trace:    trace,
		epochs:   rfid.Synchronize(readings, locations),
		readings: len(readings),
	}
	in.batches = make([]api.IngestRequest, len(trace.Epochs))
	in.objectReadings = make([]int, len(trace.Epochs))
	for _, r := range readings {
		b := &in.batches[r.Time]
		b.Readings = append(b.Readings, api.Reading{Time: r.Time, Tag: string(r.Tag)})
		if !trace.World.IsShelfTag(r.Tag) {
			in.objectReadings[r.Time]++
		}
	}
	for _, l := range locations {
		b := &in.batches[l.Time]
		b.Locations = append(b.Locations, api.LocationReport{
			Time: l.Time, X: l.Pos.X, Y: l.Pos.Y, Z: l.Pos.Z, Phi: l.Phi, HasPhi: l.HasPhi,
		})
	}
	return in, nil
}

// apiWorld is the trace's world in wire form: sessions are created with the
// explicit world, so the simulator's ground truth applies to them.
func (in *sessionInput) apiWorld() *api.World {
	w := &api.World{}
	for _, sh := range in.trace.World.Shelves {
		w.Shelves = append(w.Shelves, api.Shelf{
			ID:  sh.ID,
			Min: api.Vec3{X: sh.Region.Min.X, Y: sh.Region.Min.Y, Z: sh.Region.Min.Z},
			Max: api.Vec3{X: sh.Region.Max.X, Y: sh.Region.Max.Y, Z: sh.Region.Max.Z},
		})
	}
	for _, id := range in.trace.World.ShelfTagIDs() {
		loc := in.trace.World.ShelfTags[id]
		w.ShelfTags = append(w.ShelfTags, api.ShelfTag{Tag: string(id), Loc: api.Vec3{X: loc.X, Y: loc.Y, Z: loc.Z}})
	}
	return w
}

// apiParams and engineParams are the same model parameters in wire form and
// in library form; the motion model's velocity is the robot's step.
func (in *sessionInput) apiParams() *api.Params {
	return &api.Params{
		Sensor: &api.SensorParams{A0: sensorA0, A1: sensorA1, A2: sensorA2, B1: sensorB1, B2: sensorB2, MaxRange: sensorMaxRange},
		Motion: &api.MotionParams{
			Velocity: api.Vec3{Y: in.shape.step()},
			Noise:    api.Vec3{X: motionNoiseXY, Y: motionNoiseXY, Z: motionNoiseZ},
			PhiNoise: motionPhiNoise,
		},
		Sensing: &api.SensingParams{Noise: api.Vec3{X: motionNoiseXY, Y: motionNoiseXY, Z: motionNoiseZ}},
		Object:  &api.ObjectParams{MoveProb: objectMoveProb},
	}
}

func (in *sessionInput) engineParams() rfid.Params {
	p := rfid.DefaultParams()
	p.Sensor = rfid.SensorModel{A0: sensorA0, A1: sensorA1, A2: sensorA2, B1: sensorB1, B2: sensorB2, MaxRange: sensorMaxRange}
	p.Motion.Velocity = rfid.Vec3{Y: in.shape.step()}
	p.Motion.Noise = rfid.Vec3{X: motionNoiseXY, Y: motionNoiseXY, Z: motionNoiseZ}
	p.Motion.PhiNoise = motionPhiNoise
	p.Motion.PhiVelocity = 0
	p.Sensing.Bias = rfid.Vec3{}
	p.Sensing.Noise = rfid.Vec3{X: motionNoiseXY, Y: motionNoiseXY, Z: motionNoiseZ}
	p.Object.MoveProb = objectMoveProb
	return p
}

// engineConfig is the library configuration a server session created with
// apiParams and the given engine knobs runs: the full system with events
// reported every epoch, as internal/serve builds it.
func engineConfig(in *sessionInput, objectParticles, readerParticles, workers int, seed int64) rfid.Config {
	cfg := rfid.DefaultConfig(in.engineParams(), in.trace.World)
	cfg.ReportPolicy = rfid.ReportEveryEpoch
	if objectParticles > 0 {
		cfg.NumObjectParticles = objectParticles
	}
	if readerParticles > 0 {
		cfg.NumReaderParticles = readerParticles
	}
	cfg.Workers = workers
	cfg.Seed = seed
	return cfg
}

// digest is a SHA-256 over a sequence of integers, floats and strings.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) num(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digest) f64(v float64) { d.num(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.h.Write([]byte(s)) }
func (d *digest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }

// inputHash identifies the generated inputs: a SHA-256 over every batch of
// every session input, in order.
func inputHash(inputs []*sessionInput) string {
	d := newDigest()
	for _, in := range inputs {
		d.num(uint64(len(in.batches)))
		for _, b := range in.batches {
			d.num(uint64(len(b.Readings)))
			for _, r := range b.Readings {
				d.num(uint64(r.Time))
				d.str(r.Tag)
			}
			d.num(uint64(len(b.Locations)))
			for _, l := range b.Locations {
				d.num(uint64(l.Time))
				d.f64(l.X)
				d.f64(l.Y)
				d.f64(l.Z)
				d.f64(l.Phi)
			}
		}
	}
	return d.sum()
}

// scoreEstimates is the mean XY error of final estimates against the trace's
// ground truth at epoch t, and how many estimates were scored.
func scoreEstimates(in *sessionInput, est map[string]rfid.Vec3, t int) (meanXY float64, scored int) {
	events := make([]rfid.Event, 0, len(est))
	for tag, loc := range est {
		events = append(events, rfid.Event{Time: t, Tag: rfid.TagID(tag), Loc: loc})
	}
	rep := rfid.ScoreAgainstTrace(events, in.trace)
	return rep.MeanXY, rep.Count
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1) — the
// s = 1 case math/rand's Zipf cannot express — by inverting the cumulative
// weights.
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for i := range z.cum {
		sum += 1 / float64(i+1)
		z.cum[i] = sum
	}
	return z
}

// rank maps a uniform draw in [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	return sort.SearchFloat64s(z.cum, u*z.cum[len(z.cum)-1])
}
