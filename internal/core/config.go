// Package core wires the pieces of the system together into the inference
// engine described in Section IV: the probabilistic model of Section III, the
// factored particle filter, the spatial index over sensing regions and the
// belief-compression policy. The engine consumes synchronized epochs of the
// raw streams and produces the clean event stream with object locations.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/belief"
	"repro/internal/model"
	"repro/internal/sensor"
	"repro/internal/stream"
)

// Config configures an Engine. The zero value is not usable; use
// DefaultConfig as a starting point and override fields as needed.
type Config struct {
	// Params are the model parameters (sensor model, reader motion, reader
	// location sensing, object dynamics), typically produced by calibration.
	Params model.Params
	// World describes the shelves and the shelf tags with known locations.
	World *model.World
	// Sensor optionally overrides the observation model used for weighting;
	// when nil the parametric model from Params is used. Supplying the true
	// generating profile here reproduces the "true sensor model" runs of
	// Fig. 5(e).
	Sensor sensor.Profile

	// Factored selects the factored particle filter (the paper's system).
	// When false the basic unfactorized filter is used; spatial indexing and
	// compression are then unavailable, exactly as in the paper.
	Factored bool
	// SpatialIndex enables the sensing-region index of Section IV-C
	// (requires Factored).
	SpatialIndex bool
	// Compression enables belief compression of Section IV-D (requires
	// Factored).
	Compression bool
	// CompressionPolicy configures when and which beliefs are compressed.
	CompressionPolicy belief.Config

	// NumReaderParticles is the number of reader particles for the factored
	// filter (default 100).
	NumReaderParticles int
	// NumObjectParticles is the number of particles per object for the
	// factored filter (default 1000).
	NumObjectParticles int
	// NumDecompressParticles is the number of particles recreated when a
	// compressed belief is read again (default 10).
	NumDecompressParticles int
	// NumBasicParticles is the number of joint particles for the basic
	// filter (default 10000).
	NumBasicParticles int

	// DisableMotionModel, when true, trusts the reported reader location
	// verbatim instead of inferring the true location (the "motion model
	// Off" baseline of Fig. 5(g)).
	DisableMotionModel bool

	// InitConeHalfAngle / InitConeRange configure sensor-model-based particle
	// initialization; zero values derive them from the sensor's range.
	InitConeHalfAngle float64
	InitConeRange     float64

	// ReportPolicy selects when location events are emitted.
	ReportPolicy stream.ReportPolicy
	// ReportDelay is the delay, in epochs, between an object entering scope
	// and its location event being emitted under ReportAfterDelay
	// (default 60, the value used in the paper's evaluation).
	ReportDelay int
	// ScopeGapEpochs is the number of unobserved epochs after which a new
	// reading counts as a new scan visit (default 30).
	ScopeGapEpochs int

	// Workers is the number of workers the per-object phase of each epoch is
	// fanned out to: zero selects one per CPU (runtime.GOMAXPROCS(0)), one
	// runs the phase inline on the calling goroutine. With more than one,
	// the calling goroutine is worker 0 and the others are helper
	// goroutines. When epochs come back to back (each within 500 µs of the
	// last) and there is more than one CPU, one helper keeps polling for the
	// next epoch for up to 500 µs after finishing one, instead of being
	// started afresh each epoch; that wait costs an engine at most 500 µs of
	// CPU per epoch, whatever the worker and CPU counts, and an engine that
	// receives no epochs has no goroutine left after it. The basic filter
	// has no per-object phase and ignores Workers. Each epoch's step list is
	// split into max(8, 4*Workers) contiguous chunks, which the workers claim
	// one at a time, so more chunks than workers evens out their load.
	// Output is independent of the worker count: a Workers=8 run is
	// byte-identical to a Workers=1 run.
	Workers int

	// Seed seeds all random choices of the engine.
	Seed int64
}

// DefaultConfig returns the configuration of the full system: factored
// filtering with spatial indexing and belief compression enabled.
func DefaultConfig(params model.Params, world *model.World) Config {
	return Config{
		Params:            params,
		World:             world,
		Factored:          true,
		SpatialIndex:      true,
		Compression:       true,
		CompressionPolicy: belief.DefaultConfig(),
		ReportPolicy:      stream.ReportAfterDelay,
		ReportDelay:       60,
		ScopeGapEpochs:    30,
		Seed:              1,
	}
}

func (c *Config) applyDefaults() {
	if c.NumReaderParticles <= 0 {
		c.NumReaderParticles = 100
	}
	if c.NumObjectParticles <= 0 {
		c.NumObjectParticles = 1000
	}
	if c.NumDecompressParticles <= 0 {
		c.NumDecompressParticles = 10
	}
	if c.NumBasicParticles <= 0 {
		c.NumBasicParticles = 10000
	}
	if c.ReportDelay <= 0 {
		c.ReportDelay = 60
	}
	if c.ScopeGapEpochs <= 0 {
		c.ScopeGapEpochs = 30
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.World == nil {
		return fmt.Errorf("core: config requires a World")
	}
	if err := c.World.Validate(); err != nil {
		return fmt.Errorf("core: invalid world: %w", err)
	}
	if !c.Factored && c.SpatialIndex {
		return fmt.Errorf("core: spatial indexing requires the factored filter")
	}
	if !c.Factored && c.Compression {
		return fmt.Errorf("core: belief compression requires the factored filter")
	}
	return nil
}

// observationProfile returns the observation model to weight against.
func (c *Config) observationProfile() sensor.Profile {
	if c.Sensor != nil {
		return c.Sensor
	}
	return sensor.ModelProfile{Model: c.Params.Sensor}
}

// Stats are cumulative counters describing the engine's work; they back the
// throughput and memory analysis of the scalability experiments.
type Stats struct {
	// Epochs is the number of epochs processed.
	Epochs int
	// Readings is the total number of tag readings consumed.
	Readings int
	// ObjectsProcessed is the cumulative number of per-object filter updates
	// (the quantity spatial indexing reduces).
	ObjectsProcessed int
	// EventsEmitted is the number of location events produced.
	EventsEmitted int
	// Compressions and Decompressions count belief compression activity.
	Compressions   int
	Decompressions int
	// TrackedObjects is the number of distinct objects seen so far.
	TrackedObjects int
}
