// Package rfid is the public API of the library: a probabilistic cleaning and
// transformation engine that turns the noisy, incomplete raw streams produced
// by mobile RFID readers into a clean, queriable event stream carrying object
// locations, as described in "Probabilistic Inference over RFID Streams in
// Mobile Environments" (Tran et al., ICDE 2009).
//
// The typical flow is:
//
//  1. Describe the environment (shelves and shelf tags with known locations)
//     with a World.
//  2. Calibrate the model parameters from a small training trace with
//     Calibrate, or start from DefaultParams.
//  3. Create a Pipeline and feed it synchronized epochs (use Synchronize to
//     build epochs from the two raw streams).
//  4. Consume the emitted location events, optionally through the provided
//     continuous queries (LocationUpdateQuery, FireCodeQuery).
//
// The heavy lifting — the factored particle filter, spatial indexing over
// sensing regions and belief compression — lives in internal packages and is
// configured through Config.
package rfid

import (
	"repro/internal/checkpoint"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/smurf"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Core geometric and stream types.
type (
	// Vec3 is a point in feet; shelves run along y, x points away from the
	// shelf face, z is height.
	Vec3 = geom.Vec3
	// Pose is a reader position plus heading.
	Pose = geom.Pose
	// BBox is an axis-aligned bounding box, used to describe shelf regions.
	BBox = geom.BBox
	// TagID identifies an RFID tag.
	TagID = stream.TagID
	// Reading is one raw RFID reading (time, tag).
	Reading = stream.Reading
	// LocationReport is one raw reader-location report.
	LocationReport = stream.LocationReport
	// Epoch is the synchronized per-time-step view of both raw streams.
	Epoch = stream.Epoch
	// Event is one clean output event: a tag with an estimated location.
	Event = stream.Event
	// EventStats carries summary statistics attached to an event.
	EventStats = stream.EventStats
	// ReportPolicy selects when events are emitted.
	ReportPolicy = stream.ReportPolicy
)

// Report policies.
const (
	ReportAfterDelay   = stream.ReportAfterDelay
	ReportOnLeaveScope = stream.ReportOnLeaveScope
	ReportEveryEpoch   = stream.ReportEveryEpoch
)

// Model types.
type (
	// World describes shelves and shelf tags with known locations.
	World = model.World
	// Shelf is one shelf region.
	Shelf = model.Shelf
	// Params bundles all model parameters (sensor, motion, sensing, object).
	Params = model.Params
	// SensorModel is the parametric logistic sensor model of the paper.
	SensorModel = sensor.Model
	// SensorProfile is any observation model (learned or ground truth).
	SensorProfile = sensor.Profile
	// Config configures a Pipeline.
	Config = core.Config
	// Stats are the engine's cumulative work counters.
	Stats = core.Stats
	// Tolerance bounds the numeric difference CompareTolerance allows.
	Tolerance = core.Tolerance
)

// CompareTolerance compares two event streams under a numeric tolerance:
// schedules (count, Time, Tag) exactly, locations per axis within the bound.
// Use it to check a Config.FastMath run against the exact default, which is
// deterministic but not byte-identical to it.
func CompareTolerance(got, want []Event, tol Tolerance) error {
	return core.CompareTolerance(got, want, tol)
}

// FastMathTolerance is the documented equivalence bound between a
// Config.FastMath run and the exact default.
func FastMathTolerance() Tolerance { return core.FastMathTolerance() }

// NewWorld returns an empty world description.
func NewWorld() *World { return model.NewWorld() }

// NewBBox returns the bounding box spanned by two corner points.
func NewBBox(a, b Vec3) BBox { return geom.NewBBox(a, b) }

// DefaultParams returns reasonable default model parameters for a slow
// robot-mounted reader; calibration with Calibrate is recommended for real
// deployments.
func DefaultParams() Params { return model.DefaultParams() }

// DefaultConfig returns the full-system configuration (factored filter,
// spatial index and belief compression enabled).
func DefaultConfig(params Params, world *World) Config { return core.DefaultConfig(params, world) }

// SortEventsByTimeThenTag sorts events in place into the canonical output
// order (by time, ties broken by tag id).
func SortEventsByTimeThenTag(events []Event) { stream.ByTimeThenTag(events) }

// Synchronize merges the two raw streams into per-epoch views, averaging
// location reports and grouping readings by epoch.
func Synchronize(readings []Reading, locations []LocationReport) []*Epoch {
	return stream.Synchronize(readings, locations)
}

// Epoch-stage tracing: a TraceRecorder threaded into a Pipeline (usually via
// RunnerConfig.TraceEpochs) timestamps the stages of every processed epoch
// into a bounded ring with zero allocations on the record path. Tracing is
// observational only — it never perturbs RNG consumption or output, so
// traced runs stay byte-identical to untraced ones.
type (
	// TraceRecorder records per-epoch stage timings; a nil recorder is a
	// valid disabled recorder.
	TraceRecorder = trace.Recorder
	// EpochTrace is the recorded timing of one sealed epoch.
	EpochTrace = trace.EpochTrace
	// TraceStage identifies one stage of the epoch pipeline.
	TraceStage = trace.Stage
)

// The traceable stages of the epoch pipeline, in order.
const (
	TraceStageDecode    = trace.StageDecode
	TraceStagePrologue  = trace.StagePrologue
	TraceStageStep      = trace.StageStep
	TraceStageEstimate  = trace.StageEstimate
	TraceStageQueryEval = trace.StageQueryEval
	TraceStageWALAppend = trace.StageWALAppend
	TraceStageSeal      = trace.StageSeal
	NumTraceStages      = trace.NumStages
)

// NewTraceRecorder returns a recorder retaining the last capacity epochs;
// capacity <= 0 returns nil (tracing disabled).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.New(capacity) }

// TraceStageNames returns the snake_case names of all stages in pipeline
// order — the stage taxonomy used by /metrics and the trace API.
func TraceStageNames() []string { return trace.StageNames() }

// Pipeline is the end-to-end cleaning and transformation engine.
//
// A Pipeline is not safe for concurrent use: the hot path keeps its working
// memory in pipeline-owned scratch arenas (that is what makes steady-state
// epochs allocation-free), so ProcessEpoch/Run and the read-side methods
// (Estimate, ReaderEstimate, Particles) must be serialized by the caller.
// The Runner and the serving layer already do this — the Runner under its
// mutex, the server by pinning a session to at most one scheduler worker at
// a time. Parallelism belongs inside an epoch (Config.Workers), where each
// worker has its own arena.
type Pipeline struct {
	eng *core.Engine
}

// NewPipeline builds a Pipeline from a Config. Config.Workers sets how many
// goroutines the per-object phase of each epoch fans out to (zero: one per
// CPU, one: inline); output is byte-identical for any value.
func NewPipeline(cfg Config) (*Pipeline, error) {
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Pipeline{eng: eng}, nil
}

// ProcessEpoch feeds one synchronized epoch and returns the events emitted at
// that epoch.
func (p *Pipeline) ProcessEpoch(ep *Epoch) ([]Event, error) { return p.eng.ProcessEpoch(ep) }

// Finish flushes final location events for every tracked object.
func (p *Pipeline) Finish() []Event { return p.eng.Finish() }

// Run processes a full sequence of epochs, including the final flush.
func (p *Pipeline) Run(epochs []*Epoch) ([]Event, error) { return p.eng.Run(epochs) }

// Estimate returns the current location estimate of an object.
func (p *Pipeline) Estimate(id TagID) (Vec3, EventStats, bool) { return p.eng.Estimate(id) }

// ReaderEstimate returns the current estimate of the true reader pose.
func (p *Pipeline) ReaderEstimate() Pose { return p.eng.ReaderEstimate() }

// TrackedObjects returns the ids of all objects seen so far.
func (p *Pipeline) TrackedObjects() []TagID { return p.eng.TrackedObjects() }

// Stats returns cumulative work counters.
func (p *Pipeline) Stats() Stats { return p.eng.Stats() }

// Particles returns the number of particles currently alive in the engine
// (reader plus per-object particles); a live capacity signal for serving
// metrics.
func (p *Pipeline) Particles() int { return p.eng.ParticleCount() }

// Fingerprint returns the stable hash of the pipeline's effective
// configuration. Checkpoints record it so that restore can refuse state
// produced under different model parameters (which would silently diverge
// rather than fail). Worker and shard counts are excluded — checkpoints are
// portable across parallelism settings.
func (p *Pipeline) Fingerprint() uint64 { return p.eng.Config().Fingerprint() }

// SaveState serializes the pipeline's full inference state (particle columns,
// reader particles, random-stream positions, index and compression state)
// into the encoder. The caller must serialize against ProcessEpoch, exactly
// as for the read-side methods.
func (p *Pipeline) SaveState(e *checkpoint.Encoder) { p.eng.SaveState(e) }

// RestoreState rebuilds the pipeline's inference state from a SaveState
// payload. The pipeline must be freshly built from a Config with the same
// Fingerprint; corrupt input errors, never panics.
func (p *Pipeline) RestoreState(d *checkpoint.Decoder) error { return p.eng.RestoreState(d) }

// SetTraceRecorder installs (or, with nil, removes) a per-epoch stage
// recorder on the engine. Call it before processing; the recorder is not
// part of checkpointed state.
func (p *Pipeline) SetTraceRecorder(r *TraceRecorder) { p.eng.SetTraceRecorder(r) }

// Calibration (Section III-C).
type (
	// CalibrationConfig tunes the EM-based self-calibration.
	CalibrationConfig = learn.Config
	// CalibrationResult carries the learned parameters and diagnostics.
	CalibrationResult = learn.Result
)

// DefaultCalibrationConfig returns the calibration settings used in the
// paper's experiments.
func DefaultCalibrationConfig() CalibrationConfig { return learn.DefaultConfig() }

// Calibrate estimates model parameters from a training trace whose world
// includes shelf tags with known locations.
func Calibrate(epochs []*Epoch, world *World, init Params, cfg CalibrationConfig) (CalibrationResult, error) {
	return learn.Calibrate(epochs, world, init, cfg)
}

// Continuous queries (Section II-B).
type (
	// LocationUpdate is an output row of the location-update query.
	LocationUpdate = query.LocationUpdate
	// LocationUpdateQuery streams location changes per object.
	LocationUpdateQuery = query.LocationUpdateQuery
	// FireCodeConfig configures the fire-code density query.
	FireCodeConfig = query.FireCodeConfig
	// FireCodeQuery streams fire-code violations.
	FireCodeQuery = query.FireCodeQuery
	// Violation is an output row of the fire-code query.
	Violation = query.Violation
	// AreaID identifies a square-foot cell.
	AreaID = query.AreaID
)

// NewLocationUpdateQuery returns a streaming location-update query; events
// whose location moved at most minChange feet are suppressed.
func NewLocationUpdateQuery(minChange float64) *LocationUpdateQuery {
	return query.NewLocationUpdateQuery(minChange)
}

// NewFireCodeQuery returns a streaming fire-code query.
func NewFireCodeQuery(cfg FireCodeConfig) *FireCodeQuery { return query.NewFireCodeQuery(cfg) }

// Query registry: declarative registration and incremental evaluation of
// continuous queries, the substrate of the serving layer (cmd/rfidserve).
type (
	// QuerySpec declaratively describes a continuous query (JSON-friendly).
	QuerySpec = query.Spec
	// QueryKind names a continuous-query type.
	QueryKind = query.Kind
	// QueryRegistry owns registered continuous queries and feeds them the
	// clean event stream incrementally.
	QueryRegistry = query.Registry
	// QueryInfo describes a registered query.
	QueryInfo = query.Info
	// QueryResult is one buffered result row of a registered query.
	QueryResult = query.Result
	// AggregateConfig configures the windowed aggregate query.
	AggregateConfig = query.AggregateConfig
	// AggregateRow is an output row of the windowed aggregate query.
	AggregateRow = query.AggregateRow
	// WindowedAggregateQuery streams windowed aggregates over the clean
	// event stream.
	WindowedAggregateQuery = query.WindowedAggregateQuery
)

// Registrable query kinds.
const (
	QueryLocationUpdates   = query.KindLocationUpdates
	QueryFireCode          = query.KindFireCode
	QueryWindowedAggregate = query.KindWindowedAggregate
)

// NewQueryRegistry returns an empty continuous-query registry; maxBuffered
// caps each query's undelivered results (0 selects the default, negative
// disables the cap for batch evaluation over a finite stream).
func NewQueryRegistry(maxBuffered int) *QueryRegistry { return query.NewRegistry(maxBuffered) }

// NewWindowedAggregateQuery returns a streaming windowed aggregate query.
func NewWindowedAggregateQuery(cfg AggregateConfig) *WindowedAggregateQuery {
	return query.NewWindowedAggregateQuery(cfg)
}

// Simulation (the evaluation substrate of Section V).
type (
	// WarehouseConfig configures the synthetic warehouse trace generator.
	WarehouseConfig = sim.WarehouseConfig
	// LabConfig configures the emulated lab deployment.
	LabConfig = sim.LabConfig
	// Trace is a simulated run: world, epochs and ground truth.
	Trace = sim.Trace
)

// Sensor profiles used by the simulator (and usable as observation models).
type (
	// ConeProfile is the cone-shaped ground-truth sensing profile of
	// Fig. 5(a).
	ConeProfile = sensor.ConeProfile
	// SphereProfile is the roughly spherical profile observed for the lab
	// reader (Fig. 5(d)).
	SphereProfile = sensor.SphereProfile
)

// DefaultConeProfile returns the simulator's default cone profile.
func DefaultConeProfile() ConeProfile { return sensor.DefaultConeProfile() }

// DefaultSphereProfile returns the lab-style spherical profile.
func DefaultSphereProfile() SphereProfile { return sensor.DefaultSphereProfile() }

// DefaultSensorModel returns the generic parametric sensor model used before
// calibration.
func DefaultSensorModel() SensorModel { return sensor.DefaultModel() }

// DefaultWarehouseConfig returns the simulator defaults of Section V-A.
func DefaultWarehouseConfig() WarehouseConfig { return sim.DefaultWarehouseConfig() }

// DefaultLabConfig returns the lab-deployment defaults of Section V-C.
func DefaultLabConfig() LabConfig { return sim.DefaultLabConfig() }

// SimulateWarehouse generates a synthetic warehouse trace.
func SimulateWarehouse(cfg WarehouseConfig) (*Trace, error) { return sim.GenerateWarehouse(cfg) }

// SimulateLab generates an emulated lab-deployment trace.
func SimulateLab(cfg LabConfig) (*Trace, error) { return sim.GenerateLab(cfg) }

// Baselines (Section V).
type (
	// SMURFConfig configures the augmented SMURF baseline.
	SMURFConfig = smurf.Config
	// SMURF is the augmented SMURF estimator.
	SMURF = smurf.Estimator
	// UniformBaseline is the uniform-sampling baseline.
	UniformBaseline = smurf.Uniform
)

// NewSMURF returns the augmented SMURF baseline estimator.
func NewSMURF(cfg SMURFConfig, world *World) *SMURF { return smurf.New(cfg, world) }

// NewUniformBaseline returns the uniform-sampling baseline.
func NewUniformBaseline(cfg SMURFConfig, world *World) *UniformBaseline {
	return smurf.NewUniform(cfg, world)
}

// Containment inference (the paper's future-work extension): infer which
// container (case, pallet) each item sits in from persistent co-location in
// the clean event stream.
type (
	// ContainmentConfig tunes containment inference.
	ContainmentConfig = containment.Config
	// ContainmentTracker accumulates per-scan snapshots and infers facts.
	ContainmentTracker = containment.Tracker
	// ContainmentFact is one inferred item-in-container relationship.
	ContainmentFact = containment.Fact
)

// DefaultContainmentConfig returns the containment-inference defaults.
func DefaultContainmentConfig() ContainmentConfig { return containment.DefaultConfig() }

// NewContainmentTracker returns a tracker; containers lists the tags of
// cases/pallets (every other tag is treated as an item).
func NewContainmentTracker(cfg ContainmentConfig, containers []TagID) *ContainmentTracker {
	return containment.NewTracker(cfg, containers)
}

// Evaluation helpers.
type (
	// ErrorReport summarizes location error against ground truth.
	ErrorReport = metrics.ErrorReport
	// LocationEstimate pairs a tag with an estimated location.
	LocationEstimate = metrics.LocationEstimate
)

// ScoreEvents scores an event stream against a ground-truth lookup.
func ScoreEvents(events []Event, truth func(id TagID, t int) (Vec3, bool)) ErrorReport {
	return metrics.ScoreEvents(events, truth)
}

// ScoreAgainstTrace scores an event stream against a simulated trace's ground
// truth.
func ScoreAgainstTrace(events []Event, trace *Trace) ErrorReport {
	return metrics.ScoreEvents(events, func(id TagID, t int) (Vec3, bool) {
		return trace.Truth.ObjectAt(id, t)
	})
}

// Stream codecs for on-disk traces.
var (
	// WriteReadingsCSV / ReadReadingsCSV persist raw reading streams.
	WriteReadingsCSV = stream.WriteReadingsCSV
	ReadReadingsCSV  = stream.ReadReadingsCSV
	// WriteLocationsCSV / ReadLocationsCSV persist reader location streams.
	WriteLocationsCSV = stream.WriteLocationsCSV
	ReadLocationsCSV  = stream.ReadLocationsCSV
	// WriteEventsCSV / ReadEventsCSV persist clean event streams.
	WriteEventsCSV = stream.WriteEventsCSV
	ReadEventsCSV  = stream.ReadEventsCSV
)

// RawStreams converts a simulated trace back into the two raw streams, e.g.
// for writing them to disk in the on-the-wire format.
func RawStreams(trace *Trace) ([]Reading, []LocationReport) { return sim.RawStreams(trace) }
