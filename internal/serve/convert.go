package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/model"
	"repro/internal/query"
	"repro/rfid"
	"repro/rfid/api"
)

// This file is the wire boundary: every conversion between the public
// rfid/api DTOs and the engine's internal types lives here, so internal
// refactors never leak into the wire schema (and vice versa).

// readingsFromAPI converts wire readings into engine readings.
func readingsFromAPI(in []api.Reading) []rfid.Reading {
	out := make([]rfid.Reading, len(in))
	for i, r := range in {
		out[i] = rfid.Reading{Time: r.Time, Tag: rfid.TagID(r.Tag)}
	}
	return out
}

// locationsFromAPI converts wire location reports into engine reports.
func locationsFromAPI(in []api.LocationReport) []rfid.LocationReport {
	out := make([]rfid.LocationReport, len(in))
	for i, l := range in {
		out[i] = rfid.LocationReport{
			Time: l.Time,
			Pos:  rfid.Vec3{X: l.X, Y: l.Y, Z: l.Z},
			Phi:  l.Phi, HasPhi: l.HasPhi,
		}
	}
	return out
}

// specToAPI converts a validated internal spec into its wire form. The two
// types share JSON field names by construction; this keeps the dependency
// arrow pointing from serve to api only.
func specToAPI(s query.Spec) api.QuerySpec {
	return api.QuerySpec{
		Kind:            string(s.Kind),
		Mode:            s.Mode,
		FromEpoch:       s.FromEpoch,
		ToEpoch:         s.ToEpoch,
		MinChange:       s.MinChange,
		WindowEpochs:    s.WindowEpochs,
		ThresholdPounds: s.ThresholdPounds,
		WeightPounds:    s.WeightPounds,
		Op:              string(s.Op),
		GroupBy:         string(s.GroupBy),
	}
}

// infoToAPI converts a registered query's info into its wire form.
func infoToAPI(info query.Info) api.QueryInfo {
	return api.QueryInfo{
		ID:       info.ID,
		Spec:     specToAPI(info.Spec),
		NextSeq:  info.NextSeq,
		Buffered: info.Buffered,
		Dropped:  info.Dropped,
		Finished: info.Finished,
	}
}

// resultsToAPI marshals buffered result rows into the wire form. Rows are
// kind-specific structs with stable JSON tags; encoding them here (rather
// than letting the envelope encoder do it) pins the wire contract that Row is
// a JSON object.
func resultsToAPI(in []query.Result) ([]api.QueryResult, error) {
	out := make([]api.QueryResult, len(in))
	for i, res := range in {
		raw, err := json.Marshal(res.Row)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", res.Seq, err)
		}
		out[i] = api.QueryResult{Seq: res.Seq, Row: raw}
	}
	return out, nil
}

// tagSnapshot converts one object estimate into its wire form.
func tagSnapshot(tag rfid.TagID, loc rfid.Vec3, st rfid.EventStats) api.TagSnapshot {
	return api.TagSnapshot{
		Tag: string(tag), Found: true,
		X: loc.X, Y: loc.Y, Z: loc.Z,
		VarX: st.Variance.X, VarY: st.Variance.Y, VarZ: st.Variance.Z,
		NumParticles: st.NumParticles,
		Compressed:   st.Compressed,
	}
}

// SnapshotAtBody is the GET .../snapshot?epoch=N body for the events
// Runner.HistoryEvents returned for epoch, written object by object through
// api.HistoryEncoder into one buffer. (Exported for the root package's
// perf-ladder benchmark.)
func SnapshotAtBody(epoch int, events []rfid.Event) ([]byte, error) {
	// ~230 bytes per object is typical; size the whole body up front.
	e := api.NewHistoryEncoder(make([]byte, 0, 64+256*len(events)), epoch)
	for i := range events {
		ts := tagSnapshot(events[i].Tag, events[i].Loc, events[i].Stats)
		e.Add(&ts)
	}
	return e.Finish()
}

// badRequest builds the 400 api error.
func badRequest(format string, args ...any) *api.Error {
	return &api.Error{Code: api.ErrBadRequest, Message: fmt.Sprintf(format, args...), HTTPStatus: http.StatusBadRequest}
}

// Hard caps on per-session resource knobs: a create request is untrusted
// input, and a runaway particle count must fail with a 400, not an OOM.
const (
	maxObjectParticles = 200_000
	maxReaderParticles = 20_000
	maxWorkers         = 256
	maxShardCount      = 4096
	maxHistoryEpochs   = 1 << 20
	maxHoldEpochs      = 1 << 20
	maxQueueSize       = 1 << 16
	maxShelves         = 10_000
	maxShelfTags       = 100_000
)

// worldFromRequest builds the session's world: the request's explicit world,
// a synthesized open floor (source "synthetic", or nothing specified at all),
// or an error for an invalid description.
func worldFromRequest(req api.CreateSessionRequest) (*rfid.World, error) {
	switch req.Source {
	case "", api.SourceWorld, api.SourceSynthetic:
	default:
		return nil, badRequest("unknown source %q (want %q or %q)", req.Source, api.SourceWorld, api.SourceSynthetic)
	}
	if req.Source == api.SourceSynthetic || (req.World == nil && req.Source == "") {
		syn := api.SyntheticWorld{}
		if req.Synthetic != nil {
			syn = *req.Synthetic
		}
		if syn.FloorX == 0 {
			syn.FloorX = 40
		}
		if syn.FloorY == 0 {
			syn.FloorY = 40
		}
		if syn.FloorZ == 0 {
			syn.FloorZ = 8
		}
		if syn.FloorX < 0 || syn.FloorY < 0 || syn.FloorZ < 0 {
			return nil, badRequest("synthetic floor dimensions must be positive")
		}
		world := rfid.NewWorld()
		world.AddShelf(rfid.Shelf{
			ID:     "floor",
			Region: rfid.NewBBox(rfid.Vec3{}, rfid.Vec3{X: syn.FloorX, Y: syn.FloorY, Z: syn.FloorZ}),
		})
		return world, nil
	}
	if req.World == nil {
		return nil, badRequest(`source "world" requires a world description`)
	}
	if len(req.World.Shelves) > maxShelves {
		return nil, badRequest("too many shelves (%d > %d)", len(req.World.Shelves), maxShelves)
	}
	if len(req.World.ShelfTags) > maxShelfTags {
		return nil, badRequest("too many shelf tags (%d > %d)", len(req.World.ShelfTags), maxShelfTags)
	}
	world := rfid.NewWorld()
	for _, sh := range req.World.Shelves {
		world.AddShelf(rfid.Shelf{
			ID:     sh.ID,
			Region: rfid.NewBBox(vec3FromAPI(sh.Min), vec3FromAPI(sh.Max)),
		})
	}
	for _, tag := range req.World.ShelfTags {
		if tag.Tag == "" {
			return nil, badRequest("shelf tag with empty id")
		}
		world.AddShelfTag(rfid.TagID(tag.Tag), vec3FromAPI(tag.Loc))
	}
	if err := world.Validate(); err != nil {
		return nil, badRequest("invalid world: %v", err)
	}
	return world, nil
}

func vec3FromAPI(v api.Vec3) rfid.Vec3 { return rfid.Vec3{X: v.X, Y: v.Y, Z: v.Z} }

// paramsFromRequest merges the request's optional parameter overrides over
// the model defaults.
func paramsFromRequest(p *api.Params) rfid.Params {
	params := rfid.DefaultParams()
	if p == nil {
		return params
	}
	if p.Sensor != nil {
		params.Sensor = rfid.SensorModel{
			A0: p.Sensor.A0, A1: p.Sensor.A1, A2: p.Sensor.A2,
			B1: p.Sensor.B1, B2: p.Sensor.B2,
			MaxRange: p.Sensor.MaxRange,
		}
	}
	if p.Motion != nil {
		params.Motion = model.MotionModel{
			Velocity:    vec3FromAPI(p.Motion.Velocity),
			Noise:       vec3FromAPI(p.Motion.Noise),
			PhiNoise:    p.Motion.PhiNoise,
			PhiVelocity: p.Motion.PhiVelocity,
		}
	}
	if p.Sensing != nil {
		params.Sensing = model.LocationSensingModel{
			Bias:  vec3FromAPI(p.Sensing.Bias),
			Noise: vec3FromAPI(p.Sensing.Noise),
		}
	}
	if p.Object != nil {
		params.Object = model.ObjectModel{MoveProb: p.Object.MoveProb}
	}
	return params
}

// buildRunner turns a session-creation request into a started inference
// runner. Both live creation and boot restore call it with the same manifest
// bytes, so a recovered session's engine (and its checkpoint fingerprint) is
// identical to the one that wrote the state. traceEpochs sizes the runner's
// epoch-stage trace ring (0 disables tracing); it is server configuration,
// not part of the manifest, so it never affects the fingerprint.
func buildRunner(req api.CreateSessionRequest, traceEpochs int) (*rfid.Runner, error) {
	world, err := worldFromRequest(req)
	if err != nil {
		return nil, err
	}
	return runnerFor(req, world, traceEpochs)
}

// newRunner is buildRunner for the session's own manifest. The world is built
// from the manifest once and shared by every runner the session builds (the
// engine only reads it), so a hydration or a replica re-bootstrap neither
// rebuilds it nor formats its part of the fingerprint again. Pinned worker
// only.
func (s *session) newRunner() (*rfid.Runner, error) {
	if s.world == nil {
		world, err := worldFromRequest(s.manifest)
		if err != nil {
			return nil, err
		}
		s.world = world
	}
	return runnerFor(s.manifest, s.world, s.cfg.TraceEpochs)
}

// runnerFor is buildRunner over a world already built from req.
func runnerFor(req api.CreateSessionRequest, world *rfid.World, traceEpochs int) (*rfid.Runner, error) {
	cfg := rfid.DefaultConfig(paramsFromRequest(req.Params), world)
	// Continuous queries want a continuous clean stream, not delayed batch
	// reports.
	cfg.ReportPolicy = rfid.ReportEveryEpoch
	rc := rfid.RunnerConfig{TraceEpochs: traceEpochs}
	if eng := req.Engine; eng != nil {
		switch {
		case eng.ObjectParticles < 0 || eng.ObjectParticles > maxObjectParticles:
			return nil, badRequest("object_particles %d out of range [0, %d]", eng.ObjectParticles, maxObjectParticles)
		case eng.ReaderParticles < 0 || eng.ReaderParticles > maxReaderParticles:
			return nil, badRequest("reader_particles %d out of range [0, %d]", eng.ReaderParticles, maxReaderParticles)
		case eng.Workers < 0 || eng.Workers > maxWorkers:
			return nil, badRequest("workers %d out of range [0, %d]", eng.Workers, maxWorkers)
		case eng.ShardCount < 0 || eng.ShardCount > maxShardCount:
			return nil, badRequest("shard_count %d out of range [0, %d]", eng.ShardCount, maxShardCount)
		case eng.HistoryEpochs < 0 || eng.HistoryEpochs > maxHistoryEpochs:
			return nil, badRequest("history_epochs %d out of range [0, %d]", eng.HistoryEpochs, maxHistoryEpochs)
		case eng.HoldEpochs < 0 || eng.HoldEpochs > maxHoldEpochs:
			return nil, badRequest("hold_epochs %d out of range [0, %d]", eng.HoldEpochs, maxHoldEpochs)
		case eng.QueueSize < 0 || eng.QueueSize > maxQueueSize:
			return nil, badRequest("queue_size %d out of range [0, %d]", eng.QueueSize, maxQueueSize)
		}
		if eng.ObjectParticles > 0 {
			cfg.NumObjectParticles = eng.ObjectParticles
		}
		if eng.ReaderParticles > 0 {
			cfg.NumReaderParticles = eng.ReaderParticles
		}
		cfg.Workers = eng.Workers
		cfg.ShardCount = eng.ShardCount
		cfg.Seed = eng.Seed
		rc.HoldEpochs = eng.HoldEpochs
		rc.HistoryEpochs = eng.HistoryEpochs
	}
	runner, err := rfid.NewRunner(cfg, rc)
	if err != nil {
		return nil, badRequest("build engine: %v", err)
	}
	return runner, nil
}
