// Package api is the stable public wire schema of the serving layer: the
// JSON request/response bodies of every /v1 endpoint, plus the structured
// error envelope. It is deliberately decoupled from the engine's internal
// types — the serving layer converts at the boundary — so internal refactors
// never change what goes over the wire.
//
// The package has no dependencies beyond the standard library and is safe to
// vendor into clients; rfid/client is a typed SDK built entirely on these
// types.
//
// # Versioning
//
// Every type in this package belongs to the v1 surface. Fields are only ever
// added (with omitempty semantics for new optional fields); renaming or
// removing a field, or changing a field's JSON type, requires a new API
// version under a new path prefix. The one removal so far went with the thing
// it described: Session.Default and Health.LastCheckpointEpoch /
// RecoveredFromEpoch / AppliedEpoch reported on the built-in session older
// servers hosted beside the created ones, which no longer exists (see
// "Removed in this revision" in API.md).
package api

import "fmt"

// Error is the structured error every endpoint returns on failure, wrapped in
// the envelope {"error":{"code":...,"message":...}}. It implements the error
// interface, so SDK callers can errors.As it back out of any failed call.
type Error struct {
	// Code is a stable, machine-readable error class (see the ErrCode
	// constants); clients should branch on Code, never on Message.
	Code string `json:"code"`
	// Message is a human-readable description of this specific failure.
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is the server's advice on how long to wait
	// before retrying. It accompanies "unavailable" errors (full op queue,
	// stream backpressure refusal, session-limit); the same value travels in
	// the HTTP Retry-After header, rounded up to whole seconds.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
	// HTTPStatus is the HTTP status the error travelled with. It is not part
	// of the wire body (the status line already carries it); the client SDK
	// fills it in on decode.
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.HTTPStatus != 0 {
		return fmt.Sprintf("api: %s (%s, http %d)", e.Message, e.Code, e.HTTPStatus)
	}
	return fmt.Sprintf("api: %s (%s)", e.Message, e.Code)
}

// Stable error codes.
const (
	// ErrBadRequest: the request body or parameters failed validation.
	ErrBadRequest = "bad_request"
	// ErrNotFound: the addressed session, query or tag does not exist.
	ErrNotFound = "not_found"
	// ErrConflict: the request contradicts current state (duplicate session
	// id, a second promotion while one is in progress).
	ErrConflict = "conflict"
	// ErrUnavailable: backpressure or shutdown; the request may be retried.
	ErrUnavailable = "unavailable"
	// ErrReadOnly: the request mutates state but this node is a replica;
	// retry against the primary (or after promotion).
	ErrReadOnly = "read_only"
	// ErrInternal: the server failed to process an otherwise valid request.
	ErrInternal = "internal"
)

// ErrorEnvelope is the wire form of a failed response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Vec3 is a point or extent in feet.
type Vec3 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// Pose is a reader position plus heading (radians).
type Pose struct {
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Z   float64 `json:"z"`
	Phi float64 `json:"phi"`
}

// Shelf is one shelf region of a world, spanned by two corner points.
type Shelf struct {
	ID  string `json:"id"`
	Min Vec3   `json:"min"`
	Max Vec3   `json:"max"`
}

// ShelfTag is one reference tag with a known, fixed location.
type ShelfTag struct {
	Tag string `json:"tag"`
	Loc Vec3   `json:"loc"`
}

// World describes the physical environment a session's inference runs in:
// shelf regions that bound where objects can be, and shelf tags whose known
// locations anchor reader-location inference.
type World struct {
	Shelves   []Shelf    `json:"shelves,omitempty"`
	ShelfTags []ShelfTag `json:"shelf_tags,omitempty"`
}

// SensorParams are the coefficients of the logistic read-probability model
// p(read | distance d, angle theta) = sigmoid(a0 + a1 d + a2 d^2 + b1 theta
// + b2 theta^2), plus the hard range cutoff.
type SensorParams struct {
	A0       float64 `json:"a0"`
	A1       float64 `json:"a1"`
	A2       float64 `json:"a2"`
	B1       float64 `json:"b1"`
	B2       float64 `json:"b2"`
	MaxRange float64 `json:"max_range"`
}

// MotionParams describe the reader motion model: average per-epoch
// displacement plus Gaussian noise.
type MotionParams struct {
	Velocity    Vec3    `json:"velocity"`
	Noise       Vec3    `json:"noise"`
	PhiNoise    float64 `json:"phi_noise"`
	PhiVelocity float64 `json:"phi_velocity,omitempty"`
}

// SensingParams describe the reader location sensing model: reported reader
// location = true location + bias + Gaussian noise.
type SensingParams struct {
	Bias  Vec3 `json:"bias"`
	Noise Vec3 `json:"noise"`
}

// ObjectParams describe object dynamics: the per-epoch move probability.
type ObjectParams struct {
	MoveProb float64 `json:"move_prob"`
}

// Params bundles the model parameters of a session. Every field is optional;
// nil fields take the server's calibrated or default values.
type Params struct {
	Sensor  *SensorParams  `json:"sensor,omitempty"`
	Motion  *MotionParams  `json:"motion,omitempty"`
	Sensing *SensingParams `json:"sensing,omitempty"`
	Object  *ObjectParams  `json:"object,omitempty"`
}

// EngineConfig carries the per-session inference and runtime knobs. Zero
// values take the server's defaults.
type EngineConfig struct {
	// ObjectParticles is the number of particles per tracked object.
	ObjectParticles int `json:"object_particles,omitempty"`
	// ReaderParticles is the number of reader-pose particles.
	ReaderParticles int `json:"reader_particles,omitempty"`
	// Workers is the number of goroutines the engine fans each epoch's
	// per-object work out to (0 = one per CPU, 1 = inline). The output is
	// byte-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// ShardCount is the number of object shards the engine partitions its
	// particles into (0 = engine default). Like Workers, it changes only how
	// the work is parallelized, never the output.
	ShardCount int `json:"shard_count,omitempty"`
	// Seed seeds all random choices of the session's engine.
	Seed int64 `json:"seed,omitempty"`
	// HoldEpochs is the lateness slack before an epoch is sealed.
	HoldEpochs int `json:"hold_epochs,omitempty"`
	// HistoryEpochs enables time-travel reads: the newest N sealed epochs'
	// MAP snapshots are retained for GET snapshot?epoch=N and history-mode
	// queries.
	HistoryEpochs int `json:"history_epochs,omitempty"`
	// QueueSize bounds the session's ingest queue, in batches (the
	// backpressure threshold).
	QueueSize int `json:"queue_size,omitempty"`
}

// Synthetic world sources for CreateSessionRequest.Source.
const (
	// SourceWorld (the default, also spelled "") uses the world given in the
	// request body.
	SourceWorld = "world"
	// SourceSynthetic synthesizes an open floor so ad-hoc ingest works
	// without describing shelves; dimensions come from the Synthetic block.
	SourceSynthetic = "synthetic"
)

// SyntheticWorld sizes the open floor synthesized for source "synthetic".
// Zero dimensions default to a 40 x 40 x 8 ft floor.
type SyntheticWorld struct {
	FloorX float64 `json:"floor_x,omitempty"`
	FloorY float64 `json:"floor_y,omitempty"`
	FloorZ float64 `json:"floor_z,omitempty"`
}

// CreateSessionRequest is the POST /v1/sessions body: everything a session
// needs to run an isolated inference world.
type CreateSessionRequest struct {
	// ID optionally names the session (lowercase letters, digits, '-' and
	// '_', at most 64 chars). Empty lets the server assign s1, s2, ....
	ID string `json:"id,omitempty"`
	// Source selects where the world comes from: "world" (the default) reads
	// the World field, "synthetic" synthesizes an open floor.
	Source string `json:"source,omitempty"`
	// World describes shelves and shelf tags for source "world".
	World *World `json:"world,omitempty"`
	// Synthetic sizes the floor for source "synthetic".
	Synthetic *SyntheticWorld `json:"synthetic,omitempty"`
	// Params optionally overrides model parameters (nil fields keep
	// defaults).
	Params *Params `json:"params,omitempty"`
	// Engine optionally overrides inference and runtime knobs.
	Engine *EngineConfig `json:"engine,omitempty"`
}

// SessionStats is the live progress of one session.
type SessionStats struct {
	Epochs         int `json:"epochs"`
	NextEpoch      int `json:"next_epoch"`
	Watermark      int `json:"watermark"`
	BufferedEpochs int `json:"buffered_epochs"`
	Particles      int `json:"particles"`
	TrackedObjects int `json:"tracked_objects"`
	LateDropped    int `json:"late_dropped"`
	Queries        int `json:"queries"`
}

// Session describes one session resource.
type Session struct {
	ID string `json:"id"`
	// State is the session lifecycle: recovering | serving | evicted |
	// failed | closed. "evicted" means the session's engine has been spilled
	// to its on-disk checkpoint by the resident-set LRU; the first touch
	// restores it transparently.
	State string `json:"state"`
	// Durable reports whether the session persists a WAL and checkpoints.
	Durable bool   `json:"durable"`
	Source  string `json:"source,omitempty"`
	// Stats is the session's live progress.
	Stats SessionStats `json:"stats"`
}

// SessionList is the GET /v1/sessions body. The listing is ordered stably (by
// id ascending) and paginates with
// ?limit=N&page_token=T: NextPageToken is non-empty when more sessions
// follow, and passes back verbatim as the next request's page_token.
type SessionList struct {
	Sessions []Session `json:"sessions"`
	// NextPageToken resumes the listing after the last returned session.
	// Empty means the listing is complete.
	NextPageToken string `json:"next_page_token,omitempty"`
}
