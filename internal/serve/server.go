// Package serve is the continuous-query serving layer: a long-running HTTP
// service that hosts many independent inference sessions, each ingesting raw
// RFID readings in batched epochs, driving its own pipeline continuously
// through an rfid.Runner and evaluating registered continuous queries
// incrementally as each epoch completes.
//
// Sessions are first-class resources under the versioned v1 API; every wire
// body is a rfid/api type and errors travel in the structured envelope
// {"error":{"code","message"}}:
//
//	POST   /v1/sessions                    create a session (world+params+
//	                                       engine config, or source:"synthetic")
//	GET    /v1/sessions                    list sessions
//	GET    /v1/sessions/{sid}              describe one session
//	DELETE /v1/sessions/{sid}              close a session and delete its state
//	POST   /v1/sessions/{sid}/ingest       apply a batch of raw records
//	POST   /v1/sessions/{sid}/stream       upgrade to the binary streaming
//	                                       ingest protocol (persistent frames,
//	                                       windowed acks; see stream.go)
//	POST   /v1/sessions/{sid}/flush        force-process buffered epochs
//	GET    /v1/sessions/{sid}/snapshot     reader pose + all tracked tags
//	GET    /v1/sessions/{sid}/snapshot/{tag}
//	GET    /v1/sessions/{sid}/snapshot?epoch=N   time-travel read
//	POST   /v1/sessions/{sid}/queries      register a continuous query
//	GET    /v1/sessions/{sid}/queries      list registered queries
//	GET    /v1/sessions/{sid}/queries/{id}/results?after=SEQ&wait=30s
//	                                       poll results; with wait the request
//	                                       long-polls until new rows arrive
//	DELETE /v1/sessions/{sid}/queries/{id} unregister a query
//	GET    /v1/healthz, GET /v1/metrics    service health and metrics
//
// Sessions are work-items on a shared run-queue scheduler (see sched.go): a
// fixed worker pool drains each session's bounded op queue with the session
// pinned to at most one worker at a time, which preserves the per-session
// ordering and determinism the old goroutine-per-session design had. With
// Config.MaxResident set, idle durable sessions past the LRU threshold are
// evicted — their image spilled to disk, their WAL closed — and
// transparently restored on first touch (see hydrate.go). Each session owns
// its own Prometheus series (label session="<id>" on the shared /v1/metrics
// endpoint) and — when Config.DataDir is set — its own WAL/checkpoint
// subdirectory DataDir/sessions/<id>/, together with a manifest.json
// recording its creation request, from which it is rebuilt and recovered on
// boot.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// Config configures a Server. The queue/durability fields double as the
// defaults every session inherits (overridable per session through
// api.EngineConfig).
type Config struct {
	// QueueSize bounds each session's ingest queue, in batches (default 64).
	// A full queue is the backpressure signal.
	QueueSize int
	// IngestWait is how long a request blocks for queue space before giving
	// up with 503 (default 2s).
	IngestWait time.Duration

	// DataDir, when non-empty, enables the durability subsystem for every
	// session: each ingested batch is written to a segmented WAL before the
	// engine applies it, full engine + query-registry state is checkpointed
	// periodically, and startup recovers from the newest checkpoint plus the
	// WAL tail. Sessions persist under DataDir/sessions/<id>/ and are rebuilt
	// from their manifest.json on boot. Recovery is byte-exact.
	DataDir string
	// CheckpointEvery is the number of processed epochs between checkpoints
	// (default 64).
	CheckpointEvery int
	// Fsync selects the WAL fsync policy (default wal.SyncAlways; the
	// wal.SyncInterval period is wal's default 100ms).
	Fsync wal.SyncPolicy

	// MaxSessions caps the number of concurrently live sessions (default 32).
	MaxSessions int

	// SchedWorkers sizes the shared worker pool that drains every session's op
	// queue (default GOMAXPROCS). The pool size affects only throughput, never
	// results: each session is pinned to at most one worker at a time.
	SchedWorkers int

	// TraceEpochs, when > 0, enables epoch-stage tracing on every session:
	// each sealed epoch's per-stage timings (decode, prologue, step, estimate,
	// query-eval, WAL append, seal) are retained in a bounded per-session ring
	// served by GET /v1/sessions/{sid}/trace, and the cumulative per-stage
	// breakdown is exposed on /v1/metrics. Zero disables tracing entirely — the
	// kill switch; tracing never changes results.
	TraceEpochs int
	// Logger receives the server's structured operational log records; nil
	// uses slog.Default(). Every session-scoped record carries a "session"
	// attribute.
	Logger *slog.Logger
	// MaxResident, when > 0, bounds how many durable sessions keep their
	// engine resident in memory: idle sessions past the LRU threshold are
	// evicted — their image spilled to disk, their WAL closed — and
	// transparently restored on first touch (ingest, stream attach,
	// snapshot, query poll). Durable state does not depend on residency.
	// Non-durable sessions are never evicted. 0 keeps everything resident.
	MaxResident int

	// ReplicaOf, when non-empty, boots the server as a read-only replica of
	// the primary at this host:port: every session mirrors the primary's
	// shipped WAL byte-for-byte (see follow.go, replica.go, replicate.go)
	// and write endpoints answer 409 read_only until Promote. Requires
	// DataDir.
	ReplicaOf string
	// ReplicaName identifies this follower in the primary's logs and the
	// replication hello (default: the process hostname).
	ReplicaName string
}

// Fixed serving limits: the request-body cap (the batch-count queue bound
// only limits memory if each batch is bounded too), the checkpoint files a
// session keeps, the cap on a results long-poll's ?wait= and the restore
// time past which a hydration is logged as slow.
const (
	maxBodyBytes    = 8 << 20
	keepCheckpoints = 3
	maxLongPollWait = 60 * time.Second
	slowHydration   = 2 * time.Second
)

func (c *Config) applyDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.IngestWait <= 0 {
		c.IngestWait = 2 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 32
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Server hosts the sessions and the HTTP surface. Create it with New, expose
// Handler on an http.Server, and Close it to stop every session's engine
// goroutine.
type Server struct {
	node
	cfg   Config
	mux   *http.ServeMux
	set   *metrics.Set
	sched *scheduler
	res   *residency
	start time.Time

	mu       sync.Mutex
	sessions map[string]*session
	// deleting reserves ids whose durable teardown is still in flight, so a
	// re-create cannot race the directory removal.
	deleting map[string]struct{}
	nextID   int

	// repl carries the shared replication state and metrics for both roles;
	// follower is the replication client driving this node when it boots
	// with ReplicaOf.
	repl     *replTracker
	follower *follower

	sessionsLive *metrics.Gauge
}

// node is the server-wide state every session's admission reads.
type node struct {
	closed atomic.Bool  // Close has begun
	role   atomic.Int32 // replication role: rolePrimary, roleReplica, rolePromoting
}

// Replication roles. The zero value is primary, so a server built without
// ReplicaOf behaves exactly as before the subsystem existed.
const (
	rolePrimary int32 = iota
	roleReplica
	rolePromoting
)

// roleName maps the role onto the api vocabulary.
func (n *node) roleName() string {
	switch n.role.Load() {
	case roleReplica:
		return api.RoleReplica
	case rolePromoting:
		return api.RolePromoting
	default:
		return api.RolePrimary
	}
}

// durableFilePatterns match the files a session's durability directory holds
// besides its manifest: WAL segments and checkpoints.
var durableFilePatterns = []string{"wal-*.seg", "checkpoint-*.ckpt"}

// New returns a started Server: the shared worker pool is running and, with
// durability enabled, every session persisted under DataDir/sessions has been
// rebuilt from its manifest — eagerly up to MaxResident, lazily (evicted,
// restored on first touch) past it. Recovery itself runs asynchronously on
// the pool; WaitReady blocks until it finished. A server without persisted
// sessions starts empty; sessions are made with CreateSession.
func New(cfg Config) (*Server, error) {
	if cfg.ReplicaOf != "" && cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: replica mode requires a data dir (the replica mirrors the primary's WAL and checkpoints on disk)")
	}
	if cfg.DataDir != "" {
		// Every session lives under sessions/<id>/. Log files directly under
		// DataDir are the layout of a server that predates sessions; booting
		// past them would hide their acknowledged data without a word.
		var stale []string
		for _, pat := range durableFilePatterns {
			m, err := filepath.Glob(filepath.Join(cfg.DataDir, pat))
			if err != nil {
				return nil, fmt.Errorf("serve: scan data dir: %w", err)
			}
			stale = append(stale, m...)
		}
		if len(stale) > 0 {
			return nil, fmt.Errorf("serve: data dir holds session files outside sessions/ (%s): move them to %s/sessions/default/ next to a %s describing the session",
				strings.Join(stale, ", "), cfg.DataDir, manifestName)
		}
	}
	cfg.applyDefaults()
	sv := &Server{
		cfg:      cfg,
		set:      metrics.NewSet(),
		start:    time.Now(),
		sessions: make(map[string]*session),
	}
	if cfg.ReplicaOf != "" {
		sv.role.Store(roleReplica)
	}
	sv.sessionsLive = sv.set.Gauge("rfidserve_sessions", "live sessions")
	sv.sched = newScheduler(cfg.SchedWorkers)
	sv.res = newResidency(cfg.MaxResident, sv.set)
	sv.repl = newReplTracker(sv.set)

	if err := sv.restoreSessions(); err != nil {
		// Tear down every session restored before the failure: a caller that
		// retries New on the same DataDir must not race leaked workers or
		// open WAL writers. A non-graceful stop leaves the disk untouched.
		for _, s := range sv.snapshotSessions() {
			s.stop(false)
		}
		sv.sched.stop()
		return nil, err
	}
	sv.sessionsLive.Set(float64(len(sv.sessions)))

	sv.mux = http.NewServeMux()
	sv.routes()

	// The follower starts last: every persisted session is rebuilt (so resume
	// cursors are accurate) and the read surface exists before the first
	// connection to the primary.
	if cfg.ReplicaOf != "" {
		sv.follower = sv.startFollower(cfg.ReplicaOf, new(net.Dialer).DialContext)
	}
	return sv, nil
}

// deps bundles the server-shared machinery sessions hook into.
func (sv *Server) deps() sessionDeps {
	return sessionDeps{set: sv.set, sched: sv.sched, res: sv.res, repl: sv.repl, node: &sv.node}
}

// sessionConfig derives one session's effective Config from the server
// defaults, the session's durability directory and its engine overrides.
func (sv *Server) sessionConfig(dataDir string, eng *api.EngineConfig) Config {
	cfg := sv.cfg
	cfg.DataDir = dataDir
	if eng != nil && eng.QueueSize > 0 {
		cfg.QueueSize = eng.QueueSize
	}
	return cfg
}

// sessionsRoot is the directory sessions persist under.
func (sv *Server) sessionsRoot() string { return filepath.Join(sv.cfg.DataDir, "sessions") }

// sessionDir returns a session's durability directory ("" when the server is
// not durable).
func (sv *Server) sessionDir(id string) string {
	if sv.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(sv.sessionsRoot(), id)
}

// restoreSessions rebuilds every persisted session from its manifest.json.
// Called once from New, before the HTTP surface exists.
func (sv *Server) restoreSessions() error {
	if sv.cfg.DataDir == "" {
		return nil
	}
	entries, err := os.ReadDir(sv.sessionsRoot())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: scan sessions dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		data, err := os.ReadFile(filepath.Join(sv.sessionsRoot(), id, manifestName))
		if os.IsNotExist(err) {
			// Not a session directory (or a delete that removed the manifest
			// but not yet the directory). Skip, but say so: if this was a
			// session, its WAL data is being left behind deliberately.
			sv.cfg.Logger.Warn("ignoring directory without a session manifest",
				"dir", filepath.Join(sv.sessionsRoot(), id), "missing", manifestName)
			continue
		}
		if err != nil {
			return fmt.Errorf("serve: read session %q manifest: %w", id, err)
		}
		var req api.CreateSessionRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("serve: parse session %q manifest: %w", id, err)
		}
		req.ID = id // the directory is authoritative
		if _, err := sv.addSession(req, true); err != nil {
			return fmt.Errorf("serve: restore session %q: %w", id, err)
		}
	}
	return nil
}

// manifestName is the per-session file recording the api.CreateSessionRequest
// a session was built from; boot recovery rebuilds the session's runner from
// it before replaying its WAL.
const manifestName = "manifest.json"

// sessionIDPattern validates client-chosen session ids.
var sessionIDPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// checkCreateLocked runs the cheap admission checks: session limit,
// invalid/duplicate ids, and ids whose durable state is still being
// torn down by a concurrent delete. Boot restore skips the limit check —
// lowering -max-sessions below the persisted count must degrade new creates,
// not make the whole server unbootable. Caller holds sv.mu.
func (sv *Server) checkCreateLocked(id string, restoring bool) error {
	// Re-checked under sv.mu: Close() flips the flag before it snapshots the
	// session map (also under sv.mu), so an insert that would slip past
	// Close's shutdown sweep is refused here instead of leaking a running
	// session.
	if sv.closed.Load() {
		return &api.Error{Code: api.ErrUnavailable, Message: "server is shutting down", HTTPStatus: http.StatusServiceUnavailable}
	}
	if !restoring && len(sv.sessions) >= sv.cfg.MaxSessions {
		return &api.Error{Code: api.ErrUnavailable, Message: fmt.Sprintf("session limit (%d) reached", sv.cfg.MaxSessions), HTTPStatus: http.StatusServiceUnavailable, RetryAfterMS: 1000}
	}
	if id == "" {
		return nil
	}
	if !sessionIDPattern.MatchString(id) {
		return &api.Error{Code: api.ErrBadRequest, Message: fmt.Sprintf("invalid session id %q (want lowercase letters, digits, '-' or '_', at most 64 chars)", id), HTTPStatus: http.StatusBadRequest}
	}
	if _, exists := sv.sessions[id]; exists {
		return &api.Error{Code: api.ErrConflict, Message: fmt.Sprintf("session %q already exists", id), HTTPStatus: http.StatusConflict}
	}
	if _, busy := sv.deleting[id]; busy {
		return &api.Error{Code: api.ErrConflict, Message: fmt.Sprintf("session %q is being deleted; retry", id), HTTPStatus: http.StatusConflict}
	}
	return nil
}

// addSession validates a creation request, reserves its id, builds the runner
// and starts the session. Used by both CreateSession and boot restore
// (restore passes the manifest verbatim, so both paths build identical
// engines — which is what makes recovered fingerprints match). Once boot
// restore has filled the resident set to MaxResident, further persisted
// sessions boot evicted: no engine is built and no WAL replays until their
// first touch, which is what keeps a dense restart cheap.
func (sv *Server) addSession(req api.CreateSessionRequest, restoring bool) (*session, error) {
	// Reject the cheap failures (limit, bad/duplicate id) before paying for a
	// full inference engine; the same checks run again under the lock below,
	// which stays authoritative.
	sv.mu.Lock()
	err := sv.checkCreateLocked(req.ID, restoring)
	sv.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Replica sessions never boot lazily: a follower must hold its mirror
	// open to apply shipped records, so every session stays resident.
	lazy := restoring && sv.cfg.DataDir != "" && sv.cfg.MaxResident > 0 &&
		sv.res.residentCount() >= sv.cfg.MaxResident &&
		sv.role.Load() != roleReplica
	var world *rfid.World
	var runner *rfid.Runner
	if !lazy {
		if world, err = worldFromRequest(req); err == nil {
			runner, err = runnerFor(req, world, sv.cfg.TraceEpochs)
		}
		if err != nil {
			return nil, err
		}
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if err := sv.checkCreateLocked(req.ID, restoring); err != nil {
		return nil, err
	}
	id := req.ID
	if id == "" {
		sv.nextID++
		id = fmt.Sprintf("s%d", sv.nextID)
		req.ID = id
	} else {
		// Keep server-assigned ids from ever colliding with a client-chosen
		// s<N> (including across restarts, where ids come from manifests).
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > sv.nextID {
			sv.nextID = n
		}
	}
	dir := sv.sessionDir(id)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("create session dir: %w", err)
		}
		if err := writeManifest(dir, req); err != nil {
			return nil, err
		}
	}
	// req carries the assigned id from here on: hydration must rebuild this
	// exact session.
	var sess *session
	if lazy {
		sess = newEvictedSession(id, sv.sessionConfig(dir, req.Engine), sv.deps(), req)
	} else {
		sess = newSession(id, sv.sessionConfig(dir, req.Engine), sv.deps(), req, world, runner)
	}
	sess.restored = restoring
	sess.source = req.Source
	if sess.source == "" {
		if req.World != nil {
			sess.source = api.SourceWorld
		} else {
			sess.source = api.SourceSynthetic
		}
	}
	sv.sessions[id] = sess
	sv.sessionsLive.Set(float64(len(sv.sessions)))
	if !lazy {
		sv.res.touch(sess)
	}
	return sess, nil
}

// writeManifest persists the creation request atomically (temp + fsync +
// rename + dir fsync, via the shared checkpoint helper), so a crash
// mid-create never leaves a half-written manifest, and a power loss after
// the create cannot lose the manifest while keeping fsynced WAL data it is
// the key to — the manifest is part of the session's durability chain,
// exactly like the checkpoint files.
func writeManifest(dir string, req api.CreateSessionRequest) error {
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return fmt.Errorf("encode session manifest: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(dir, manifestName, data); err != nil {
		return fmt.Errorf("write session manifest: %w", err)
	}
	// The session directory itself (and sessions/) may be freshly created;
	// sync the parent so the whole path survives power loss.
	checkpoint.SyncDir(filepath.Dir(dir))
	return nil
}

// removeSession closes a session and deletes its durable state. While the
// (potentially slow) close + directory removal runs outside the lock, the id
// stays reserved in sv.deleting, so a concurrent re-create of the same id
// cannot have its fresh manifest and WAL wiped by this teardown.
func (sv *Server) removeSession(id string) error {
	sv.mu.Lock()
	sess, ok := sv.sessions[id]
	if ok {
		delete(sv.sessions, id)
		if sv.deleting == nil {
			sv.deleting = make(map[string]struct{})
		}
		sv.deleting[id] = struct{}{}
		sv.sessionsLive.Set(float64(len(sv.sessions)))
	}
	sv.mu.Unlock()
	if !ok {
		return &api.Error{Code: api.ErrNotFound, Message: fmt.Sprintf("unknown session %q", id), HTTPStatus: http.StatusNotFound}
	}
	sess.stop(true)
	var teardownErr error
	if dir := sv.sessionDir(id); dir != "" {
		// Remove the manifest FIRST: boot restore treats a manifest-less
		// directory as not-a-session, so once this remove is durable the
		// session can never be resurrected even if the bulk removal below
		// fails halfway (EBUSY, NFS silly-rename, transient IO errors).
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
			// The session is closed and unregistered but its durable state
			// survives intact — surface the failure instead of acking a
			// delete that the next boot would undo.
			teardownErr = &api.Error{Code: api.ErrInternal, Message: fmt.Sprintf("session %q closed but its durable state could not be deleted: %v", id, err), HTTPStatus: http.StatusInternalServerError}
		} else {
			checkpoint.SyncDir(dir)
			if err := os.RemoveAll(dir); err != nil {
				sess.log.Error("deleting session directory failed", "err", err)
			}
		}
	}
	// Retire the session's metric series: stale series must not linger on
	// /v1/metrics, and a re-created session with the same id must start its
	// counters from zero rather than inheriting the dead session's values.
	// The leading brace is stripped so the suffix also matches series that
	// carry an extra label before the session label (the per-stage counters).
	sv.set.DropSeries(strings.TrimPrefix(sess.label, "{"))
	sv.mu.Lock()
	delete(sv.deleting, id)
	sv.mu.Unlock()
	return teardownErr
}

// session returns a live session by id.
func (sv *Server) session(id string) (*session, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[id]
	return s, ok
}

// snapshotSessions returns the live sessions sorted by id, the stable order
// listings use and pagination tokens are compared in.
func (sv *Server) snapshotSessions() []*session {
	sv.mu.Lock()
	out := make([]*session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		out = append(out, s)
	}
	sv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Handler returns the HTTP handler serving the API. Error responses produced
// by the mux itself (unknown paths, method mismatches) are rewritten into the
// structured JSON envelope, so every error on the surface has one shape.
func (sv *Server) Handler() http.Handler { return envelopeErrors(sv.mux) }

// WaitReady blocks until every session finished starting up (for durable
// sessions: until recovery completed) and returns the first startup error, if
// any. Requests arriving earlier simply queue behind recovery; WaitReady
// exists so callers can surface recovery failures promptly.
func (sv *Server) WaitReady(ctx context.Context) error {
	for _, s := range sv.snapshotSessions() {
		if err := s.waitReady(ctx.Done()); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
	}
	return ctx.Err()
}

// Close shuts every session down gracefully (seal, final checkpoint, WAL
// close) and stops the server. Close is idempotent.
func (sv *Server) Close() { sv.shutdown(true) }

// CloseNow stops every session WITHOUT the graceful durable shutdown: no
// final seal, no final checkpoint, the WALs are left exactly as the last
// append left them. This is the crash-simulation hook the recovery tests use
// — the on-disk state afterwards is what a kill -9 would leave behind.
func (sv *Server) CloseNow() { sv.shutdown(false) }

// shutdown stops the follower link, stops every session (gracefully or not)
// and stops the worker pool; only the first call does anything.
func (sv *Server) shutdown(graceful bool) {
	if !sv.closed.CompareAndSwap(false, true) {
		return
	}
	if sv.follower != nil {
		sv.follower.stop()
	}
	for _, s := range sv.snapshotSessions() {
		s.stop(graceful)
	}
	sv.sched.stop()
}

// Promote turns a replica into a primary: the follower link stops, every
// replica session finishes applying what is already queued, closes its mirror
// and opens a fresh writable WAL segment — exactly what a restarted primary
// does, so the promoted node's durable state is a valid primary state by
// construction. On a node that is already primary it promotes the sessions
// a failed promotion left behind (none, usually), so a retry completes it.
func (sv *Server) Promote() (api.PromoteResponse, error) {
	switch {
	case sv.role.CompareAndSwap(roleReplica, rolePromoting):
		sv.cfg.Logger.Info("promoting replica to primary", "was_following", sv.cfg.ReplicaOf)
		if sv.follower != nil {
			sv.follower.stop()
			sv.follower = nil
		}
	case sv.role.Load() != rolePrimary:
		return api.PromoteResponse{}, &api.Error{Code: api.ErrConflict, Message: "promotion already in progress", HTTPStatus: http.StatusConflict}
	}
	promoted := 0
	var firstErr error
	for _, s := range sv.snapshotSessions() {
		if !s.life.load().replica() {
			continue
		}
		res, err := s.call(op{kind: opReplPromote}, nil)
		if err == nil {
			err = res.err
		}
		switch {
		case err == nil:
			promoted++
		case err != errSessionClosed && firstErr == nil:
			firstErr = fmt.Errorf("session %q: %w", s.id, err)
		}
	}
	// The role flips even when a session failed: the failed session is marked
	// failed and refuses ops, while the rest of the node starts serving
	// writes — a half-promoted node that still answers read_only would be
	// strictly worse during a failover.
	sv.role.Store(rolePrimary)
	if firstErr != nil {
		return api.PromoteResponse{}, fmt.Errorf("promote: %w", firstErr)
	}
	return api.PromoteResponse{Role: api.RolePrimary, Sessions: promoted}, nil
}

// handlePromote answers POST /v1/promote.
func (sv *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if sv.closed.Load() {
		writeUnavailable(w, 1000, "server is shutting down")
		return
	}
	resp, err := sv.Promote()
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// readOnlyErr is the stable read_only error writes get while the node is not
// a primary (nil on a primary).
func (n *node) readOnlyErr() error {
	if n.role.Load() == rolePrimary {
		return nil
	}
	return &api.Error{Code: api.ErrReadOnly, Message: fmt.Sprintf("node is a %s: writes must go to the primary", n.roleName()), HTTPStatus: http.StatusConflict}
}

// routes wires the v1 resource surface onto the mux.
func (sv *Server) routes() {
	// Sessions as resources.
	sv.mux.HandleFunc("POST /v1/sessions", sv.handleCreateSession)
	sv.mux.HandleFunc("GET /v1/sessions", sv.handleListSessions)
	// A replica serves history-mode queries itself, so registration and
	// removal admit their writes in the handler, on the primary branch.
	sv.mux.HandleFunc("GET /v1/sessions/{sid}", sv.withSession(admitRead, sv.handleGetSession))
	sv.mux.HandleFunc("DELETE /v1/sessions/{sid}", sv.withSession(admitWrite, sv.handleDeleteSession))
	sv.mux.HandleFunc("POST /v1/sessions/{sid}/ingest", sv.withSession(admitWrite, sv.handleIngest))
	sv.mux.HandleFunc("POST /v1/sessions/{sid}/stream", sv.withSession(admitStream, sv.handleStream))
	sv.mux.HandleFunc("POST /v1/sessions/{sid}/flush", sv.withSession(admitWrite, sv.handleFlush))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/snapshot", sv.withSession(admitRead, sv.handleSnapshotAll))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/snapshot/{tag}", sv.withSession(admitRead, sv.handleSnapshot))
	sv.mux.HandleFunc("POST /v1/sessions/{sid}/queries", sv.withSession(admitRead, sv.handleRegister))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/queries", sv.withSession(admitRead, sv.handleList))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/queries/{id}/results", sv.withSession(admitRead, sv.handleResults))
	sv.mux.HandleFunc("DELETE /v1/sessions/{sid}/queries/{id}", sv.withSession(admitRead, sv.handleUnregister))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/trace", sv.withSession(admitRead, sv.handleTrace))
	sv.mux.HandleFunc("GET /v1/sessions/{sid}/stats", sv.withSession(admitRead, sv.handleSessionStats))
	sv.mux.HandleFunc("GET /v1/metrics", sv.handleMetrics)
	sv.mux.HandleFunc("GET /v1/healthz", sv.handleHealthz)

	// Replication control plane: followers attach here (connection upgrade,
	// see replicate.go) and a replica is promoted here.
	sv.mux.HandleFunc("POST /v1/replicate", sv.handleReplicate)
	sv.mux.HandleFunc("POST /v1/promote", sv.handlePromote)
}

// withSession resolves the {sid} path value into a live session and admits
// the request against it as kind k (see session.admit).
func (sv *Server) withSession(k admitKind, h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sid := r.PathValue("sid")
		sess, ok := sv.session(sid)
		if !ok {
			writeError(w, http.StatusNotFound, api.ErrNotFound, "unknown session %q", sid)
			return
		}
		if err := sess.admit(k); err != nil {
			writeAPIError(w, err)
			return
		}
		h(w, r, sess)
	}
}

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody writes an already encoded 200 JSON body in one write, with its
// Content-Length, or a 500 when the encoder refused the value.
func writeBody(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.ErrInternal, "encode response: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeError writes the structured error envelope every endpoint uses.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: &api.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeAPIError maps an error onto the envelope: *api.Error values carry
// their own status, code and retry hint (a non-zero RetryAfterMS is mirrored
// into the HTTP Retry-After header, rounded up to whole seconds), everything
// else is a 500.
func writeAPIError(w http.ResponseWriter, err error) {
	if apiErr, ok := err.(*api.Error); ok {
		status := apiErr.HTTPStatus
		if status == 0 {
			status = http.StatusInternalServerError
		}
		if apiErr.RetryAfterMS > 0 {
			w.Header().Set("Retry-After", strconv.Itoa((apiErr.RetryAfterMS+999)/1000))
		}
		writeJSON(w, status, api.ErrorEnvelope{Error: apiErr})
		return
	}
	writeError(w, http.StatusInternalServerError, api.ErrInternal, "%v", err)
}

// --- session resource handlers ---

// CreateSession creates and starts a session: the one way a session comes
// into being outside boot restore. POST /v1/sessions is this call behind a
// JSON codec; embedders and cmd/rfidserve's -trace bootstrap call it
// directly. Failures are *api.Error values (conflict for an id that exists,
// bad_request for an invalid world or engine block, ...).
func (sv *Server) CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.Session, error) {
	if err := sv.readOnlyErr(); err != nil {
		return api.Session{}, err
	}
	sess, err := sv.addSession(req, false)
	if err != nil {
		return api.Session{}, err
	}
	// A freshly created session starts against an empty (or no) data
	// directory, so its startup is quick; waiting here means the caller gets
	// a session that is actually serving, and a startup failure surfaces on
	// the create call instead of on the first ingest.
	if err := sess.waitReady(ctx.Done()); err != nil {
		// Roll the registration back: a create the client was told failed
		// must not keep occupying its id and a MaxSessions slot (a retry
		// would otherwise 409 against a session that "was never created").
		if rerr := sv.removeSession(sess.id); rerr != nil {
			sess.log.Error("rollback of failed create left the session registered", "err", rerr)
		}
		return api.Session{}, &api.Error{Code: api.ErrInternal, Message: fmt.Sprintf("session failed to start: %v", err), HTTPStatus: http.StatusInternalServerError}
	}
	return sv.sessionToAPI(sess), nil
}

// handleCreateSession answers POST /v1/sessions.
func (sv *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, "bad session body: %v", err)
		return
	}
	sess, err := sv.CreateSession(r.Context(), req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, sess)
}

// maxPageLimit caps ?limit= on the paginated list endpoints (and is the
// page size when only ?page_token= is given).
const maxPageLimit = 1000

// pageParams parses the ?limit=/?page_token= pagination controls shared by
// the list endpoints. paged reports whether either parameter was present at
// all — the queries endpoint keeps its legacy bare-array response shape for
// unpaginated requests.
func pageParams(r *http.Request) (limit int, token string, paged bool, err error) {
	q := r.URL.Query()
	paged = q.Has("limit") || q.Has("page_token")
	if limit, err = intParam(r, "limit", maxPageLimit, 1); err != nil {
		return 0, "", false, err
	}
	return min(limit, maxPageLimit), q.Get("page_token"), paged, nil
}

// handleListSessions answers GET /v1/sessions, optionally paginated with
// ?limit= and ?page_token=. The order is stable (ids ascending) and the token
// is the last id of the previous page, so a session created or deleted
// between pages never makes the walk skip or repeat an unrelated id.
func (sv *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	limit, token, _, err := pageParams(r)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	list := api.SessionList{Sessions: []api.Session{}}
	for _, s := range sv.snapshotSessions() {
		if token != "" && s.id <= token {
			continue
		}
		if len(list.Sessions) == limit {
			list.NextPageToken = list.Sessions[len(list.Sessions)-1].ID
			break
		}
		list.Sessions = append(list.Sessions, sv.sessionToAPI(s))
	}
	writeJSON(w, http.StatusOK, list)
}

// handleGetSession answers GET /v1/sessions/{sid}.
func (sv *Server) handleGetSession(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, sv.sessionToAPI(sess))
}

// handleDeleteSession answers DELETE /v1/sessions/{sid}: graceful close (for
// durable sessions: seal + final checkpoint) and then removal of the
// session's durable directory.
func (sv *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request, sess *session) {
	if err := sv.removeSession(sess.id); err != nil {
		writeAPIError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sessionToAPI converts a session into its resource representation. Listing
// an evicted session does NOT hydrate it: the stats are the view cached when
// it was evicted.
func (sv *Server) sessionToAPI(s *session) api.Session {
	st := s.runnerStats()
	return api.Session{
		ID:      s.id,
		State:   s.life.load().phase().String(),
		Durable: s.durable(),
		Source:  s.source,
		Stats: api.SessionStats{
			Epochs:         st.Epochs,
			NextEpoch:      st.NextEpoch,
			Watermark:      st.Watermark,
			BufferedEpochs: st.BufferedEpochs,
			Particles:      st.Particles,
			TrackedObjects: st.TrackedObjects,
			LateDropped:    st.LateDropped,
			Queries:        s.queryCount(),
		},
	}
}

// --- data-plane handlers ---

// handleIngest applies a batch through the session's bounded queue and
// answers 202 once it is applied — on a durable session after it reached the
// write-ahead log, so the 202 is a durability receipt under the "always"
// fsync policy. 503 signals backpressure and the client should retry.
func (sv *Server) handleIngest(w http.ResponseWriter, r *http.Request, sess *session) {
	t0 := time.Now()
	var req api.IngestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, "bad ingest body: %v", err)
		return
	}
	rec := wal.Record{
		Type:      wal.RecBatch,
		Readings:  readingsFromAPI(req.Readings),
		Locations: locationsFromAPI(req.Locations),
	}
	res, ok := sv.await(w, r, sess, op{rec: rec}, "ingest")
	if ok && res.err != nil {
		writeError(w, http.StatusServiceUnavailable, api.ErrUnavailable, "ingest not applied: %v", res.err)
		ok = false
	}
	if !ok {
		sess.rejected.Inc()
		return
	}
	sess.batches.Inc()
	// Arrival-to-ack latency: the ack waited for the apply (and the WAL), so
	// this histogram is the end-to-end cost the client observes.
	sess.ingestHist.ObserveDuration(time.Since(t0))
	writeJSON(w, http.StatusAccepted, api.IngestResponse{
		Queued:     true,
		Durable:    sess.durable(),
		Readings:   len(rec.Readings),
		Locations:  len(rec.Locations),
		QueueDepth: len(sess.ops),
	})
}

// handleFlush synchronously processes every buffered epoch (and, with
// ?windows=true, flushes the queries' held-back final epoch). Because the
// flush op queues behind earlier ingest batches, a 200 response means
// everything ingested before the flush has been fully processed — the
// deterministic synchronization point tests and batch clients use.
func (sv *Server) handleFlush(w http.ResponseWriter, r *http.Request, sess *session) {
	// The pinned worker fills in the horizon: the watermark when the op runs.
	rec := wal.Record{Type: wal.RecSeal, FlushWindows: r.URL.Query().Get("windows") == "true"}
	res, ok := sv.await(w, r, sess, op{rec: rec}, "flush")
	if !ok {
		return
	}
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, api.ErrInternal, "flush: %v", res.err)
		return
	}
	writeJSON(w, http.StatusOK, api.FlushResponse{Events: res.events, Results: res.results})
}

// handleSnapshot answers GET .../snapshot/{tag}. An untracked tag is a 404
// with the standard error envelope, like every other missing resource. On an
// evicted session the read hydrates it first (first-touch latency includes
// the engine rebuild + recovery).
func (sv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, sess *session) {
	tag := r.PathValue("tag")
	runner, err := resident(sess, &sess.eng, r.Context().Done())
	if err != nil {
		writeOpError(w, sess, "snapshot", err)
		return
	}
	sv.replicaHeaders(w, sess)
	loc, st, ok := runner.Snapshot(rfid.TagID(tag))
	if !ok {
		writeError(w, http.StatusNotFound, api.ErrNotFound, "tag %q is not tracked", tag)
		return
	}
	snap := tagSnapshot(rfid.TagID(tag), loc, st)
	body, err := api.AppendTagSnapshot(nil, &snap)
	writeBody(w, body, err)
}

// handleSnapshotAll answers GET .../snapshot (the live view: reader pose
// estimate, progress counters, tracked tags) and GET .../snapshot?epoch=N
// (the time-travel view: every object's MAP location as it was when epoch N
// was sealed, served from the runner's bounded history).
func (sv *Server) handleSnapshotAll(w http.ResponseWriter, r *http.Request, sess *session) {
	runner, err := resident(sess, &sess.eng, r.Context().Done())
	if err != nil {
		writeOpError(w, sess, "snapshot", err)
		return
	}
	sv.replicaHeaders(w, sess)
	if r.URL.Query().Get("epoch") != "" {
		epoch, err := intParam(r, "epoch", 0, math.MinInt)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		sv.handleSnapshotAt(w, runner, epoch)
		return
	}
	pose := runner.ReaderSnapshot()
	st := runner.Stats()
	tags := runner.Tracked()
	names := make([]string, len(tags))
	for i, id := range tags {
		names[i] = string(id)
	}
	writeJSON(w, http.StatusOK, api.SnapshotOverview{
		Reader:         api.Pose{X: pose.Pos.X, Y: pose.Pos.Y, Z: pose.Pos.Z, Phi: pose.Phi},
		Epochs:         st.Epochs,
		NextEpoch:      st.NextEpoch,
		Watermark:      st.Watermark,
		BufferedEpochs: st.BufferedEpochs,
		Particles:      st.Particles,
		Tracked:        names,
	})
}

// handleSnapshotAt serves one retained history epoch.
func (sv *Server) handleSnapshotAt(w http.ResponseWriter, runner *rfid.Runner, epoch int) {
	events, ok := runner.HistoryEvents(epoch)
	if !ok {
		oldest, newest, have := runner.HistoryBounds()
		if have {
			writeError(w, http.StatusNotFound, api.ErrNotFound, "epoch %d outside the retained history [%d, %d]", epoch, oldest, newest)
		} else {
			writeError(w, http.StatusNotFound, api.ErrNotFound, "no epoch history retained (enable it with -history / engine.history_epochs)")
		}
		return
	}
	body, err := SnapshotAtBody(epoch, events)
	writeBody(w, body, err)
}

// handleRegister answers POST .../queries with an api.QuerySpec body. The
// registration runs under the session pin (write-ahead logged, ordered
// against epoch processing), so a crash after the 201 cannot lose it.
func (sv *Server) handleRegister(w http.ResponseWriter, r *http.Request, sess *session) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, "bad query spec: %v", err)
		return
	}
	// api.QuerySpec and query.Spec share the wire shape by construction;
	// ParseSpec is the single validated entry point for untrusted spec bytes.
	spec, err := query.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, "%v", err)
		return
	}
	var info query.Info
	if sv.role.Load() != rolePrimary {
		// A replica serves history-mode queries locally (they evaluate once,
		// at registration, over this node's applied history — no primary
		// round-trip and no WAL write), under ephemeral "h"-prefixed ids that
		// live only on this node. Continuous registrations mutate replicated
		// state and must go to the primary.
		if !spec.IsHistory() {
			writeError(w, http.StatusConflict, api.ErrReadOnly, "node is a %s: continuous-query registration must go to the primary (history-mode queries are served here)", sv.roleName())
			return
		}
		// A read of the local registry, so it waits out a recovery first.
		hr, rerr := resident(sess, &sess.histReg, r.Context().Done())
		if rerr != nil {
			writeOpError(w, sess, "queries", rerr)
			return
		}
		info, err = hr.Register(spec)
	} else {
		if err := sess.admit(admitWrite); err != nil {
			writeAPIError(w, err)
			return
		}
		res, ok := sv.await(w, r, sess, op{rec: wal.Record{Type: wal.RecRegister, SpecJSON: string(body)}}, "register")
		if !ok {
			return
		}
		info, err = res.info, res.err
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, api.ErrBadRequest, "%v", err)
		return
	}
	sv.replicaHeaders(w, sess)
	w.Header().Set("Location", fmt.Sprintf("/v1/sessions/%s/queries/%s", sess.id, info.ID))
	writeJSON(w, http.StatusCreated, infoToAPI(info))
}

// handleList answers GET .../queries. Without pagination parameters the
// response stays the legacy bare array; with ?limit= or ?page_token= it is an
// api.QueryPage over the registry's stable id order, tokenized by the last id
// of the previous page.
func (sv *Server) handleList(w http.ResponseWriter, r *http.Request, sess *session) {
	limit, token, paged, err := pageParams(r)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	reg, err := resident(sess, &sess.reg, r.Context().Done())
	if err != nil {
		writeOpError(w, sess, "queries", err)
		return
	}
	sv.replicaHeaders(w, sess)
	infos := reg.List()
	if sv.role.Load() != rolePrimary {
		// Replicated queries first, then this node's local history queries
		// (both lists are individually in stable id order).
		if hr := sess.histReg.Load(); hr != nil {
			infos = append(infos, hr.List()...)
		}
	}
	if !paged {
		out := make(api.QueryList, 0, len(infos))
		for _, info := range infos {
			out = append(out, infoToAPI(info))
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	page := api.QueryPage{Queries: []api.QueryInfo{}}
	for _, info := range infos {
		if token != "" && info.ID <= token {
			continue
		}
		if len(page.Queries) == limit {
			page.NextPageToken = page.Queries[len(page.Queries)-1].ID
			break
		}
		page.Queries = append(page.Queries, infoToAPI(info))
	}
	writeJSON(w, http.StatusOK, page)
}

// handleResults answers GET .../queries/{id}/results?after=SEQ&limit=N and,
// with ?wait=DURATION, long-polls: the request is held until a result with
// Seq > after arrives, the wait elapses, or the query finishes/disappears —
// so clients stream results instead of hot-polling.
func (sv *Server) handleResults(w http.ResponseWriter, r *http.Request, sess *session) {
	after, err := intParam(r, "after", -1, math.MinInt)
	limit := 0
	if err == nil {
		limit, err = intParam(r, "limit", 0, math.MinInt)
	}
	if err != nil {
		writeAPIError(w, err)
		return
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, api.ErrBadRequest, "bad wait %q (want a duration like 30s)", v)
			return
		}
		if d > maxLongPollWait {
			d = maxLongPollWait
		}
		wait = d
	}
	id := r.PathValue("id")
	t0 := time.Now()
	deadline := t0.Add(wait)
	// On a replica, "h"-prefixed ids live in the node-local history registry
	// (see registerReplicaHistory); history queries finish at registration, so
	// the long-poll below returns on the first pass.
	localHist := sv.role.Load() != rolePrimary && strings.HasPrefix(id, "h")
	for {
		// Grab the notify channel BEFORE reading the registry so a result
		// buffered between the read and the wait still wakes this poller. The
		// registry is re-resolved every turn of the loop: the session may be
		// evicted while the poll sleeps, and the next read must hydrate it
		// rather than touch a released registry.
		notify := sess.resultsChan()
		var reg *query.Registry
		if localHist {
			reg = sess.histReg.Load()
			if reg == nil {
				writeError(w, http.StatusNotFound, api.ErrNotFound, "unknown query id %q", id)
				return
			}
		} else {
			var rerr error
			reg, rerr = resident(sess, &sess.reg, r.Context().Done())
			if rerr != nil {
				writeOpError(w, sess, "results", rerr)
				return
			}
		}
		results, info, err := reg.Results(id, after, limit)
		if err != nil {
			writeError(w, http.StatusNotFound, api.ErrNotFound, "%v", err)
			return
		}
		remain := time.Until(deadline)
		if len(results) > 0 || info.Finished || remain <= 0 {
			rows, merr := resultsToAPI(results)
			if merr != nil {
				writeError(w, http.StatusInternalServerError, api.ErrInternal, "encode results: %v", merr)
				return
			}
			// Delivery latency including any long-poll wait: the time a
			// result reader actually spent blocked on this endpoint.
			sess.longpollHist.ObserveDuration(time.Since(t0))
			sv.replicaHeaders(w, sess)
			writeJSON(w, http.StatusOK, api.ResultsPage{Query: infoToAPI(info), Results: rows})
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			writeError(w, http.StatusServiceUnavailable, api.ErrUnavailable, "canceled: %v", r.Context().Err())
			return
		case <-sess.quit:
			timer.Stop()
			// Session shut down mid-poll: answer with what exists.
			deadline = time.Now()
		}
	}
}

// handleUnregister answers DELETE .../queries/{id}, routed through the
// session's op queue like registration.
func (sv *Server) handleUnregister(w http.ResponseWriter, r *http.Request, sess *session) {
	if sv.role.Load() != rolePrimary {
		// "h"-prefixed ids are this replica's local history queries; anything
		// else is replicated state only the primary may change.
		id := r.PathValue("id")
		if strings.HasPrefix(id, "h") {
			if reg := sess.histReg.Load(); reg != nil && reg.Unregister(id) {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			writeError(w, http.StatusNotFound, api.ErrNotFound, "unknown query id %q", id)
			return
		}
		writeError(w, http.StatusConflict, api.ErrReadOnly, "node is a %s: query unregistration must go to the primary", sv.roleName())
		return
	}
	if err := sess.admit(admitWrite); err != nil {
		writeAPIError(w, err)
		return
	}
	res, ok := sv.await(w, r, sess, op{rec: wal.Record{Type: wal.RecUnregister, QueryID: r.PathValue("id")}}, "unregister")
	if !ok {
		return
	}
	if res.err != nil {
		writeError(w, http.StatusServiceUnavailable, api.ErrUnavailable, "unregister not applied: %v", res.err)
		return
	}
	if !res.found {
		writeError(w, http.StatusNotFound, api.ErrNotFound, "unknown query id %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// await runs o on the session's pinned worker and returns its result. When
// the op never ran — the queue stayed full for IngestWait, the client went
// away or the session stopped — it answers the request itself through
// writeOpError and returns ok == false. An op that ran but was refused comes
// back in res.err for the handler to answer.
func (sv *Server) await(w http.ResponseWriter, r *http.Request, sess *session, o op, what string) (opResult, bool) {
	res, err := sess.call(o, r.Context().Done())
	if err != nil {
		writeOpError(w, sess, what, err)
		return opResult{}, false
	}
	return res, true
}

// writeOpError answers a request whose op never ran, or whose read fence the
// session refused, with a 503 and a retry hint: a quarter of IngestWait after
// a full queue, a second otherwise.
func writeOpError(w http.ResponseWriter, sess *session, what string, err error) {
	retryMS := 1000
	if err == errBackpressure {
		retryMS = retryAfterMS(sess.cfg.IngestWait)
	}
	writeUnavailable(w, retryMS, "%s: %v", what, err)
}

// intParam parses the integer query parameter name: def when it is absent,
// a 400 *api.Error when it is not an integer of at least min.
func intParam(r *http.Request, name string, def, min int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		want := "an integer"
		if min > math.MinInt {
			want = fmt.Sprintf("an integer >= %d", min)
		}
		return 0, &api.Error{Code: api.ErrBadRequest, Message: fmt.Sprintf("bad %s %q (want %s)", name, v, want), HTTPStatus: http.StatusBadRequest}
	}
	return n, nil
}

// handleMetrics answers GET /v1/metrics in the Prometheus text format, or as
// a flat JSON object with ?format=json. Every session's series share the one
// set, distinguished by the session label.
func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sessions := sv.snapshotSessions()
	for _, s := range sessions {
		s.scrapeGauges()
	}
	sv.sessionsLive.Set(float64(len(sessions)))
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, sv.set.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = sv.set.WriteProm(w)
}

// state derives the server-level lifecycle /v1/healthz reports from the
// startup outcome of the sessions boot restore (or a replica bootstrap) built
// — the condition WaitReady blocks on: "recovering" while one of them is
// still restoring its checkpoint and replaying its WAL, "failed" when one
// could not, "serving" otherwise (a server with no sessions is serving) and
// "closed" after Close.
func (sv *Server) state() phase {
	if sv.closed.Load() {
		return phaseClosed
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	state := phaseServing
	for _, s := range sv.sessions {
		if !s.restored {
			continue
		}
		if s.life.startErr() != nil {
			return phaseFailed
		}
		if s.life.load().phase() == phaseStarting {
			state = phaseRecovering
		}
	}
	return state
}

// handleHealthz answers GET /v1/healthz.
func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := sv.state()
	sv.mu.Lock()
	n := len(sv.sessions)
	sv.mu.Unlock()
	body := api.Health{
		OK:            state == phaseServing,
		State:         state.String(),
		Durable:       sv.cfg.DataDir != "",
		UptimeSeconds: time.Since(sv.start).Seconds(),
		Sessions:      n,
		Role:          sv.roleName(),
	}
	if sv.role.Load() == rolePrimary {
		followers := sv.repl.followerCount()
		body.Followers = &followers
	} else {
		lag := sv.repl.lagSeconds()
		body.ReplicationLagSeconds = &lag
	}
	code := http.StatusOK
	if state == phaseFailed {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// --- envelope middleware ---

// envelopeErrors rewrites error responses the wrapped handler produced as
// text/plain (the mux's own 404s and 405s, http.Error calls) into the
// structured JSON envelope, so no path on the surface ever emits a plain-text
// error body.
func envelopeErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// envelopeWriter intercepts WriteHeader: a >= 400 status that is not already
// carrying a JSON body is answered with the envelope instead, and the
// original plain-text body is swallowed.
type envelopeWriter struct {
	http.ResponseWriter
	intercepted bool
	wroteHeader bool
}

// WriteHeader implements http.ResponseWriter.
func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	ct := w.Header().Get("Content-Type")
	if code >= 400 && !strings.HasPrefix(ct, "application/json") {
		w.intercepted = true
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("Content-Length")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(code)
		body, _ := json.Marshal(api.ErrorEnvelope{Error: &api.Error{
			Code:    errCodeForStatus(code),
			Message: strings.ToLower(http.StatusText(code)),
		}})
		_, _ = w.ResponseWriter.Write(append(body, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter, swallowing the original body of an
// intercepted error response.
func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// Hijack implements http.Hijacker by delegating to the wrapped writer, so the
// stream endpoint's connection upgrade works through the envelope middleware.
func (w *envelopeWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("underlying ResponseWriter does not support hijacking")
	}
	return hj.Hijack()
}

// errCodeForStatus maps an HTTP status onto the stable error-code vocabulary.
func errCodeForStatus(code int) string {
	switch {
	case code == http.StatusNotFound:
		return api.ErrNotFound
	case code == http.StatusConflict:
		return api.ErrConflict
	case code == http.StatusServiceUnavailable:
		return api.ErrUnavailable
	case code >= 500:
		return api.ErrInternal
	default:
		return api.ErrBadRequest
	}
}
