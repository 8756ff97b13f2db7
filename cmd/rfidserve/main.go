// Command rfidserve runs the continuous-query serving layer: a long-running
// HTTP service that ingests raw RFID readings in batched epochs, drives the
// sharded inference pipeline continuously and evaluates registered
// continuous queries (location-update, fire-code, windowed aggregates)
// incrementally per epoch.
//
// Usage:
//
//	rfidserve -addr :8080                            # no sessions; clients POST /v1/sessions
//	rfidserve -addr :8080 -trace trace/ -calibrate   # one session "default": world + params from a trace dir
//	rfidserve -addr :8080 -data-dir /var/lib/rfid    # durable: WAL + checkpoints + recovery
//
// With -data-dir set, every ingested batch is written to a CRC-checked
// write-ahead log before the engine applies it and the full engine state is
// checkpointed every -checkpoint-every epochs; on restart (including after
// kill -9) the server recovers to a byte-identical continuation of the
// interrupted run. SIGINT/SIGTERM triggers a graceful shutdown: the current
// epoch is sealed, a final checkpoint written and the WAL closed.
//
// The service is multi-session: the v1 API exposes sessions as resources,
// each an isolated inference world with its own engine, queries, metrics
// labels and (with -data-dir) durability subdirectory. A server starts with
// the sessions persisted under -data-dir and nothing else; -trace DIR
// additionally creates one ordinary session named "default" through the same
// create call POST /v1/sessions makes, its world (and, with -calibrate, model
// parameters) taken from the trace directory and its engine block from
// -particles, -reader-particles, -workers, -seed, -hold and -history. On a
// durable restart the session already exists and its persisted manifest wins.
//
// High-volume producers use the streaming data plane instead of per-batch
// HTTP: POST /v1/sessions/{sid}/stream upgrades the connection to a
// persistent binary ingest stream (CRC-framed rfid/wire batches, windowed
// cumulative acks that double as durability receipts, reconnect-and-resume
// from the durable sequence watermark). The rfid/client SDK wraps it as
// StreamIngester; see the "Streaming ingest" section of API.md for the
// protocol.
//
// Replication: `rfidserve -replica-of HOST:PORT -data-dir ...` runs the
// process as a read replica. It bootstraps each session from the primary's
// newest checkpoint, then tails the primary's WAL over a persistent
// connection (POST /v1/replicate upgrade), mirroring it byte-for-byte and
// applying it through the recovery path — so replica state is byte-identical
// to the primary at every acknowledged position. Reads (snapshots,
// time-travel reads, history-mode queries, replicated query results) are
// served locally with Rfid-Role / Rfid-Applied-Epoch /
// Rfid-Replication-Lag-Seconds staleness headers; writes are refused with
// code "read_only". SIGUSR1 or POST /v1/promote promotes the replica: the
// link is torn down, each mirrored log is closed and its directory reopened
// for writing in a fresh segment (nothing is sealed), and the node starts
// accepting writes exactly where the primary left off.
//
// Observability: every sealed epoch's per-stage timings (decode, prologue,
// step, estimate, query-eval, WAL append, seal) are retained in a bounded
// per-session ring served by GET /v1/sessions/{sid}/trace (-trace-epochs
// sizes it; 0 disables tracing). /v1/metrics exposes latency histograms for
// ingest acks, long-poll delivery, WAL fsyncs, checkpoint writes, hydrations
// and epoch wall time, plus the cumulative per-stage breakdown. Logs are
// structured (-log-format text|json, -log-level), and -debug-addr serves
// net/http/pprof on a separate, private listener.
//
// Interact with curl:
//
//	curl -X POST localhost:8080/v1/sessions -d '{"source":"synthetic","engine":{"seed":7}}'
//	curl -X POST localhost:8080/v1/sessions/s1/ingest -d '{"readings":[{"time":0,"tag":"obj-001"}],
//	     "locations":[{"time":0,"x":1,"y":2,"z":3}]}'
//	curl -X POST localhost:8080/v1/sessions/s1/queries -d '{"kind":"location-updates","min_change":0.1}'
//	curl -X POST localhost:8080/v1/sessions/s1/flush
//	curl localhost:8080/v1/sessions/s1/snapshot/obj-001
//	curl 'localhost:8080/v1/sessions/s1/snapshot?epoch=42'  # time-travel (needs history_epochs)
//	curl 'localhost:8080/v1/sessions/s1/queries/q1/results?after=-1&wait=30s'  # long-poll
//	curl 'localhost:8080/v1/sessions/s1/trace?epochs=16'    # per-stage epoch timings
//	curl localhost:8080/v1/sessions/s1/stats                # live debug stats
//	curl localhost:8080/v1/metrics
//	curl localhost:8080/v1/healthz                   # state: recovering|serving|...
//
// See API.md for the full endpoint reference and rfid/client for the typed
// Go SDK.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on the -debug-addr mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/traceio"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// traceSessionID names the session -trace creates; cmd/rfidquery's -session
// flag defaults to it.
const traceSessionID = "default"

// sessionFlags are the flags that shape the session -trace creates.
type sessionFlags struct {
	replicaOf       string
	calibrate       bool
	shelfDepth      float64
	particles       int
	readerParticles int
	workers         int
	seed            int64
	hold            int
	history         int
}

// sessionRequest builds the create request for the -trace session: the world
// (and, when calibrating, the model parameters) from the trace directory, the
// engine block from the flags.
func sessionRequest(traceDir string, f sessionFlags) (api.CreateSessionRequest, error) {
	if f.replicaOf != "" {
		return api.CreateSessionRequest{}, errors.New("-trace cannot be combined with -replica-of: a replica's sessions come from its primary")
	}
	dir, err := traceio.Read(traceDir, f.shelfDepth)
	if err != nil {
		return api.CreateSessionRequest{}, fmt.Errorf("loading trace %s: %w", traceDir, err)
	}
	req := api.CreateSessionRequest{
		ID:    traceSessionID,
		World: worldToAPI(dir.World),
		Engine: &api.EngineConfig{
			ObjectParticles: f.particles,
			ReaderParticles: f.readerParticles,
			Workers:         f.workers,
			Seed:            f.seed,
			HoldEpochs:      f.hold,
			HistoryEpochs:   f.history,
		},
	}
	if f.calibrate && len(dir.World.ShelfTags) > 0 {
		calCfg := rfid.DefaultCalibrationConfig()
		calCfg.Seed = f.seed
		res, err := rfid.Calibrate(rfid.Synchronize(dir.Readings, dir.Locations), dir.World, rfid.DefaultParams(), calCfg)
		if err != nil {
			slog.Warn("calibration failed; continuing with default parameters", "err", err)
		} else {
			slog.Info("calibrated sensor model", "sensor", fmt.Sprintf("%v", res.Params.Sensor))
			req.Params = paramsToAPI(res.Params)
		}
	}
	return req, nil
}

func vec3ToAPI(v rfid.Vec3) api.Vec3 { return api.Vec3{X: v.X, Y: v.Y, Z: v.Z} }

// worldToAPI converts a trace's world into the create request's wire form.
func worldToAPI(w *rfid.World) *api.World {
	out := &api.World{}
	for _, sh := range w.Shelves {
		out.Shelves = append(out.Shelves, api.Shelf{ID: sh.ID, Min: vec3ToAPI(sh.Region.Min), Max: vec3ToAPI(sh.Region.Max)})
	}
	for _, id := range w.ShelfTagIDs() {
		out.ShelfTags = append(out.ShelfTags, api.ShelfTag{Tag: string(id), Loc: vec3ToAPI(w.ShelfTags[id])})
	}
	return out
}

// paramsToAPI converts calibrated model parameters into the wire form.
func paramsToAPI(p rfid.Params) *api.Params {
	return &api.Params{
		Sensor: &api.SensorParams{
			A0: p.Sensor.A0, A1: p.Sensor.A1, A2: p.Sensor.A2,
			B1: p.Sensor.B1, B2: p.Sensor.B2,
			MaxRange: p.Sensor.MaxRange,
		},
		Motion: &api.MotionParams{
			Velocity:    vec3ToAPI(p.Motion.Velocity),
			Noise:       vec3ToAPI(p.Motion.Noise),
			PhiNoise:    p.Motion.PhiNoise,
			PhiVelocity: p.Motion.PhiVelocity,
		},
		Sensing: &api.SensingParams{Bias: vec3ToAPI(p.Sensing.Bias), Noise: vec3ToAPI(p.Sensing.Noise)},
		Object:  &api.ObjectParams{MoveProb: p.Object.MoveProb},
	}
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags and installs it as the slog default.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
	logger := slog.New(h).With("component", "rfidserve")
	slog.SetDefault(logger)
	return logger, nil
}

// fatal logs the error and exits (structured replacement for log.Fatalf).
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		traceDir    = flag.String("trace", "", "trace directory; creates the session \"default\" with its world (shelves, shelf tags)")
		calibrate   = flag.Bool("calibrate", false, "calibrate the -trace session's model parameters from the trace before serving")
		shelfDepth  = flag.Float64("shelf-depth", 1.0, "synthesized shelf depth when the -trace directory has no shelves.csv")
		particles   = flag.Int("particles", 1000, "particles per object in the -trace session")
		readerParts = flag.Int("reader-particles", 100, "reader particles in the -trace session")
		workers     = flag.Int("workers", 0, "the -trace session's engine worker goroutines per epoch (0 = GOMAXPROCS, 1 = inline)")
		seed        = flag.Int64("seed", 1, "random seed of the -trace session")
		queue       = flag.Int("queue", 64, "per-session ingest queue bound, in batches (backpressure threshold)")
		hold        = flag.Int("hold", 0, "epochs of lateness slack before the -trace session seals an epoch")
		ingestWait  = flag.Duration("ingest-wait", 2*time.Second, "how long POST .../ingest blocks when the queue is full before failing with 503")

		maxSessions  = flag.Int("max-sessions", 32, "maximum concurrently live sessions")
		maxWait      = flag.Duration("max-poll-wait", 60*time.Second, "cap on the results endpoint's ?wait= long-poll duration")
		maxResident  = flag.Int("max-resident", 0, "maximum durable sessions kept resident in memory; idle sessions past the LRU threshold are spilled to disk and restored on first touch; durable state (checkpoints + WAL) does not depend on residency (0 = unlimited, requires -data-dir)")
		schedWorkers = flag.Int("sched-workers", 0, "worker pool size shared by every session's op queue (0 = GOMAXPROCS)")

		replicaOf   = flag.String("replica-of", "", "follow the primary at this host:port as a read replica (requires -data-dir); writes are refused until promotion")
		replicaName = flag.String("replica-name", "", "follower name reported to the primary (default: hostname)")

		dataDir    = flag.String("data-dir", "", "durability directory (WAL segments + checkpoints); empty disables durability")
		ckptEvery  = flag.Int("checkpoint-every", 64, "epochs between checkpoints (with -data-dir)")
		keepCkpts  = flag.Int("keep-checkpoints", 3, "checkpoint files to retain (with -data-dir)")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy: always (durable acks), interval, or never")
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync period for -fsync=interval")
		history    = flag.Int("history", 0, "epochs of MAP-snapshot history the -trace session retains for time-travel reads (0 disables)")

		traceEpochs = flag.Int("trace-epochs", 64, "sealed epochs of per-stage timing retained per session for GET .../trace (0 disables tracing)")
		slowEpoch   = flag.Duration("slow-epoch", 0, "log a warning when a sealed epoch's wall time exceeds this (0 disables; needs -trace-epochs > 0)")
		slowHydrate = flag.Duration("slow-hydration", 2*time.Second, "log a warning when restoring an evicted session takes longer than this (0 disables)")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		debugAddr   = flag.String("debug-addr", "", "listen address for the private net/http/pprof debug server (empty disables; never expose publicly)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidserve: %v\n", err)
		os.Exit(1)
	}

	syncPolicy, err := wal.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		fatal(logger, "bad -fsync", "err", err)
	}
	if *maxResident > 0 && *dataDir == "" {
		// Eviction spills to the checkpoint + manifest; without durability
		// there is nothing to spill to, so the cap would silently do nothing.
		fatal(logger, "-max-resident requires -data-dir (evicted sessions restore from their on-disk checkpoint)")
	}

	var traceReq *api.CreateSessionRequest
	if *traceDir != "" {
		req, err := sessionRequest(*traceDir, sessionFlags{
			replicaOf: *replicaOf, calibrate: *calibrate, shelfDepth: *shelfDepth,
			particles: *particles, readerParticles: *readerParts, workers: *workers,
			seed: *seed, hold: *hold, history: *history,
		})
		if err != nil {
			fatal(logger, "building the -trace session failed", "err", err)
		}
		traceReq = &req
	}

	srv, err := serve.New(serve.Config{
		ReplicaOf:       *replicaOf,
		ReplicaName:     *replicaName,
		QueueSize:       *queue,
		IngestWait:      *ingestWait,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		KeepCheckpoints: *keepCkpts,
		Fsync:           syncPolicy,
		FsyncInterval:   *fsyncEvery,
		MaxSessions:     *maxSessions,
		MaxLongPollWait: *maxWait,
		MaxResident:     *maxResident,
		SchedWorkers:    *schedWorkers,
		TraceEpochs:     *traceEpochs,
		SlowEpoch:       *slowEpoch,
		SlowHydration:   *slowHydrate,
		Logger:          logger,
	})
	if err != nil {
		fatal(logger, "building server failed", "err", err)
	}
	if traceReq != nil {
		if _, err := srv.CreateSession(context.Background(), *traceReq); err != nil {
			var apiErr *api.Error
			if !errors.As(err, &apiErr) || apiErr.Code != api.ErrConflict {
				fatal(logger, "creating the -trace session failed", "err", err)
			}
			// A durable restart: the session was restored from -data-dir and
			// its persisted manifest wins over the flags.
			logger.Info("the -trace session already exists; keeping its persisted manifest", "session", traceSessionID)
		}
	}
	// Surface recovery progress/failure without delaying the listener:
	// /v1/healthz answers "recovering" while the WAL tails replay.
	go func() {
		if err := srv.WaitReady(context.Background()); err != nil {
			fatal(logger, "recovery failed", "err", err)
		}
		if *dataDir != "" {
			logger.Info("durable state ready",
				"data_dir", *dataDir, "fsync", syncPolicy.String(), "checkpoint_every", *ckptEvery)
		}
	}()

	// The pprof debug server binds its own listener and the DefaultServeMux
	// (where the net/http/pprof import registered itself) — never the public
	// API mux, so profiling endpoints cannot leak through the service port.
	if *debugAddr != "" {
		go func() {
			logger.Info("debug server listening (pprof)", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	// Slow-loris hardening: a client that dribbles its headers or body can
	// otherwise pin a connection (and, behind a small pool, the listener)
	// indefinitely. No WriteTimeout — long-polled result reads legitimately
	// hold their response for up to -max-poll-wait; per-request read deadlines
	// bound the request side instead.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGUSR1 promotes a replica to primary (same effect as POST /v1/promote):
	// the replication link is torn down, mirrored logs are sealed for writing
	// and the node begins accepting writes. Idempotent on a primary.
	promoteCh := make(chan os.Signal, 1)
	signal.Notify(promoteCh, syscall.SIGUSR1)
	go func() {
		for range promoteCh {
			res, err := srv.Promote()
			if err != nil {
				logger.Error("promotion failed", "err", err)
				continue
			}
			logger.Info("promotion complete", "role", res.Role, "sessions", res.Sessions)
		}
	}()

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down (sealing current epoch, writing final checkpoint)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		// Close runs the graceful durable sequence: seal the buffered
		// epochs, feed the queries, write a final checkpoint, close the WAL.
		srv.Close()
		logger.Info("shutdown complete")
	}()

	logger.Info("serving", "addr", *addr, "queue", *queue, "trace_epochs", *traceEpochs)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "listener failed", "err", err)
	}
	// ListenAndServe returns as soon as Shutdown is initiated; wait for the
	// durable close to finish before letting the process exit, or the final
	// checkpoint would be cut short.
	<-shutdownDone
}
