// Package repro is the root of a from-scratch Go reproduction of
// "Probabilistic Inference over RFID Streams in Mobile Environments"
// (Tran, Sutton, Cocci, Nie, Diao, Shenoy; ICDE 2009).
//
// The public API lives in package repro/rfid. The implementation — the
// probabilistic data-generation model, the factored particle filter, spatial
// indexing over sensing regions, belief compression, the SMURF and uniform
// baselines, the warehouse and lab simulators and the experiment drivers that
// regenerate every table and figure of the paper's evaluation — lives under
// internal/. The benchmarks in bench_test.go regenerate the paper's tables
// and figures via `go test -bench`.
//
// Beyond the paper, the engine scales out: because the factored distribution
// makes per-object inference independent given the reader particles, the
// engine (internal/core.Engine) partitions objects into shards by a stable
// hash of their tag id and fans each epoch's per-object
// predict/update/resample work out to rfid.Config.Workers goroutines (0 = one
// per CPU, 1 = inline on the calling goroutine), with a barrier before report
// emission. Per-object random streams derived from (seed, tag id) make the
// output byte-identical for any worker or shard count. See ARCHITECTURE.md
// for the shard/worker model, the epoch barrier and the reproducibility
// argument.
//
// The engine also runs online: rfid.Runner drives the pipeline continuously
// from incrementally ingested raw streams (epochs sealed by the ingest
// watermark, not a fixed trace), and the serving layer (internal/serve,
// command rfidserve) exposes it over HTTP — batched ingest with
// backpressure, live snapshots, registered continuous queries evaluated
// incrementally per epoch, and Prometheus-style metrics. The service is
// multi-tenant: sessions are first-class resources under the versioned /v1
// API, each an isolated inference world with its own engine, queries,
// metric labels and durability directory; the public wire schema lives in
// rfid/api (JSON DTOs plus a structured error envelope, decoupled from the
// internal types) and rfid/client is the typed Go SDK — session lifecycle,
// ingest, snapshots and long-polled result streaming — with no dependency
// on internal packages. README.md has the quickstart; API.md is the
// endpoint reference; ARCHITECTURE.md describes the serving layer's epoch
// clocking, session isolation and concurrency story.
//
// Serving state is durable: a segmented, CRC-checked write-ahead log
// (internal/wal) records every ingested batch before the engine applies it,
// a versioned binary codec (internal/checkpoint) serializes the full engine
// state — particle columns, reader poses, per-object random-stream
// positions, query-registry sequence state — and recovery (checkpoint + WAL
// tail replay) reproduces the interrupted run byte-exactly, even across a
// kill -9 and across different worker/shard counts. The same machinery backs
// time-travel reads: a bounded per-epoch history of sealed location
// estimates serves GET /snapshot?epoch=N and history-mode queries. See the
// "Durability & recovery" section of ARCHITECTURE.md.
package repro
