# Development and CI entry points. CI (.github/workflows/ci.yml) runs exactly
# these targets so local runs reproduce CI results.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench bench-smoke loc doc-check serve-smoke cover alloc-gate fuzz-smoke recover-smoke api-smoke stream-smoke density-smoke replica-smoke metrics-lint profile benchmark-test kernel-check bench-ab

all: build vet fmt-check doc-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt rewrites; fmt-check only verifies (used by CI).
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The repo benchmark is its own module (benchmark/go.mod, `replace repro =>
# ../`, so it needs no network), which `go test ./...` from the root does not
# enter — yet it imports internal/wal, internal/checkpoint, internal/query and
# internal/factored, so a refactor there can break it unseen.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Sensor-kernel check: the scalar bodies, which CPUs without AVX2 and FMA and
# every other GOARCH run, pass the sensor tests and the filter and random
# source tests (the scalar weight normalisation) on their own (-tags purego
# leaves the amd64 assembly out), and the packages that call them vet on a
# GOARCH without the assembly. `make vet`'s asmdecl pass covers the .s file.
kernel-check:
	$(GO) test -tags purego ./internal/sensor/ ./internal/factored/ ./internal/rng/
	GOARCH=arm64 $(GO) vet ./internal/sensor/ ./internal/factored/

# Race gate over the packages with concurrent code paths (the engine's
# per-shard fan-out and the filter phases it drives, the continuous runner,
# and the serving layer's ingest/snapshot concurrency). This also runs the
# alloc-gate and determinism property tests under the race detector: the
# zero-allocation assertions themselves are skipped (race instrumentation
# allocates) but the arena-backed hot path is still exercised for data races.
race:
	$(GO) test -race ./internal/core ./internal/factored ./internal/spatial ./internal/stats ./internal/serve ./rfid ./rfid/client ./rfid/wire ./internal/wal ./internal/checkpoint ./internal/metrics ./internal/trace

# Allocation gate: the per-object hot path must perform zero steady-state
# heap allocations (structure-of-arrays particle storage + arena scratch),
# and so must the server's streaming-ingest decode path (frame -> SoA batch
# with reused scratch and interned tags), the epoch-stage trace recorder
# (timestamps on every epoch of every session) and the latency-histogram
# record path (on every request). The sensing-index probe is gated twice:
# zero allocations, and a deterministic bound on the member ids it reads. A
# runner keeping time-travel history must allocate no more per sealed epoch
# at 2 000 tracked objects than at 200.
alloc-gate:
	$(GO) test -run 'TestStepObjectsZeroAlloc|TestEpochPrologueAllocBound' -v ./internal/factored
	$(GO) test -run 'TestSensingIndexQueryZeroAlloc|TestSensingIndexQueryWorkBound' -v ./internal/spatial
	$(GO) test -run 'TestEpochAllocsIndependentOfWorkers' -v ./internal/core
	$(GO) test -run 'TestStreamDecodeZeroAlloc' -v ./internal/serve
	$(GO) test -run 'TestTraceRecorderZeroAlloc' -v ./internal/trace
	$(GO) test -run 'TestHistogramObserveZeroAlloc' -v ./internal/metrics
	$(GO) test -run 'TestSealAllocsIndependentOfTracked' -v .

# Metric-name lint: every literal metric registration must follow the
# Prometheus conventions the dashboards rely on — snake_case names, counters
# suffixed _total, duration histograms _seconds (size histograms _bytes),
# cumulative duration counters _seconds_total, and never _ms (all exported
# durations are seconds). The docs may name only series the code registers:
# every rfidserve_* name in them (histogram _bucket/_sum/_count suffixes
# stripped) must be a literal registration or the Sprintf-built stage series.
METRIC_DOCS = README.md API.md ARCHITECTURE.md .claude/skills/verify/SKILL.md

metrics-lint:
	@grep -rhoE '\.(Counter|FloatCounter|Gauge|Histogram|counter|gauge|histogram)\("[^"]+"' \
		--include='*.go' --exclude='*_test.go' cmd internal rfid \
	| sort -u | awk -F'"' '{ \
		kind = tolower($$1); gsub(/[.(]/, "", kind); \
		base = $$2; sub(/\{.*/, "", base); \
		if (base !~ /^[a-z][a-z0-9_]*$$/) { print "metrics-lint: " $$2 " is not snake_case"; bad = 1 } \
		if (base ~ /_ms(_|$$)/) { print "metrics-lint: " $$2 " uses _ms (exported durations are seconds)"; bad = 1 } \
		if (kind == "floatcounter" && base !~ /_seconds_total$$/) { print "metrics-lint: FloatCounter " $$2 " must end in _seconds_total"; bad = 1 } \
		if (kind == "counter" && base !~ /_total$$/) { print "metrics-lint: Counter " $$2 " must end in _total"; bad = 1 } \
		if (kind == "histogram" && base !~ /(_seconds|_bytes)$$/) { print "metrics-lint: Histogram " $$2 " must end in _seconds or _bytes"; bad = 1 } \
	} END { exit bad }' \
	&& echo "metrics-lint: all metric names conform"
	@registered="$$(grep -rhoE '(\.(Counter|FloatCounter|Gauge|Histogram|counter|gauge|histogram)\("|Sprintf\(`)rfidserve_[a-z0-9_]+' \
		--include='*.go' --exclude='*_test.go' cmd internal rfid | grep -oE 'rfidserve_[a-z0-9_]+' | sort -u)"; \
	bad=0; for name in $$(grep -ohE 'rfidserve_[a-z0-9_]+' $(METRIC_DOCS) | sed -E 's/_(bucket|sum|count)$$//' | sort -u); do \
		echo "$$registered" | grep -qx "$$name" || { echo "metrics-lint: the docs name $$name, which no code registers"; bad=1; }; \
	done; \
	[ $$bad -eq 0 ] && echo "metrics-lint: every series the docs name is registered"

# Coverage ratchet: fails when total statement coverage drops below the
# recorded threshold. Raise the threshold when coverage improves; never lower
# it to make a PR pass.
COVER_THRESHOLD = 78.0

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/{sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $${total}% (ratchet: $(COVER_THRESHOLD)%)"; \
	awk -v t="$$total" -v th="$(COVER_THRESHOLD)" 'BEGIN{exit (t+0 < th+0) ? 1 : 0}' \
		|| { echo "coverage $${total}% fell below the ratchet $(COVER_THRESHOLD)%"; exit 1; }

# Native fuzz smoke: each target runs briefly so CI catches panics and
# round-trip regressions on the untrusted-input surfaces (CSV trace codecs,
# JSON query specs, registry checkpoints, WAL segments and checkpoint files, wire frames, the SDK's
# snapshot-body decoder) without the cost of a long campaign, and any lane
# where a SIMD sensor kernel body (the weighting, the shifted exp) and its
# scalar reference disagree.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecodeReading$$' -fuzztime=15s -run '^$$' ./internal/stream
	$(GO) test -fuzz='^FuzzDecodeLocation$$' -fuzztime=10s -run '^$$' ./internal/stream
	$(GO) test -fuzz='^FuzzParseSpec$$' -fuzztime=15s -run '^$$' ./internal/query
	$(GO) test -fuzz='^FuzzRegistryRestore$$' -fuzztime=10s -fuzzminimizetime=1s -run '^$$' ./internal/query
	$(GO) test -fuzz='^FuzzWALDecode$$' -fuzztime=15s -run '^$$' ./internal/wal
	$(GO) test -fuzz='^FuzzRecordDecode$$' -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz='^FuzzCheckpointDecode$$' -fuzztime=15s -run '^$$' ./internal/checkpoint
	$(GO) test -fuzz='^FuzzDecoderPrimitives$$' -fuzztime=10s -run '^$$' ./internal/checkpoint
	$(GO) test -fuzz='^FuzzWireFrame$$' -fuzztime=15s -run '^$$' ./rfid/wire
	$(GO) test -fuzz='^FuzzWireBatch$$' -fuzztime=10s -run '^$$' ./rfid/wire
	$(GO) test -fuzz='^FuzzSnapshotDecode$$' -fuzztime=10s -run '^$$' ./rfid/api
	$(GO) test -fuzz='^FuzzAccumLogObs$$' -fuzztime=10s -run '^$$' ./internal/sensor
	$(GO) test -fuzz='^FuzzExpShifted$$' -fuzztime=10s -run '^$$' ./internal/sensor

# Godoc gate: every package (and command) must carry a package doc comment —
# a comment block immediately above its package clause in at least one
# non-test file.
doc-check:
	@fail=0; \
	for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		ok=0; \
		for f in $$dir/*.go; do \
			case $$f in *_test.go) continue;; esac; \
			if awk 'prev ~ /^\/\// && /^package /{found=1} {prev=$$0} END{exit !found}' $$f; then ok=1; break; fi; \
		done; \
		if [ $$ok -eq 0 ]; then echo "doc-check: missing package doc comment in $$dir"; fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "doc-check: all packages documented"

# Serving-layer smoke: the end-to-end HTTP test (ingest -> flush -> snapshot
# -> query results -> metrics) under the race detector.
serve-smoke:
	$(GO) test -race -run 'TestServer' ./internal/serve

# Crash-recovery smoke: a real subprocess kill -9 (start server, ingest,
# SIGKILL, restart, verify byte-identical state) plus the randomized
# crash-recovery equivalence property across crashed x recovered Workers,
# both under the race detector.
recover-smoke:
	$(GO) test -race -run 'TestRecoverSmoke$$|TestCrashRecoveryEquivalence' -v ./internal/serve

# v1 API smoke: the end-to-end multi-session gate under the race detector — a
# real subprocess serves the v1 API, the parent creates two sessions through
# the rfid/client SDK, ingests into both, long-polls results, kill -9s the
# process and verifies both sessions recover from their own subdirectories;
# plus the in-process two-session crash-recovery equivalence property.
api-smoke:
	$(GO) test -race -run 'TestAPISmoke$$|TestMultiSessionCrashRecovery' -v ./internal/serve

# Streaming data-plane smoke: a real subprocess serves the v1 API, the parent
# streams a trace through the SDK's StreamIngester over the persistent binary
# connection, SIGKILLs the child mid-stream, restarts it on the same data
# directory and verifies the ingester's reconnect-and-resume delivers every
# batch exactly once — final state byte-identical to an uninterrupted run.
stream-smoke:
	$(GO) test -race -run 'TestStreamSmoke$$|TestStreamReconnectResume' -v ./internal/serve

# Session-density smoke: a real subprocess serves the v1 API with a resident
# cap far below the session count (-max-resident), the parent churns hundreds
# of durable sessions through the SDK (the LRU evicts and hydrates
# constantly), SIGKILLs the child mid-churn, restarts it on the same data
# directory and verifies every sampled session's state is byte-identical to an
# uncapped, uninterrupted run; plus the scheduler/eviction determinism
# property over a range of engine Workers and the eviction contract:
# durable files byte-identical with and without evictions, kill -9 while
# evicted, stale or damaged spills refused, read-only residencies writing no
# spill, and the world build linear at the create-request caps.
density-smoke:
	$(GO) test -race -run 'TestDensitySmoke$$|TestSchedulerEvictionDeterminism|TestDurableFilesIndependentOfResidency|TestKillWhileEvictedRecovers|TestStaleSpillFallsBackToRecovery|TestUnchangedResidencyWritesNoSpill|TestWorldBuildIsLinear' -v ./internal/serve

# Replication smoke: a primary and a replica run as real subprocesses wired
# over TCP; the parent ingests under -fsync always, waits for the replica to
# converge, SIGKILLs the primary, promotes the replica and verifies the
# promoted node serves snapshots and query results byte-identical to both the
# pre-kill primary and an uninterrupted reference process; plus the in-process
# convergence-across-parallelism, resume-in-place (after a replica restart
# and after a cut link), long-poll-wakes-on-replicated-removal,
# close-releases-replica-files and stop-during-dial properties.
replica-smoke:
	$(GO) test -race -run 'TestReplicaSmoke$$|TestReplicaConvergesAcrossTransposition$$|TestReplicaResumeAfterRestart$$|TestReplicaLongPollWakesOnRemoval$$|TestCloseNowReleasesReplicaFiles$$|TestFollowerStopDuringDial$$' -v ./internal/serve

# Full benchmark run (slow; minutes).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# CI smoke: every benchmark must still compile and complete one iteration.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Alternating A/B pairs of the repository benchmark, PARENT against the
# checkout: `make bench-ab PARENT=HEAD~1 WORKLOAD=batch-warehouse PAIRS=10`
# prints the `benchmark -compare` table of the two sides and, per end-to-end
# metric, the pairs the change won (scripts/bench-ab.sh; needs jq).
PAIRS ?= 10

bench-ab:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab PARENT=<rev> WORKLOAD=<name> [PAIRS=10]"; exit 2; }
	bash scripts/bench-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Profile the hot path: a CPU and heap profile of the worker-scaling
# benchmarks (compression off, and the batch-warehouse shape with it on) and
# the tracked-population-scaling ones (the engine alone, and a runner keeping
# 64 epochs of history), ready for `go tool pprof cpu.prof`.
profile:
	$(GO) test -run='^$$' -bench='^(BenchmarkEngineWorkers|BenchmarkEngineWorkersWarehouse|BenchmarkEngineTrackedScaling|BenchmarkRunnerHistoryScaling)$$' -benchtime=1x -cpuprofile cpu.prof -memprofile mem.prof -o repro.test .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof repro.test cpu.prof"

# Non-test Go lines per top-level package (benchmark/ excluded) and their
# total: the number ROADMAP aim 2 wants to trend down.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); \
		pkg = (n == 2) ? "." : ((p[2] == "internal" || p[2] == "cmd") ? p[2] "/" p[3] : p[2]); \
		loc[pkg] += $$1; total += $$1 } \
	END { for (k in loc) printf "%7d  %s\n", loc[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
