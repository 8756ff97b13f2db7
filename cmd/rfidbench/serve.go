package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/rfid/api"
	"repro/rfid/client"
)

// The serving-path benchmark: drive the v1 surface the way a fleet of
// per-site readers would, and measure latency and throughput as the session
// count grows. Two data planes are covered:
//
//   - mode "http": one JSON POST per batch plus a long-polled result read.
//     Latency is ingest->result — POST until the epoch's first
//     continuous-query row is observable.
//   - mode "stream": the persistent binary stream (rfid/wire frames through
//     client.StreamIngester), self-clocked to the credit window. Latency is
//     send->ack — the batch is sealed until its cumulative ack arrives,
//     meaning the engine has applied it.
//
// Each -batch/-particles pair is one workload; the classic control-heavy
// shape (few objects, many particles) is engine-bound, while a read-dense
// shape (many objects, few particles) exposes the wire path itself.

// serveWorkload is one -batch/-particles combination.
type serveWorkload struct {
	objectsPerBatch int
	particles       int
}

// serveBenchResult is one (mode, workload, session-count) configuration's
// outcome.
type serveBenchResult struct {
	Mode            string  `json:"mode"`
	Sessions        int     `json:"sessions"`
	ObjectsPerBatch int     `json:"objects_per_batch"`
	ObjectParticles int     `json:"object_particles"`
	EpochsPerSess   int     `json:"epochs_per_session"`
	ReadingsPerSess int     `json:"readings_per_session"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	BatchesPerSec   float64 `json:"batches_per_sec"`
	ReadingsPerSec  float64 `json:"readings_per_sec"`
	// Latency per batch: ingest->result for mode http, send->ack for mode
	// stream, ingest round-trip (durable apply, including any first-touch
	// hydration) for mode density.
	// Quantiles are interpolated from the same fixed-bucket histogram the
	// server's /metrics families use, so bench numbers and scrape numbers are
	// directly comparable.
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	// EpochStageSeconds is the server's cumulative per-stage epoch breakdown
	// over the run (summed across sessions), keyed by stage name.
	EpochStageSeconds map[string]float64 `json:"epoch_stage_seconds,omitempty"`
	// Density rows only: the resident-session cap the run was driven under,
	// and the rate at which evicted sessions were restored on first touch.
	MaxResident      int     `json:"max_resident,omitempty"`
	HydrationsPerSec float64 `json:"hydrations_per_sec,omitempty"`
}

// serveBenchReport is the BENCH_serve.json schema.
type serveBenchReport struct {
	Epochs  int                `json:"epochs"`
	Seed    int64              `json:"seed"`
	Results []serveBenchResult `json:"results"`
}

// runServeBench runs every (workload, session count, mode) combination.
func runServeBench(sessionCounts []int, epochs int, workloads []serveWorkload, stream bool, seed int64) (serveBenchReport, error) {
	rep := serveBenchReport{Epochs: epochs, Seed: seed}
	modes := []string{"http"}
	if stream {
		modes = append(modes, "stream")
	}
	for _, wl := range workloads {
		for _, mode := range modes {
			for _, n := range sessionCounts {
				res, err := runServeBenchOne(mode, n, epochs, wl, seed)
				if err != nil {
					return rep, fmt.Errorf("%s, %d sessions, %d objs/batch: %w", mode, n, wl.objectsPerBatch, err)
				}
				rep.Results = append(rep.Results, res)
			}
		}
	}
	return rep, nil
}

// runServeBenchOne starts one in-process server, creates n sessions and
// drives them concurrently over real loopback HTTP.
func runServeBenchOne(mode string, n, epochs int, wl serveWorkload, seed int64) (serveBenchResult, error) {
	srv, err := serve.New(serve.Config{MaxSessions: n, TraceEpochs: 64})
	if err != nil {
		return serveBenchResult{}, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL)
	sessions := make([]*client.Session, n)
	for i := range sessions {
		created, err := c.CreateSession(ctx, api.CreateSessionRequest{
			Source: api.SourceSynthetic,
			Engine: &api.EngineConfig{ObjectParticles: wl.particles, Seed: seed + int64(i)},
		})
		if err != nil {
			return serveBenchResult{}, err
		}
		sessions[i] = c.Session(created.ID)
	}

	var (
		mu       sync.Mutex
		hist     metrics.Histogram
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Observe is lock-free, so concurrent drivers record without contending.
	record := func(ms float64) { hist.Observe(ms / 1e3) }

	start := time.Now()
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *client.Session) {
			defer wg.Done()
			var err error
			if mode == "stream" {
				err = driveStreamSession(sess, epochs, wl, record)
			} else {
				err = driveHTTPSession(ctx, sess, epochs, wl, record)
			}
			if err != nil {
				fail(fmt.Errorf("session %d: %w", i, err))
			}
		}(i, sess)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return serveBenchResult{}, firstErr
	}

	stages, err := stageSeconds(ts.URL)
	if err != nil {
		return serveBenchResult{}, err
	}
	snap := hist.Snapshot()
	totalBatches := float64(n * epochs)
	totalReadings := float64(n * epochs * wl.objectsPerBatch)
	return serveBenchResult{
		Mode:              mode,
		Sessions:          n,
		ObjectsPerBatch:   wl.objectsPerBatch,
		ObjectParticles:   wl.particles,
		EpochsPerSess:     epochs,
		ReadingsPerSess:   epochs * wl.objectsPerBatch,
		ElapsedMS:         elapsed.Seconds() * 1e3,
		BatchesPerSec:     totalBatches / elapsed.Seconds(),
		ReadingsPerSec:    totalReadings / elapsed.Seconds(),
		LatencyMeanMS:     snap.Mean() * 1e3,
		LatencyP50MS:      snap.Quantile(0.50) * 1e3,
		LatencyP95MS:      snap.Quantile(0.95) * 1e3,
		LatencyP99MS:      snap.Quantile(0.99) * 1e3,
		EpochStageSeconds: stages,
	}, nil
}

// driveHTTPSession is the classic data plane: one JSON POST per epoch batch,
// then a long-poll until that epoch's continuous-query rows land.
func driveHTTPSession(ctx context.Context, sess *client.Session, epochs int, wl serveWorkload, record func(float64)) error {
	// MinChange -1 disables update suppression entirely: MinChange 0 still
	// swallows epochs whose estimates froze exactly in place (converged
	// particles snap to a fixed point), and the latency loop below needs a row
	// per epoch to measure against.
	info, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates, MinChange: -1})
	if err != nil {
		return err
	}
	after := -1
	for ep := 0; ep < epochs; ep++ {
		batch := api.IngestRequest{
			Locations: []api.LocationReport{{Time: ep, X: 1 + 0.05*float64(ep), Y: 2, Z: 3}},
		}
		for o := 0; o < wl.objectsPerBatch; o++ {
			batch.Readings = append(batch.Readings, api.Reading{
				Time: ep, Tag: fmt.Sprintf("obj-%d", o),
			})
		}
		t0 := time.Now()
		if _, err := sess.Ingest(ctx, batch); err != nil {
			return fmt.Errorf("ingest epoch %d: %w", ep, err)
		}
		// Long-poll until this epoch's rows land (hold=0: every ingest seals
		// its epoch). An empty page is a wait timeout, not a latency
		// observation — retry rather than record it, or the percentiles would
		// mix poll-timeout artifacts with real ingest->result latency (and
		// misattribute the late rows to the next epoch's sample). The retry
		// count is bounded so a starved query fails the run loudly instead of
		// hanging it.
		for attempt := 0; ; attempt++ {
			if attempt == 3 {
				return fmt.Errorf("epoch %d produced no query rows after %d long polls", ep, attempt)
			}
			page, err := sess.PollResults(ctx, info.ID, client.PollOptions{After: after, Wait: 10 * time.Second})
			if err != nil {
				return fmt.Errorf("poll epoch %d: %w", ep, err)
			}
			if len(page.Results) == 0 {
				continue
			}
			record(time.Since(t0).Seconds() * 1e3)
			after = page.Results[len(page.Results)-1].Seq
			break
		}
	}
	return nil
}

// streamBenchWindow bounds how many sealed batches a stream driver keeps in
// flight: deep enough to keep the pipeline full, shallow enough that the
// recorded send->ack latency reflects the wire and engine rather than
// self-inflicted queueing.
const streamBenchWindow = 2

// driveStreamSession is the binary data plane: one StreamIngester per
// session, one sealed frame per epoch, self-clocked so at most
// streamBenchWindow batches are outstanding. Sequence numbers on a fresh
// session start at 1 and map 1:1 onto epoch order, which is what lets the
// cumulative acks be matched back to seal times.
func driveStreamSession(sess *client.Session, epochs int, wl serveWorkload, record func(float64)) error {
	var (
		mu    sync.Mutex
		seal  = make([]time.Time, epochs+1) // indexed by seq
		acked uint64
	)
	slots := make(chan struct{}, streamBenchWindow)
	ing := sess.Stream(client.StreamOptions{
		// Each epoch's location + readings exactly fill one batch.
		BatchSize:     wl.objectsPerBatch + 1,
		FlushInterval: time.Hour,
		OnAck: func(a api.StreamAck) {
			now := time.Now()
			mu.Lock()
			for s := acked + 1; s <= a.UpTo; s++ {
				if s < uint64(len(seal)) && !seal[s].IsZero() {
					record(now.Sub(seal[s]).Seconds() * 1e3)
				}
				select {
				case <-slots:
				default:
				}
			}
			if a.UpTo > acked {
				acked = a.UpTo
			}
			mu.Unlock()
		},
	})
	for ep := 0; ep < epochs; ep++ {
		slots <- struct{}{}
		mu.Lock()
		seal[ep+1] = time.Now()
		mu.Unlock()
		if err := ing.AddLocation(api.LocationReport{Time: ep, X: 1 + 0.05*float64(ep), Y: 2, Z: 3}); err != nil {
			return fmt.Errorf("stream epoch %d: %w", ep, err)
		}
		for o := 0; o < wl.objectsPerBatch; o++ {
			if err := ing.AddReading(ep, fmt.Sprintf("obj-%d", o)); err != nil {
				return fmt.Errorf("stream epoch %d: %w", ep, err)
			}
		}
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := ing.Close(closeCtx); err != nil {
		return fmt.Errorf("stream close: %w", err)
	}
	return nil
}

// The density benchmark: how the serving layer scales with the NUMBER of
// sessions rather than the work per session. Sessions are durable and far
// outnumber the resident cap, so the shared scheduler and the LRU
// evict/hydrate machinery carry the load; the per-session workload is fixed
// and deliberately light (the axis under test is session count). Ingest
// round-trips are synchronous on durable sessions, so the recorded latency
// includes WAL append and — on a session's first touch after eviction — the
// full hydration (engine rebuild + checkpoint recovery).
const (
	densityObjsPerBatch = 8
	densityParticles    = 25
	densityLanes        = 32 // concurrent drivers; sessions partitioned by index
)

// runDensityBench runs one density row per session count.
func runDensityBench(sessionCounts []int, epochs, maxResident int, seed int64) ([]serveBenchResult, error) {
	var out []serveBenchResult
	for _, n := range sessionCounts {
		res, err := runDensityBenchOne(n, epochs, maxResident, seed)
		if err != nil {
			return nil, fmt.Errorf("density, %d sessions: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runDensityBenchOne boots a durable in-process server capped at maxResident
// resident sessions, creates n durable sessions and drives them all
// concurrently, epoch by epoch.
func runDensityBenchOne(n, epochs, maxResident int, seed int64) (serveBenchResult, error) {
	dataDir, err := os.MkdirTemp("", "rfidbench-density-")
	if err != nil {
		return serveBenchResult{}, err
	}
	defer os.RemoveAll(dataDir)
	srv, err := serve.New(serve.Config{
		DataDir:         dataDir,
		CheckpointEvery: 16,
		Fsync:           wal.SyncNever, // measuring density scaling, not fsync
		MaxSessions:     n,
		MaxResident:     maxResident,
		TraceEpochs:     64,
	})
	if err != nil {
		return serveBenchResult{}, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL)
	sessions := make([]*client.Session, n)
	for i := range sessions {
		created, err := c.CreateSession(ctx, api.CreateSessionRequest{
			Source: api.SourceSynthetic,
			Engine: &api.EngineConfig{
				ObjectParticles: densityParticles, Seed: seed + int64(i), Workers: 1,
			},
		})
		if err != nil {
			return serveBenchResult{}, err
		}
		sessions[i] = c.Session(created.ID)
	}
	hydrationsBefore, err := metricValue(ts.URL, "rfidserve_hydrations_total")
	if err != nil {
		return serveBenchResult{}, err
	}

	var (
		mu       sync.Mutex
		hist     metrics.Histogram
		firstErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < densityLanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for ep := 0; ep < epochs; ep++ {
				for i := lane; i < n; i += densityLanes {
					batch := api.IngestRequest{
						Locations: []api.LocationReport{{Time: ep, X: 1 + 0.05*float64(ep), Y: 2, Z: 3}},
					}
					for o := 0; o < densityObjsPerBatch; o++ {
						batch.Readings = append(batch.Readings, api.Reading{Time: ep, Tag: fmt.Sprintf("obj-%d", o)})
					}
					t0 := time.Now()
					_, err := sessions[i].Ingest(ctx, batch)
					hist.ObserveDuration(time.Since(t0))
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("session %d epoch %d: %w", i, ep, err)
						}
						mu.Unlock()
						return
					}
				}
			}
		}(lane)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return serveBenchResult{}, firstErr
	}
	hydrationsAfter, err := metricValue(ts.URL, "rfidserve_hydrations_total")
	if err != nil {
		return serveBenchResult{}, err
	}
	stages, err := stageSeconds(ts.URL)
	if err != nil {
		return serveBenchResult{}, err
	}

	snap := hist.Snapshot()
	return serveBenchResult{
		Mode:              "density",
		Sessions:          n,
		ObjectsPerBatch:   densityObjsPerBatch,
		ObjectParticles:   densityParticles,
		EpochsPerSess:     epochs,
		ReadingsPerSess:   epochs * densityObjsPerBatch,
		ElapsedMS:         elapsed.Seconds() * 1e3,
		BatchesPerSec:     float64(n*epochs) / elapsed.Seconds(),
		ReadingsPerSec:    float64(n*epochs*densityObjsPerBatch) / elapsed.Seconds(),
		LatencyMeanMS:     snap.Mean() * 1e3,
		LatencyP50MS:      snap.Quantile(0.50) * 1e3,
		LatencyP95MS:      snap.Quantile(0.95) * 1e3,
		LatencyP99MS:      snap.Quantile(0.99) * 1e3,
		EpochStageSeconds: stages,
		MaxResident:       maxResident,
		HydrationsPerSec:  (hydrationsAfter - hydrationsBefore) / elapsed.Seconds(),
	}, nil
}

// stageSeconds reads the server's cumulative per-stage epoch breakdown from
// the JSON metrics endpoint, summed across sessions and keyed by stage name.
func stageSeconds(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/v1/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	const prefix = `rfidserve_epoch_stage_seconds_total{stage="`
	out := make(map[string]float64)
	for series, v := range m {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		stage, _, ok := strings.Cut(rest, `"`)
		if !ok || v == 0 {
			continue
		}
		out[stage] += v
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// metricValue reads one metric from the server's JSON metrics endpoint.
func metricValue(base, name string) (float64, error) {
	resp, err := http.Get(base + "/v1/metrics?format=json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("decode metrics: %w", err)
	}
	return m[name], nil
}

// printServeReport renders the benchmark for the terminal.
func printServeReport(rep serveBenchReport) {
	fmt.Printf("serving-path benchmark: %d epochs/session\n", rep.Epochs)
	fmt.Printf("%-8s %-10s %6s %10s %12s %14s %12s %10s %10s %10s\n",
		"mode", "sessions", "objs", "particles", "elapsed", "readings/s", "batches/s", "lat p50", "lat p95", "lat p99")
	for _, r := range rep.Results {
		fmt.Printf("%-8s %-10d %6d %10d %10.1fms %14.0f %12.1f %8.2fms %8.2fms %8.2fms",
			r.Mode, r.Sessions, r.ObjectsPerBatch, r.ObjectParticles, r.ElapsedMS, r.ReadingsPerSec, r.BatchesPerSec,
			r.LatencyP50MS, r.LatencyP95MS, r.LatencyP99MS)
		if r.Mode == "density" {
			fmt.Printf("  cap=%d hydrations/s=%.1f", r.MaxResident, r.HydrationsPerSec)
		}
		fmt.Println()
	}
}

// writeServeReportJSON persists the benchmark snapshot (BENCH_serve.json).
func writeServeReportJSON(rep serveBenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
