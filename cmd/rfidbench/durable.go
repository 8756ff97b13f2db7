package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/rfid"
)

// durableResult summarizes the durability-overhead benchmark: the same
// streamed ingest driven through a Runner twice, once in-memory only and once
// with write-ahead logging + periodic checkpoints, so the cost of crash
// safety is visible as a single ratio.
type durableResult struct {
	Epochs          int           `json:"epochs"`
	PlainTime       time.Duration `json:"-"`
	DurableTime     time.Duration `json:"-"`
	PlainMs         float64       `json:"plain_ms"`
	DurableMs       float64       `json:"durable_ms"`
	OverheadPct     float64       `json:"overhead_pct"`
	WALBytes        int64         `json:"wal_bytes"`
	WALRecords      int64         `json:"wal_records"`
	Fsyncs          int64         `json:"fsyncs"`
	Checkpoints     int           `json:"checkpoints"`
	CheckpointBytes int           `json:"checkpoint_bytes"`
	EventsIdentical bool          `json:"events_identical"`
}

// runDurableBench ingests a generated trace epoch by epoch through two
// Runners — one plain, one with durability (WAL append per batch + a
// checkpoint every ckptEvery epochs) — and verifies the durable run's output
// is identical.
func runDurableBench(objects, workers int, seed int64, fsync wal.SyncPolicy, ckptEvery int) (durableResult, error) {
	cfg := sim.DefaultWarehouseConfig()
	cfg.NumObjects = objects
	cfg.NumShelfTags = 4
	cfg.Seed = seed
	trace, err := sim.GenerateWarehouse(cfg)
	if err != nil {
		return durableResult{}, fmt.Errorf("generate warehouse: %w", err)
	}
	engCfg := core.DefaultConfig(model.DefaultParams(), trace.World)
	engCfg.NumObjectParticles = 150
	engCfg.NumReaderParticles = 50
	engCfg.Workers = workers
	engCfg.Seed = seed

	readings, locations := sim.RawStreams(trace)
	rByT := make(map[int][]rfid.Reading)
	lByT := make(map[int][]rfid.LocationReport)
	maxT := 0
	for _, r := range readings {
		rByT[r.Time] = append(rByT[r.Time], r)
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	for _, l := range locations {
		lByT[l.Time] = append(lByT[l.Time], l)
		if l.Time > maxT {
			maxT = l.Time
		}
	}

	drive := func(r *rfid.Runner, perEpoch func(t int) error) ([]rfid.Event, error) {
		var all []rfid.Event
		for t := 0; t <= maxT; t++ {
			if perEpoch != nil {
				if err := perEpoch(t); err != nil {
					return nil, err
				}
			}
			r.Ingest(rByT[t], lByT[t])
			ev, err := r.Advance()
			if err != nil {
				return nil, err
			}
			all = append(all, ev...)
		}
		return all, nil
	}

	res := durableResult{Epochs: maxT + 1}

	plain, err := rfid.NewRunner(engCfg, rfid.RunnerConfig{})
	if err != nil {
		return res, err
	}
	start := time.Now()
	plainEvents, err := drive(plain, nil)
	if err != nil {
		return res, err
	}
	res.PlainTime = time.Since(start)

	dir, err := os.MkdirTemp("", "rfidbench-wal-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.Options{Sync: fsync})
	if err != nil {
		return res, err
	}
	durable, err := rfid.NewRunner(engCfg, rfid.RunnerConfig{})
	if err != nil {
		return res, err
	}
	sinceCkpt := 0
	start = time.Now()
	durableEvents, err := drive(durable, func(t int) error {
		if err := lg.Append(wal.Record{Type: wal.RecBatch, Readings: rByT[t], Locations: lByT[t]}); err != nil {
			return err
		}
		sinceCkpt++
		if sinceCkpt >= ckptEvery {
			sinceCkpt = 0
			seg, err := lg.Rotate()
			if err != nil {
				return err
			}
			enc := checkpoint.NewEncoder()
			durable.SaveState(enc)
			snap := checkpoint.Snapshot{
				Version:     checkpoint.Version,
				Fingerprint: durable.Fingerprint(),
				Epoch:       t,
				WALSegment:  seg,
				Payload:     enc.Bytes(),
			}
			if _, err := checkpoint.Write(dir, snap); err != nil {
				return err
			}
			res.Checkpoints++
			res.CheckpointBytes = len(snap.Payload)
			return lg.RemoveSegmentsBefore(seg)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.DurableTime = time.Since(start)
	if err := lg.Close(); err != nil {
		return res, err
	}

	st := lg.Stats()
	res.WALBytes = st.AppendedBytes
	res.WALRecords = st.AppendedRecords
	res.Fsyncs = st.Fsyncs
	res.PlainMs = float64(res.PlainTime.Milliseconds())
	res.DurableMs = float64(res.DurableTime.Milliseconds())
	if res.PlainTime > 0 {
		res.OverheadPct = 100 * (res.DurableTime.Seconds() - res.PlainTime.Seconds()) / res.PlainTime.Seconds()
	}
	res.EventsIdentical = len(plainEvents) == len(durableEvents)
	if res.EventsIdentical {
		for i := range plainEvents {
			if plainEvents[i] != durableEvents[i] {
				res.EventsIdentical = false
				break
			}
		}
	}
	return res, nil
}

func printDurableResult(r durableResult) {
	fmt.Printf("durability overhead benchmark (%d epochs)\n", r.Epochs)
	fmt.Printf("  plain    %8.0f ms\n", r.PlainMs)
	fmt.Printf("  durable  %8.0f ms  (%+.1f%%)\n", r.DurableMs, r.OverheadPct)
	fmt.Printf("  wal      %d records, %d bytes, %d fsyncs\n", r.WALRecords, r.WALBytes, r.Fsyncs)
	fmt.Printf("  ckpt     %d written, last payload %d bytes\n", r.Checkpoints, r.CheckpointBytes)
	fmt.Printf("  events identical: %v\n", r.EventsIdentical)
}
