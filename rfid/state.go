package rfid

import (
	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// The Runner's checkpoint codec: driver bookkeeping (watermark, next epoch,
// late-drop counter), the time-travel history (history.go), the
// buffered-but-unsealed epoch accumulators and, through the Pipeline, the
// engine's full inference state. Because the buffered accumulators are
// included, a checkpoint is self-contained — recovery needs no
// write-ahead-log records from before the checkpoint was taken.

const runnerSection = "rfid.Runner"

// Fingerprint returns the stable hash of the runner's engine configuration;
// checkpoints record it and restore verifies it (see Pipeline.Fingerprint).
// It is computed when the engine is built, so asking costs nothing.
func (r *Runner) Fingerprint() uint64 { return r.pipe.Fingerprint() }

// SaveState appends the runner's full state to the encoder. Safe to call
// concurrently with Ingest/Advance (it takes the runner lock), though the
// serving layer checkpoints from the session's pinned worker anyway.
func (r *Runner) SaveState(e *checkpoint.Encoder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Section(runnerSection)
	e.Int(r.next)
	e.Int(r.mark)
	e.Int(r.late)
	e.Bool(r.closed)
	r.hist.save(e)
	r.sync.SaveState(e)
	r.pipe.SaveState(e)
}

// RestoreState rebuilds the runner from a SaveState payload — of the current
// payload version or, through a decoder that reports it (see
// checkpoint.Snapshot.PayloadDecoder), of version 1, whose full per-epoch
// snapshots are folded into change-log chains. The runner must be freshly
// constructed with a Config whose Fingerprint matches the payload producer's
// (the durability layer checks before calling); the runner's own
// HoldEpochs/HistoryEpochs may differ — they are serving policy, not
// inference state. Corrupt input errors, never panics.
func (r *Runner) RestoreState(d *checkpoint.Decoder) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Section(runnerSection)
	next := d.Int()
	mark := d.Int()
	late := d.Int()
	closed := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	hist, err := restoreHistory(d, r.hist.capacity)
	if err != nil {
		return err
	}

	freshSync := stream.NewSynchronizer()
	if err := freshSync.RestoreState(d); err != nil {
		return err
	}
	if err := r.pipe.RestoreState(d); err != nil {
		return err
	}

	r.next = next
	r.mark = mark
	r.late = late
	r.closed = closed
	r.hist = hist
	r.sync = freshSync
	return nil
}
