package rfid

import (
	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// The Runner's checkpoint codec: driver bookkeeping (watermark, next epoch,
// late-drop counter), the buffered-but-unsealed epoch accumulators, the
// time-travel history ring and, through the Pipeline, the engine's full
// inference state. Because the buffered accumulators are included, a
// checkpoint is self-contained — recovery needs no write-ahead-log records
// from before the checkpoint was taken.

const runnerSection = "rfid.Runner"

// Fingerprint returns the stable hash of the runner's engine configuration;
// checkpoints record it and restore verifies it (see Pipeline.Fingerprint).
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

	live := r.liveHistory()
	e.Uvarint(uint64(len(live)))
	for _, snap := range live {
		e.Int(snap.epoch)
		e.Uvarint(uint64(len(snap.events)))
		for _, ev := range snap.events {
			e.Int(ev.Time)
			e.String(string(ev.Tag))
			e.Vec3(ev.Loc)
			e.Vec3(ev.Stats.Variance)
			e.Int(ev.Stats.NumParticles)
			e.Bool(ev.Stats.Compressed)
		}
	}

	r.sync.SaveState(e)
	r.pipe.SaveState(e)
}

// RestoreState rebuilds the runner from a SaveState payload. The runner must
// be freshly constructed with a Config whose Fingerprint matches the payload
// producer's (the durability layer checks before calling); the runner's own
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

	n := d.SliceLen(1)
	history := make([]epochSnapshot, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		snap := epochSnapshot{epoch: d.Int()}
		m := d.SliceLen(8)
		snap.events = make([]Event, 0, m)
		for j := 0; j < m && d.Err() == nil; j++ {
			ev := Event{
				Time: d.Int(),
				Tag:  stream.TagID(d.String()),
				Loc:  d.Vec3(),
			}
			ev.Stats.Variance = d.Vec3()
			ev.Stats.NumParticles = d.Int()
			ev.Stats.Compressed = d.Bool()
			snap.events = append(snap.events, ev)
		}
		history = append(history, snap)
	}

	freshSync := stream.NewSynchronizer()
	if err := d.Err(); err != nil {
		return err
	}
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
	r.history = history
	r.histStart = 0
	// A restoring runner may retain fewer epochs than the checkpoint's
	// producer; evict down to its own cap.
	if r.histCap <= 0 {
		r.history = nil
	} else if over := len(r.history) - r.histCap; over > 0 {
		r.history = append([]epochSnapshot(nil), r.history[over:]...)
	}
	r.sync = freshSync
	return nil
}
