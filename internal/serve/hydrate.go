package serve

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Lazy hydration: with Config.MaxResident set, idle durable sessions past the
// LRU threshold are evicted, and their first touch (ingest, stream attach,
// snapshot or query poll) hydrates them. The moves between serving, evicted
// and recovering are rows of lifeTable (lifecycle.go).
//
// Eviction is a spill, not a durability event. The WAL is closed (which
// fsyncs it, as every Close does) and the session image — runner, registry
// and stream resume point, in the checkpoint codec — is written to one
// unsynced file, spillName, that supersedes nothing; no seal (eviction must
// not change what the session would have computed), no checkpoint, no new
// segment. Durable state therefore does not depend on residency: it is the
// periodic checkpoint plus the WAL, byte for byte what a never-evicted
// session has on disk, and after a crash or a restart an evicted session
// replays at most CheckpointEvery epochs of it on first touch.
//
// Hydration trusts the spill only when this process wrote it: the session
// keeps the (segment, size) its log was closed at, and the spill must pass the
// checkpoint CRC, carry the running fingerprint, and find that segment still
// the newest and still that long. Then the image is restored and the same
// segment is reopened for appends (wal.Resume) — the WAL continues exactly as
// if the session had never left memory. Anything else (a session that booted
// evicted, a stale or damaged spill) takes the boot path: a fresh engine,
// newest checkpoint + WAL replay, a new segment. Both paths are byte-exact,
// so an evict→hydrate→continue run is indistinguishable from a never-evicted
// one. A session that appended nothing since it was hydrated from its spill
// still matches that spill, so its next eviction only closes the log.

// spillName is the session image an eviction writes into the session's
// directory. Only the process that wrote it reads it (see spillToken); boot
// never does.
const spillName = "evicted.spill"

// spillToken is where a session's log stood when its spill was written: the
// segment and its byte length. The zero token means there is no spill this
// process may trust.
type spillToken struct {
	seg  uint64
	size int64
}

// errNoSpill reports a hydration with no spill to restore.
var errNoSpill = errors.New("no eviction spill written by this process")

// residency tracks the resident set of hydratable sessions in LRU order and
// owns the server-level eviction/hydration metrics.
type residency struct {
	mu    sync.Mutex
	max   int        // resident cap (0 = unlimited: track, never evict)
	order *list.List // front = most recently used resident session
	elems map[*session]*list.Element

	evictedCount int

	resident    *metrics.Gauge
	evictedG    *metrics.Gauge
	evictions   *metrics.Counter
	hydrations  *metrics.Counter
	hydrateHist *metrics.Histogram
}

func newResidency(max int, set *metrics.Set) *residency {
	return &residency{
		max:         max,
		order:       list.New(),
		elems:       make(map[*session]*list.Element),
		resident:    set.Gauge("rfidserve_resident_sessions", "hydratable sessions with their engine resident in memory"),
		evictedG:    set.Gauge("rfidserve_evicted_sessions", "sessions spilled to disk by eviction, awaiting first touch"),
		evictions:   set.Counter("rfidserve_evictions_total", "sessions evicted to disk by the resident-set LRU"),
		hydrations:  set.Counter("rfidserve_hydrations_total", "evicted sessions restored on first touch"),
		hydrateHist: set.Histogram("rfidserve_hydration_seconds", "hydration latency (engine build + eviction spill restore + WAL segment resume, or + checkpoint restore + WAL replay when the spill is unusable)"),
	}
}

func (rs *residency) gaugesLocked() {
	rs.resident.Set(float64(rs.order.Len()))
	rs.evictedG.Set(float64(rs.evictedCount))
}

// residentCount returns the number of resident hydratable sessions (used by
// boot restore to decide when to stop hydrating eagerly).
func (rs *residency) residentCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.order.Len()
}

// touch marks a session most-recently-used and, when the resident set is over
// its cap, requests eviction of the least-recently-used evictable sessions.
// Called from the pinned worker after a dispatch and from direct read paths
// (snapshot, results), so read-hot sessions stay resident. Only durable
// primaries are tracked: eviction spills into the session's directory and
// hydration recovers from its WAL, and a replica must keep its apply cursor
// live.
func (rs *residency) touch(s *session) {
	if !s.durable() || s.life.load().replica() {
		return
	}
	rs.mu.Lock()
	if s.eng.Load() == nil {
		// Lost a race with eviction: the toucher read the engine pointer
		// before handleEvictOp nilled it, but noteEvicted already ran (it
		// holds this lock, and the pointer drops first). Re-adding the entry
		// would leave a permanently unevictable ghost in the resident list.
		if el, ok := rs.elems[s]; ok {
			rs.order.Remove(el)
			delete(rs.elems, s)
			rs.gaugesLocked()
		}
		rs.mu.Unlock()
		return
	}
	if el, ok := rs.elems[s]; ok {
		rs.order.MoveToFront(el)
	} else {
		rs.elems[s] = rs.order.PushFront(s)
	}
	var victims []*session
	if rs.max > 0 {
		over := rs.order.Len() - rs.max
		for el := rs.order.Back(); el != nil && len(victims) < over; el = el.Prev() {
			v := el.Value.(*session)
			if v == s || v.life.load().closing() || v.stream.Load() != nil {
				continue // hot, closing, or kept resident by a live stream
			}
			if !v.evictPending.CompareAndSwap(false, true) {
				continue // an eviction request is already in flight
			}
			victims = append(victims, v)
		}
	}
	rs.gaugesLocked()
	rs.mu.Unlock()
	for _, v := range victims {
		v.requestEvict()
	}
}

// noteEvicted records a completed eviction (pinned worker only).
func (rs *residency) noteEvicted(s *session) {
	rs.mu.Lock()
	if el, ok := rs.elems[s]; ok {
		rs.order.Remove(el)
		delete(rs.elems, s)
	}
	rs.evictedCount++
	rs.evictions.Inc()
	rs.gaugesLocked()
	rs.mu.Unlock()
}

// noteHydrated records a completed hydration (pinned worker only).
func (rs *residency) noteHydrated(s *session, d time.Duration) {
	rs.mu.Lock()
	if rs.evictedCount > 0 {
		rs.evictedCount--
	}
	if _, ok := rs.elems[s]; !ok {
		rs.elems[s] = rs.order.PushFront(s)
	}
	rs.hydrations.Inc()
	rs.hydrateHist.ObserveDuration(d)
	rs.gaugesLocked()
	rs.mu.Unlock()
}

// addEvicted accounts for a session that boots in the evicted state (lazy
// restore past the resident cap).
func (rs *residency) addEvicted() {
	rs.mu.Lock()
	rs.evictedCount++
	rs.gaugesLocked()
	rs.mu.Unlock()
}

// drop forgets a closed/deleted session entirely.
func (rs *residency) drop(s *session, wasEvicted bool) {
	rs.mu.Lock()
	if el, ok := rs.elems[s]; ok {
		rs.order.Remove(el)
		delete(rs.elems, s)
	} else if wasEvicted && rs.evictedCount > 0 {
		rs.evictedCount--
	}
	rs.gaugesLocked()
	rs.mu.Unlock()
}

// requestEvict enqueues a best-effort eviction op. A full queue means the
// session is plainly busy — clear the reservation and let a later touch
// retry.
func (s *session) requestEvict() {
	select {
	case s.ops <- op{kind: opEvict}:
		s.sched.wake(s)
	default:
		s.evictPending.Store(false)
	}
}

// handleEvictOp evicts the session to disk (pinned worker only): close the
// WAL, spill the session image, release the engine and registry. No seal —
// the graceful shutdown seals because the run is over; eviction must leave
// the buffered epochs exactly as a live session would hold them, or the
// hydrated continuation would diverge from a never-evicted run.
func (s *session) handleEvictOp() opResult {
	defer s.evictPending.Store(false)
	cur := s.life.load()
	if !s.durable() || cur.closing() || lifeTable[[2]life{cur, cur.in(phaseEvicted)}] == "" {
		return opResult{}
	}
	if len(s.ops) > 0 || s.stream.Load() != nil {
		// Work (or a live stream) arrived behind the evict request: the
		// session is not idle after all; evicting would just thrash.
		return opResult{}
	}
	at := spillToken{seg: s.wal.Segment(), size: s.wal.Size()}
	s.syncWALMetrics()
	if err := s.wal.Close(); err != nil {
		// The segment may not hold what was appended: hydration must recover
		// from what the disk does hold, not resume past it.
		s.log.Error("closing wal at eviction failed", "err", err)
		s.spill = spillToken{}
	} else if at != s.spill {
		// Unless the log still stands where the current spill was written —
		// nothing was appended since it was restored — spill again.
		s.spill = spillToken{}
		if err := s.writeSpill(at.seg); err != nil {
			s.log.Warn("writing the eviction spill failed; hydration will recover from checkpoint and WAL", "err", err)
		} else {
			s.spill = at
		}
	}
	s.wal = nil
	// A fresh wal.Log counts appends from zero; reset the delta mirror so the
	// post-hydration counters stay monotone.
	s.lastWal = wal.Stats{}
	st := s.eng.Load().Stats()
	s.lastStats.Store(&cachedStats{st: st, queries: s.reg.Load().Count()})
	// The phase flips before the pointers drop so a concurrent reader that
	// loads a non-nil engine is always reading consistent pre-evict state.
	s.transition(cur, cur.in(phaseEvicted), nil)
	s.eng.Store(nil)
	s.reg.Store(nil)
	s.res.noteEvicted(s)
	return opResult{}
}

// writeSpill writes the session image whose log was closed in segment seg to
// spillName. The file is not synced: only this process reads it, and a crash
// discards it with the token. Pinned worker only.
func (s *session) writeSpill(seg uint64) error {
	data := checkpoint.Encode(s.image(max(s.eng.Load().Position().NextEpoch-1, 0), seg))
	return os.WriteFile(filepath.Join(s.cfg.DataDir, spillName), data, 0o644)
}

// hydrate restores an evicted session (pinned worker only): from the spill
// its eviction wrote, resuming the WAL segment that eviction closed, or else
// through the exact startup recovery path — newest checkpoint plus WAL
// replay — into a fresh engine. Either engine is built from the manifest
// (identical fingerprint by construction, the same world and config boot
// restore uses).
func (s *session) hydrate() error {
	start := time.Now()
	evicted := s.life.load().in(phaseEvicted)
	recovering := evicted.in(phaseRecovering)
	s.transition(evicted, recovering, nil)
	lg, err := s.restoreSpill()
	if err != nil {
		if s.spill != (spillToken{}) {
			s.log.Warn("eviction spill not usable; recovering from checkpoint and WAL", "err", err)
			s.spill = spillToken{}
		}
		lg, err = s.recoverEvicted()
	}
	if err != nil {
		err = fmt.Errorf("serve: session %q hydration failed: %w", s.id, err)
		s.transition(recovering, recovering.in(phaseServing), err)
		return err
	}
	s.wal = lg
	s.lastWal = wal.Stats{}
	s.transition(recovering, recovering.in(phaseServing), nil)
	d := time.Since(start)
	s.res.noteHydrated(s, d)
	if d >= slowHydration {
		s.log.Warn("slow hydration", "took", d,
			"replayed_records", s.replayedRecords.Value())
	}
	return nil
}

// restoreSpill makes the spill this process wrote at the session's eviction
// resident again and reopens the WAL where that eviction closed it. Any
// mismatch is an error, after which the caller recovers from scratch (a
// half-restored engine is discarded). Pinned worker only.
func (s *session) restoreSpill() (*wal.Log, error) {
	at := s.spill
	if at == (spillToken{}) {
		return nil, errNoSpill
	}
	path := filepath.Join(s.cfg.DataDir, spillName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if snap.WALSegment != at.seg {
		return nil, fmt.Errorf("%s names wal segment %d, the eviction closed segment %d", path, snap.WALSegment, at.seg)
	}
	runner, err := s.newRunner()
	if err != nil {
		return nil, err
	}
	s.install(runner)
	if err := s.restoreImage(runner, s.reg.Load(), snap, path); err != nil {
		return nil, err
	}
	return wal.Resume(s.cfg.DataDir, at.seg, at.size, s.walOptions())
}

// recoverEvicted is the boot path for an evicted session: a fresh engine,
// the newest checkpoint plus WAL replay, and a new WAL segment. Pinned worker
// only.
func (s *session) recoverEvicted() (*wal.Log, error) {
	runner, err := s.newRunner()
	if err != nil {
		return nil, err
	}
	s.install(runner)
	if err := s.recoverLocked(); err != nil {
		return nil, err
	}
	return wal.Open(s.cfg.DataDir, s.walOptions())
}

// resident returns the session's engine or registry p points at, for a direct
// read, hydrating an evicted session and waiting out a recovery first by a
// fence through the queue. The retry loop covers the window where an
// already-queued evict op lands right after the fence.
func resident[T any](s *session, p *atomic.Pointer[T], cancel <-chan struct{}) (*T, error) {
	for tries := 0; tries < 4; tries++ {
		if v := p.Load(); v != nil && s.life.load().readable() {
			s.res.touch(s)
			return v, nil
		}
		res, err := s.call(op{kind: opFence}, cancel)
		if err == nil {
			err = res.err
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, errBackpressure
}
