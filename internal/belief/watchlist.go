package belief

import (
	"repro/internal/stream"
)

// Watchlist tracks the objects whose beliefs may become compression
// candidates (objects recently in scope). It is partitioned into shards keyed
// by the stable tag hash: during the parallel phase of an epoch each worker
// marks only tags belonging to its own shard, so no locking is needed, and at
// the epoch barrier the engine reads the merged view to run the compression
// policy.
type Watchlist struct {
	shards []map[stream.TagID]bool
}

// NewWatchlist returns a watchlist with n shards (minimum 1).
func NewWatchlist(n int) *Watchlist {
	if n < 1 {
		n = 1
	}
	shards := make([]map[stream.TagID]bool, n)
	for i := range shards {
		shards[i] = make(map[stream.TagID]bool)
	}
	return &Watchlist{shards: shards}
}

// Shards returns the number of shards.
func (w *Watchlist) Shards() int { return len(w.shards) }

// shardOf returns the shard index the tag belongs to.
func (w *Watchlist) shardOf(id stream.TagID) int { return id.Shard(len(w.shards)) }

// Mark adds the tag to its shard. Concurrent Mark calls are safe as long as
// each goroutine only marks tags of a single distinct shard — the invariant
// the engine maintains by partitioning the active set with the same
// hash.
func (w *Watchlist) Mark(id stream.TagID) {
	w.shards[w.shardOf(id)][id] = true
}

// Drop removes the tag from its shard. Only call between epochs (at or after
// the barrier).
func (w *Watchlist) Drop(id stream.TagID) {
	delete(w.shards[w.shardOf(id)], id)
}

// Len returns the total number of watched tags across all shards.
func (w *Watchlist) Len() int {
	n := 0
	for _, s := range w.shards {
		n += len(s)
	}
	return n
}

// Merged returns all watched tags across shards, in no particular order. The
// caller (the compression policy) is responsible for ordering; Manager.Select
// sorts its candidates deterministically.
func (w *Watchlist) Merged() []stream.TagID {
	return w.AppendMerged(make([]stream.TagID, 0, w.Len()))
}

// AppendMerged appends all watched tags across shards to dst and returns the
// extended slice, in no particular order. Passing a reused buffer (dst[:0])
// lets the per-epoch compression pass read the merged view without
// allocating.
func (w *Watchlist) AppendMerged(dst []stream.TagID) []stream.TagID {
	for _, s := range w.shards {
		for id := range s {
			dst = append(dst, id)
		}
	}
	return dst
}
