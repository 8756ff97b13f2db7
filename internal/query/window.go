// Package query implements the continuous-query processing layer of Section
// II-B: CQL-style windows and stream operators over the clean event stream
// produced by the inference engine, plus the two example queries of the paper
// (the per-object location-update query and the fire-code weight-density
// query). The operators work in a streaming fashion: each pushed event may
// emit zero or more results immediately.
package query

import (
	"sort"

	"repro/internal/stream"
)

// RowWindow implements a CQL partitioned row window:
// "EventStream [Partition By tag_id Rows N]" keeps the last N events of each
// tag.
type RowWindow struct {
	rows int
	byID map[stream.TagID][]stream.Event
}

// NewRowWindow returns a partition-by row window keeping the last rows events
// per tag (rows < 1 is treated as 1).
func NewRowWindow(rows int) *RowWindow {
	if rows < 1 {
		rows = 1
	}
	return &RowWindow{rows: rows, byID: make(map[stream.TagID][]stream.Event)}
}

// Push inserts an event and returns the event it displaced for that tag, if
// any.
func (w *RowWindow) Push(ev stream.Event) (stream.Event, bool) {
	list := w.byID[ev.Tag]
	list = append(list, ev)
	var evicted stream.Event
	hadEvicted := false
	if len(list) > w.rows {
		evicted = list[0]
		hadEvicted = true
		list = list[1:]
	}
	w.byID[ev.Tag] = list
	return evicted, hadEvicted
}

// Latest returns the most recent event for a tag.
func (w *RowWindow) Latest(tag stream.TagID) (stream.Event, bool) {
	list := w.byID[tag]
	if len(list) == 0 {
		return stream.Event{}, false
	}
	return list[len(list)-1], true
}

// Previous returns the event before the most recent one for a tag (only
// meaningful for windows with rows >= 2).
func (w *RowWindow) Previous(tag stream.TagID) (stream.Event, bool) {
	list := w.byID[tag]
	if len(list) < 2 {
		return stream.Event{}, false
	}
	return list[len(list)-2], true
}

// Tags returns the tags currently present in the window, sorted.
func (w *RowWindow) Tags() []stream.TagID {
	out := make([]stream.TagID, 0, len(w.byID))
	for id := range w.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TimeWindow implements a CQL range window: "[Range N seconds]" retains the
// events whose time lies within the last N epochs of the current time. It is
// a deque: eviction advances a head offset, and the dead prefix is compacted
// only once it is as long as the live part, so each event costs amortized
// O(1) to insert and to evict.
type TimeWindow struct {
	rangeEpochs int
	// events[head:] are in the window, in push order.
	events []stream.Event
	head   int
}

// NewTimeWindow returns a range window spanning rangeEpochs epochs.
func NewTimeWindow(rangeEpochs int) *TimeWindow {
	if rangeEpochs < 0 {
		rangeEpochs = 0
	}
	return &TimeWindow{rangeEpochs: rangeEpochs}
}

// Push inserts an event, evicts the events that fell out of the range
// relative to its time and returns them; the slice is valid until the next
// Push.
func (w *TimeWindow) Push(ev stream.Event) []stream.Event {
	if w.head > 0 && w.head >= len(w.events)-w.head {
		w.events = w.events[:copy(w.events, w.events[w.head:])]
		w.head = 0
	}
	w.events = append(w.events, ev)
	return w.AdvanceTo(ev.Time)
}

// AdvanceTo evicts the events older than now - range without inserting
// anything and returns them; the slice is valid until the next Push.
func (w *TimeWindow) AdvanceTo(now int) []stream.Event {
	cutoff := now - w.rangeEpochs
	i := w.head
	for i < len(w.events) && w.events[i].Time < cutoff {
		i++
	}
	evicted := w.events[w.head:i]
	w.head = i
	return evicted
}

// live returns the events in the window without copying them.
func (w *TimeWindow) live() []stream.Event { return w.events[w.head:] }

// Len returns the number of events in the window.
func (w *TimeWindow) Len() int { return len(w.events) - w.head }
