// Package query implements the continuous-query processing layer of Section
// II-B: CQL-style windows and stream operators over the clean event stream
// produced by the inference engine, plus the two example queries of the paper
// (the per-object location-update query and the fire-code weight-density
// query). The operators work in a streaming fashion: each pushed event may
// emit zero or more results immediately.
package query

import "repro/internal/stream"

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
