package query

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/stream"
)

// The registry's checkpoint codec. A checkpoint captures the registration
// table (ids, specs, sequence counters), every query's undelivered result
// rows (as their canonical JSON, so polled bytes after recovery are identical
// to an uninterrupted run's) and each live query's window state, so windowed
// aggregates resume mid-window without double- or under-reporting.

const registrySection = "query.Registry"

// stateful is implemented by the continuous-query adapters whose operators
// carry cross-event window state.
type stateful interface {
	saveState(e *checkpoint.Encoder)
	restoreState(d *checkpoint.Decoder) error
}

// SaveState appends the registry's full state to the encoder.
func (r *Registry) SaveState(e *checkpoint.Encoder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Section(registrySection)
	e.Int(r.nextID)
	ids := make([]string, 0, len(r.queries))
	for id := range r.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		reg := r.queries[id]
		e.String(id)
		spec, _ := json.Marshal(reg.info.Spec)
		e.String(string(spec))
		e.Bool(reg.info.Finished)
		e.Int(reg.info.NextSeq)
		e.Int(reg.info.Dropped)
		live := reg.live()
		e.Uvarint(uint64(len(live)))
		for _, res := range live {
			e.Int(res.Seq)
			row, err := json.Marshal(res.Row)
			if err != nil {
				row = []byte("null")
			}
			e.String(string(row))
		}
		if !reg.info.Finished {
			reg.q.(stateful).saveState(e)
		}
	}
}

// RestoreState rebuilds the registry from a SaveState payload, replacing any
// current registrations. Corrupt input errors, never panics.
func (r *Registry) RestoreState(d *checkpoint.Decoder) error {
	d.Section(registrySection)
	nextID := d.Int()
	n := d.SliceLen(1)
	queries := make(map[string]*registered, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.String()
		spec, err := ParseSpec([]byte(d.String()))
		if d.Err() != nil {
			break
		}
		if err != nil {
			return fmt.Errorf("query: restore %q: %w", id, err)
		}
		q, err := NewContinuous(spec)
		if err != nil {
			return fmt.Errorf("query: restore %q: %w", id, err)
		}
		reg := &registered{info: Info{ID: id, Spec: spec}, q: q}
		reg.info.Finished = d.Bool()
		reg.info.NextSeq = d.Int()
		reg.info.Dropped = d.Int()
		m := d.SliceLen(2)
		for j := 0; j < m && d.Err() == nil; j++ {
			seq := d.Int()
			row := d.String()
			if d.Err() == nil {
				// Keep the canonical JSON verbatim: re-marshaling a
				// RawMessage emits exactly these bytes, so post-recovery
				// polls are byte-identical to an uninterrupted run's.
				reg.results = append(reg.results, Result{Seq: seq, Row: json.RawMessage(row)})
			}
		}
		reg.info.Buffered = len(reg.results)
		if !reg.info.Finished {
			if err := reg.q.(stateful).restoreState(d); err != nil {
				return err
			}
		}
		if d.Err() == nil {
			if _, dup := queries[id]; dup {
				return fmt.Errorf("query: duplicate query id %q in checkpoint", id)
			}
			queries[id] = reg
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID = nextID
	r.queries = queries
	return nil
}

// --- event and window codecs ---

func saveEvent(e *checkpoint.Encoder, ev stream.Event) {
	e.Int(ev.Time)
	e.String(string(ev.Tag))
	e.Vec3(ev.Loc)
	e.Vec3(ev.Stats.Variance)
	e.Int(ev.Stats.NumParticles)
	e.Bool(ev.Stats.Compressed)
}

func restoreEvent(d *checkpoint.Decoder) stream.Event {
	return stream.Event{
		Time: d.Int(),
		Tag:  stream.TagID(d.String()),
		Loc:  d.Vec3(),
		Stats: stream.EventStats{
			Variance:     d.Vec3(),
			NumParticles: d.Int(),
			Compressed:   d.Bool(),
		},
	}
}

func saveEvents(e *checkpoint.Encoder, evs []stream.Event) {
	e.Uvarint(uint64(len(evs)))
	for _, ev := range evs {
		saveEvent(e, ev)
	}
}

func restoreEvents(d *checkpoint.Decoder) []stream.Event {
	n := d.SliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]stream.Event, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, restoreEvent(d))
	}
	return out
}

// saveState / restoreState on TimeWindow serialize the retained events (the
// range length is configuration, reconstructed from the spec).
func (w *TimeWindow) saveState(e *checkpoint.Encoder) { saveEvents(e, w.live()) }

func (w *TimeWindow) restoreState(d *checkpoint.Decoder) error {
	w.events, w.head = restoreEvents(d), 0
	return d.Err()
}

// saveState / restoreState on RowWindow serialize the per-tag rows in sorted
// tag order.
func (w *RowWindow) saveState(e *checkpoint.Encoder) {
	tags := w.Tags()
	e.Uvarint(uint64(len(tags)))
	for _, tag := range tags {
		e.String(string(tag))
		saveEvents(e, w.byID[tag])
	}
}

func (w *RowWindow) restoreState(d *checkpoint.Decoder) error {
	n := d.SliceLen(2)
	byID := make(map[stream.TagID][]stream.Event, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		tag := stream.TagID(d.String())
		byID[tag] = restoreEvents(d)
	}
	if err := d.Err(); err != nil {
		return err
	}
	w.byID = byID
	return nil
}

// --- adapter state ---

func (a locationAdapter) saveState(e *checkpoint.Encoder) {
	e.Section("q.location")
	a.q.window.saveState(e)
	tags := make([]stream.TagID, 0, len(a.q.last))
	for tag := range a.q.last {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	e.Uvarint(uint64(len(tags)))
	for _, tag := range tags {
		e.String(string(tag))
		e.Vec3(a.q.last[tag])
	}
}

func (a locationAdapter) restoreState(d *checkpoint.Decoder) error {
	d.Section("q.location")
	if err := a.q.window.restoreState(d); err != nil {
		return err
	}
	n := d.SliceLen(8 * 3)
	last := make(map[stream.TagID]geom.Vec3, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		tag := stream.TagID(d.String())
		last[tag] = d.Vec3()
	}
	if err := d.Err(); err != nil {
		return err
	}
	a.q.last = last
	return nil
}

func (a fireCodeAdapter) saveState(e *checkpoint.Encoder) {
	e.Section("q.firecode")
	a.q.window.saveState(e)
	e.Int(a.q.lastTime)
	e.Bool(a.q.started)
}

func (a fireCodeAdapter) restoreState(d *checkpoint.Decoder) error {
	d.Section("q.firecode")
	if err := a.q.window.restoreState(d); err != nil {
		return err
	}
	a.q.areas.rebuild(a.q.window)
	a.q.lastTime = d.Int()
	a.q.started = d.Bool()
	return d.Err()
}

func (a aggregateAdapter) saveState(e *checkpoint.Encoder) {
	e.Section("q.aggregate")
	a.q.window.saveState(e)
	e.Int(a.q.lastTime)
	e.Bool(a.q.started)
}

func (a aggregateAdapter) restoreState(d *checkpoint.Decoder) error {
	d.Section("q.aggregate")
	if err := a.q.window.restoreState(d); err != nil {
		return err
	}
	a.q.groups.rebuild(a.q.window)
	a.q.lastTime = d.Int()
	a.q.started = d.Bool()
	return d.Err()
}
