package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The reference below is the windowed queries' evaluation as it was before
// their state became incremental: a window that copies its remainder on every
// expiry, and evaluate bodies that rebuild latest-per-tag and the groups from
// the whole window every epoch. The incremental queries must produce the same
// rows byte for byte and checkpoint the same bytes.

// recomputeWindow is the copying range window.
type recomputeWindow struct {
	rangeEpochs int
	events      []stream.Event
}

func (w *recomputeWindow) push(ev stream.Event) {
	w.events = append(w.events, ev)
	w.advanceTo(ev.Time)
}

func (w *recomputeWindow) advanceTo(now int) {
	cutoff := now - w.rangeEpochs
	i := 0
	for i < len(w.events) && w.events[i].Time < cutoff {
		i++
	}
	if i > 0 {
		w.events = append([]stream.Event(nil), w.events[i:]...)
	}
}

func (w *recomputeWindow) contents() []stream.Event {
	out := make([]stream.Event, len(w.events))
	copy(out, w.events)
	return out
}

// recomputeFireCode is FireCodeQuery's evaluate recomputing from the window.
func recomputeFireCode(cfg FireCodeConfig, w *recomputeWindow, now int) []Violation {
	w.advanceTo(now)
	latest := make(map[stream.TagID]stream.Event)
	for _, ev := range w.contents() {
		cur, ok := latest[ev.Tag]
		if !ok || ev.Time >= cur.Time {
			latest[ev.Tag] = ev
		}
	}
	dedup := make([]stream.Event, 0, len(latest))
	for _, ev := range latest {
		dedup = append(dedup, ev)
	}
	sums := make(map[string]float64)
	for _, ev := range dedup {
		sums[cfg.Area(ev.Loc).String()] += cfg.Weight(ev.Tag)
	}
	areas := make(map[string]AreaID)
	for _, ev := range dedup {
		a := cfg.Area(ev.Loc)
		areas[a.String()] = a
	}
	var out []Violation
	for key, total := range sums {
		if total > cfg.ThresholdPounds {
			out = append(out, Violation{Time: now, Area: areas[key], TotalWeight: total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area.X != out[j].Area.X {
			return out[i].Area.X < out[j].Area.X
		}
		return out[i].Area.Y < out[j].Area.Y
	})
	return out
}

// recomputeAggregate is WindowedAggregateQuery's evaluate recomputing from
// the window.
func recomputeAggregate(cfg AggregateConfig, w *recomputeWindow, now int) []AggregateRow {
	w.advanceTo(now)
	latest := make(map[stream.TagID]stream.Event)
	for _, ev := range w.contents() {
		cur, ok := latest[ev.Tag]
		if !ok || ev.Time >= cur.Time {
			latest[ev.Tag] = ev
		}
	}
	type group struct {
		area    AreaID
		sum     float64
		objects int
	}
	groups := make(map[AreaID]*group)
	for _, ev := range latest {
		var a AreaID
		if cfg.GroupBy == GroupByArea {
			a = cfg.Area(ev.Loc)
		}
		g, ok := groups[a]
		if !ok {
			g = &group{area: a}
			groups[a] = g
		}
		g.sum += cfg.Weight(ev.Tag)
		g.objects++
	}
	out := make([]AggregateRow, 0, len(groups))
	for _, g := range groups {
		row := AggregateRow{Time: now, Area: g.area, Grouped: cfg.GroupBy == GroupByArea, Objects: g.objects}
		switch cfg.Op {
		case AggCount:
			row.Value = float64(g.objects)
		case AggSumWeight:
			row.Value = g.sum
		case AggMeanWeight:
			row.Value = g.sum / float64(g.objects)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area.X != out[j].Area.X {
			return out[i].Area.X < out[j].Area.X
		}
		return out[i].Area.Y < out[j].Area.Y
	})
	return out
}

// recomputeQuery drives one recomputing evaluate with the queries' Push /
// Flush epoch semantics and encodes its state in the checkpoint layout.
type recomputeQuery struct {
	section  string
	window   recomputeWindow
	eval     func(w *recomputeWindow, now int) []any
	lastTime int
	started  bool
}

func (q *recomputeQuery) push(ev stream.Event) []any {
	var out []any
	if q.started && ev.Time != q.lastTime {
		out = q.eval(&q.window, q.lastTime)
	}
	q.window.push(ev)
	q.lastTime, q.started = ev.Time, true
	return out
}

func (q *recomputeQuery) flush() []any {
	if !q.started {
		return nil
	}
	return q.eval(&q.window, q.lastTime)
}

func (q *recomputeQuery) saveState(e *checkpoint.Encoder) {
	e.Section(q.section)
	saveEvents(e, q.window.events)
	e.Int(q.lastTime)
	e.Bool(q.started)
}

// randomStream returns time-ordered events: a few tags per area, epoch gaps,
// and the same tag more than once within an epoch.
func randomStream(src *rng.Source, n int) []stream.Event {
	var out []stream.Event
	t := 0
	for len(out) < n {
		if src.Intn(4) == 0 {
			t += 1 + src.Intn(8) // a gap
		} else {
			t++
		}
		k := 1 + src.Intn(10)
		for j := 0; j < k; j++ {
			tag := stream.TagID(fmt.Sprintf("t%02d", src.Intn(14)))
			// 3 x 3 square feet, so several tags share an area.
			loc := geom.V(src.Float64()*3, src.Float64()*3, 0)
			out = append(out, stream.Event{Time: t, Tag: tag, Loc: loc})
		}
	}
	return out
}

func rowsJSON(t *testing.T, rows []any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func stateBytes(save func(*checkpoint.Encoder)) []byte {
	e := checkpoint.NewEncoder()
	save(e)
	return e.Bytes()
}

// TestIncrementalWindowsEqualRecompute drives random streams through the
// incremental fire-code and aggregate queries and through their recomputing
// reference: rows must match byte for byte at every push and at the final
// flush, the checkpointed state must be the reference's bytes, and a
// SaveState → RestoreState mid-window must change nothing.
func TestIncrementalWindowsEqualRecompute(t *testing.T) {
	type mk func(window int, weight float64) (Continuous, *recomputeQuery)
	kinds := map[string]mk{
		"fire-code": func(window int, weight float64) (Continuous, *recomputeQuery) {
			spec := Spec{Kind: KindFireCode, WindowEpochs: window, ThresholdPounds: 2.5 * weight, WeightPounds: weight}
			q, _ := NewContinuous(spec)
			cfg := q.(fireCodeAdapter).q.cfg
			return q, &recomputeQuery{section: "q.firecode", window: recomputeWindow{rangeEpochs: window},
				eval: func(w *recomputeWindow, now int) []any { return wrapRows(recomputeFireCode(cfg, w, now)) }}
		},
	}
	for _, op := range []AggregateOp{AggCount, AggSumWeight, AggMeanWeight} {
		for _, by := range []GroupKey{GroupByNone, GroupByArea} {
			op, by := op, by
			kinds[fmt.Sprintf("aggregate-%s-%s", op, by)] = func(window int, weight float64) (Continuous, *recomputeQuery) {
				spec := Spec{Kind: KindWindowedAggregate, WindowEpochs: window, Op: op, GroupBy: by, WeightPounds: weight}
				q, _ := NewContinuous(spec)
				cfg := q.(aggregateAdapter).q.cfg
				return q, &recomputeQuery{section: "q.aggregate", window: recomputeWindow{rangeEpochs: window},
					eval: func(w *recomputeWindow, now int) []any { return wrapRows(recomputeAggregate(cfg, w, now)) }}
			}
		}
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)

	src := rng.New(17)
	for _, name := range names {
		for _, window := range []int{1, 5, 10, 20} {
			for _, weight := range []float64{1, 2, 0.1} {
				events := randomStream(src, 400)
				restoreAt := src.Intn(len(events))
				q, ref := kinds[name](window, weight)
				for i, ev := range events {
					if i == restoreAt {
						saved := stateBytes(q.(stateful).saveState)
						if want := stateBytes(ref.saveState); !bytes.Equal(saved, want) {
							t.Fatalf("%s w=%d weight=%g: checkpointed state differs from the reference's at event %d", name, window, weight, i)
						}
						fresh, _ := kinds[name](window, weight)
						if err := fresh.(stateful).restoreState(checkpoint.NewDecoder(saved)); err != nil {
							t.Fatal(err)
						}
						q = fresh
					}
					got, want := rowsJSON(t, q.PushEvent(ev)), rowsJSON(t, ref.push(ev))
					if got != want {
						t.Fatalf("%s w=%d weight=%g event %d (t=%d):\n got %s\nwant %s", name, window, weight, i, ev.Time, got, want)
					}
				}
				if got, want := rowsJSON(t, q.FlushFinal()), rowsJSON(t, ref.flush()); got != want {
					t.Fatalf("%s w=%d weight=%g flush:\n got %s\nwant %s", name, window, weight, got, want)
				}
				if !bytes.Equal(stateBytes(q.(stateful).saveState), stateBytes(ref.saveState)) {
					t.Fatalf("%s w=%d weight=%g: final checkpointed state differs from the reference's", name, window, weight)
				}
			}
		}
	}
}
