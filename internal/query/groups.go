package query

import (
	"slices"
	"sort"

	"repro/internal/stream"
)

// latestGroups is the incremental state a windowed query keeps beside its
// range window: for every tag in the window its latest event and how many of
// its events the window holds, and the groups the tags' latest events fall
// into. A push or an eviction touches only its tag and at most two groups,
// which it marks dirty; an evaluation recomputes only the dirty groups and
// reads the rest from their cached values, so an epoch costs what changed in
// it rather than the window's size.
//
// It relies on the window's events arriving in time order (the Continuous
// contract): a tag's latest event is then its last pushed one, which leaves
// the window only with the tag's last event.
type latestGroups struct {
	key    func(stream.Event) AreaID
	weight func(stream.TagID) float64
	// withSum selects whether groups need their weight sums.
	withSum bool
	// qualifies selects the groups an evaluation reports.
	qualifies func(*areaGroup) bool

	tags   map[stream.TagID]*tagLatest
	groups map[AreaID]*areaGroup
	dirty  []*areaGroup
	// out holds the qualifying groups in area order (x, then y).
	out []*areaGroup
}

// tagLatest is one tag's share of the window.
type tagLatest struct {
	n     int
	last  stream.Event
	group *areaGroup
}

// areaGroup is one group: its member tags in tag order and, when the query
// needs it, the sum of their weights taken in that order.
type areaGroup struct {
	area    AreaID
	members []stream.TagID
	sum     float64
	dirty   bool
	listed  bool
}

func newLatestGroups(key func(stream.Event) AreaID, weight func(stream.TagID) float64, withSum bool, qualifies func(*areaGroup) bool) *latestGroups {
	x := &latestGroups{key: key, weight: weight, withSum: withSum, qualifies: qualifies}
	x.reset()
	return x
}

// reset empties the state.
func (x *latestGroups) reset() {
	x.tags = make(map[stream.TagID]*tagLatest)
	x.groups = make(map[AreaID]*areaGroup)
	x.dirty = x.dirty[:0]
	x.out = x.out[:0]
}

// push inserts ev into the window w the state tracks, accounting for ev and
// for the events the insert evicted.
func (x *latestGroups) push(w *TimeWindow, ev stream.Event) {
	x.add(ev)
	for _, old := range w.Push(ev) {
		x.remove(old)
	}
}

// advance moves w to now, accounting for the evicted events.
func (x *latestGroups) advance(w *TimeWindow, now int) {
	for _, old := range w.AdvanceTo(now) {
		x.remove(old)
	}
}

// rebuild derives the state from w's contents — after w was restored from a
// checkpoint, which persists only the window's events.
func (x *latestGroups) rebuild(w *TimeWindow) {
	x.reset()
	for _, ev := range w.live() {
		x.add(ev)
	}
}

// add accounts for an event entering the window.
func (x *latestGroups) add(ev stream.Event) {
	t := x.tags[ev.Tag]
	if t == nil {
		t = &tagLatest{}
		x.tags[ev.Tag] = t
	}
	t.n++
	if t.n > 1 && ev.Time < t.last.Time {
		return
	}
	t.last = ev
	if a := x.key(ev); t.group == nil || t.group.area != a {
		if t.group != nil {
			x.leave(t.group, ev.Tag)
		}
		t.group = x.join(a, ev.Tag)
	}
}

// remove accounts for an event leaving the window.
func (x *latestGroups) remove(ev stream.Event) {
	t := x.tags[ev.Tag]
	if t == nil {
		return
	}
	if t.n--; t.n == 0 {
		x.leave(t.group, ev.Tag)
		delete(x.tags, ev.Tag)
	}
}

func (x *latestGroups) join(a AreaID, tag stream.TagID) *areaGroup {
	g := x.groups[a]
	if g == nil {
		g = &areaGroup{area: a}
		x.groups[a] = g
	}
	i, _ := slices.BinarySearch(g.members, tag)
	g.members = slices.Insert(g.members, i, tag)
	x.markDirty(g)
	return g
}

func (x *latestGroups) leave(g *areaGroup, tag stream.TagID) {
	if i, ok := slices.BinarySearch(g.members, tag); ok {
		g.members = slices.Delete(g.members, i, i+1)
	}
	x.markDirty(g)
}

func (x *latestGroups) markDirty(g *areaGroup) {
	if !g.dirty {
		g.dirty = true
		x.dirty = append(x.dirty, g)
	}
}

// settle recomputes the dirty groups — dropping emptied ones, re-summing
// weights over the members in tag order — and updates which groups qualify,
// returning the qualifying groups in area order. The slice is the state's
// own and valid until the next change.
func (x *latestGroups) settle() []*areaGroup {
	for _, g := range x.dirty {
		g.dirty = false
		keep := len(g.members) > 0
		if !keep {
			delete(x.groups, g.area)
		} else if x.withSum {
			g.sum = 0
			for _, tag := range g.members {
				g.sum += x.weight(tag)
			}
		}
		if q := keep && x.qualifies(g); q != g.listed {
			g.listed = q
			i := sort.Search(len(x.out), func(i int) bool { return !areaLess(x.out[i].area, g.area) })
			if q {
				x.out = slices.Insert(x.out, i, g)
			} else {
				x.out = slices.Delete(x.out, i, i+1)
			}
		}
	}
	x.dirty = x.dirty[:0]
	return x.out
}

// areaLess orders areas by x, then y — the order query rows are emitted in.
func areaLess(a, b AreaID) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}
