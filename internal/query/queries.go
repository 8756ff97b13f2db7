package query

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/stream"
)

// LocationUpdate is one output row of the location-update query of Section
// II-B:
//
//	Select Istream(E.tag_id, E.(x, y, z))
//	From   EventStream E [Partition By tag_id Rows 1]
//
// An update is emitted whenever the most recent location report of an object
// differs from its previous one.
type LocationUpdate struct {
	Time int          `json:"time"`
	Tag  stream.TagID `json:"tag"`
	Loc  geom.Vec3    `json:"loc"`
	// Prev is the previous reported location; HasPrev is false for the first
	// report of a tag (which is also emitted, since the partition's content
	// changed from empty).
	Prev    geom.Vec3 `json:"prev"`
	HasPrev bool      `json:"has_prev"`
}

// LocationUpdateQuery evaluates the location-update query in a streaming
// fashion.
type LocationUpdateQuery struct {
	// MinChange suppresses updates whose location moved less than this
	// distance (zero emits every change, exactly like Istream semantics over
	// real-valued locations).
	MinChange float64

	window *RowWindow
	last   map[stream.TagID]geom.Vec3
}

// NewLocationUpdateQuery returns a streaming location-update query.
func NewLocationUpdateQuery(minChange float64) *LocationUpdateQuery {
	return &LocationUpdateQuery{
		MinChange: minChange,
		window:    NewRowWindow(1),
		last:      make(map[stream.TagID]geom.Vec3),
	}
}

// Push feeds one event and returns the update it produced, if any.
func (q *LocationUpdateQuery) Push(ev stream.Event) (LocationUpdate, bool) {
	prev, hasPrev := q.last[ev.Tag]
	q.window.Push(ev)
	if hasPrev && prev.Dist(ev.Loc) <= q.MinChange {
		return LocationUpdate{}, false
	}
	q.last[ev.Tag] = ev.Loc
	return LocationUpdate{
		Time:    ev.Time,
		Tag:     ev.Tag,
		Loc:     ev.Loc,
		Prev:    prev,
		HasPrev: hasPrev,
	}, true
}

// Run evaluates the query over a complete event stream.
func (q *LocationUpdateQuery) Run(events []stream.Event) []LocationUpdate {
	var out []LocationUpdate
	for _, ev := range events {
		if u, ok := q.Push(ev); ok {
			out = append(out, u)
		}
	}
	return out
}

// AreaID identifies one square-foot cell of the storage area.
type AreaID struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// String implements fmt.Stringer.
func (a AreaID) String() string { return fmt.Sprintf("(%d,%d)", a.X, a.Y) }

// SquareFtArea maps a location to the square-foot area containing it, the
// SquareFtArea() function of the fire-code query.
func SquareFtArea(loc geom.Vec3) AreaID {
	return AreaID{X: int(math.Floor(loc.X)), Y: int(math.Floor(loc.Y))}
}

// Violation is one output row of the fire-code query: a square-foot area
// whose total object weight exceeded the threshold within the window.
type Violation struct {
	Time        int     `json:"time"`
	Area        AreaID  `json:"area"`
	TotalWeight float64 `json:"total_weight"`
}

// FireCodeConfig configures the fire-code query of Section II-B:
//
//	Select Rstream(E2.area, sum(E2.weight))
//	From (Select Rstream(*, SquareFtArea(E.(x,y,z)) As area,
//	                        Weight(E.tag_id) As weight)
//	      From EventStream E [Now]) E2 [Range 5 seconds]
//	Group By E2.area
//	Having sum(E2.weight) > 200 pounds
type FireCodeConfig struct {
	// WindowEpochs is the range window length in epochs (default 5).
	WindowEpochs int
	// ThresholdPounds is the Having threshold (default 200).
	ThresholdPounds float64
	// Weight returns the weight in pounds of an object; the default assigns
	// one pound to every object.
	Weight func(stream.TagID) float64
	// Area maps a location to its area cell; the default is SquareFtArea.
	Area func(geom.Vec3) AreaID
}

func (c *FireCodeConfig) applyDefaults() {
	if c.WindowEpochs <= 0 {
		c.WindowEpochs = 5
	}
	if c.ThresholdPounds <= 0 {
		c.ThresholdPounds = 200
	}
	if c.Weight == nil {
		c.Weight = func(stream.TagID) float64 { return 1 }
	}
	if c.Area == nil {
		c.Area = SquareFtArea
	}
}

// FireCodeQuery evaluates the fire-code query in a streaming fashion. Each
// pushed event advances the range window; the Rstream of the grouped,
// filtered relation is emitted per epoch. The grouping is maintained
// incrementally beside the window (latestGroups), so an epoch's evaluation
// costs its changed areas plus its output rows.
type FireCodeQuery struct {
	cfg      FireCodeConfig
	window   *TimeWindow
	areas    *latestGroups
	lastTime int
	started  bool
}

// NewFireCodeQuery returns a streaming fire-code query.
func NewFireCodeQuery(cfg FireCodeConfig) *FireCodeQuery {
	cfg.applyDefaults()
	threshold := cfg.ThresholdPounds
	return &FireCodeQuery{
		cfg:    cfg,
		window: NewTimeWindow(cfg.WindowEpochs),
		areas: newLatestGroups(func(ev stream.Event) AreaID { return cfg.Area(ev.Loc) }, cfg.Weight, true,
			func(g *areaGroup) bool { return g.sum > threshold }),
	}
}

// Push feeds one event and returns the violations present in the window after
// the event's epoch is complete. To match Rstream-per-epoch semantics the
// violations are computed when the epoch advances, so pushes within the same
// epoch return results for the previous epoch.
func (q *FireCodeQuery) Push(ev stream.Event) []Violation {
	var out []Violation
	if q.started && ev.Time != q.lastTime {
		out = q.evaluate(q.lastTime)
	}
	q.areas.push(q.window, ev)
	q.lastTime = ev.Time
	q.started = true
	return out
}

// Flush evaluates the final epoch after the stream ends.
func (q *FireCodeQuery) Flush() []Violation {
	if !q.started {
		return nil
	}
	return q.evaluate(q.lastTime)
}

// evaluate returns the violations of epoch now, in area order. Only the
// latest event per tag inside the window contributes — an object is in one
// place at a time — and an area's total weight is summed over its objects in
// tag order.
func (q *FireCodeQuery) evaluate(now int) []Violation {
	q.areas.advance(q.window, now)
	var out []Violation
	for _, g := range q.areas.settle() {
		out = append(out, Violation{Time: now, Area: g.area, TotalWeight: g.sum})
	}
	return out
}

// Run evaluates the query over a complete event stream, returning all
// violations in time order.
func (q *FireCodeQuery) Run(events []stream.Event) []Violation {
	sorted := make([]stream.Event, len(events))
	copy(sorted, events)
	stream.ByTimeThenTag(sorted)
	var out []Violation
	for _, ev := range sorted {
		out = append(out, q.Push(ev)...)
	}
	out = append(out, q.Flush()...)
	return out
}
