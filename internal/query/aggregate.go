package query

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/stream"
)

// AggregateOp names the aggregation function of a windowed aggregate query.
type AggregateOp string

// Supported aggregation functions.
const (
	// AggCount counts the distinct objects in the window
	// (count(distinct tag_id) — e.g. live inventory visibility per area).
	AggCount AggregateOp = "count"
	// AggSumWeight sums Weight(tag_id) over the distinct objects in the
	// window (the fire-code aggregate, without the Having filter).
	AggSumWeight AggregateOp = "sum-weight"
	// AggMeanWeight averages Weight(tag_id) over the distinct objects in the
	// window.
	AggMeanWeight AggregateOp = "mean-weight"
)

// GroupKey names the Group By clause of a windowed aggregate query.
type GroupKey string

// Supported groupings.
const (
	// GroupByNone aggregates over the whole event stream (one row per
	// epoch).
	GroupByNone GroupKey = "none"
	// GroupByArea groups by the square-foot area containing each object's
	// latest location (one row per occupied area per epoch).
	GroupByArea GroupKey = "area"
)

// AggregateConfig configures a windowed aggregate query, the CQL shape
//
//	Select Rstream(E2.group, agg(E2))
//	From (Select Rstream(*, SquareFtArea(E.(x,y,z)) As area,
//	                        Weight(E.tag_id) As weight)
//	      From EventStream E [Now]) E2 [Range W seconds]
//	Group By E2.group
//
// generalizing the paper's fire-code query to arbitrary aggregates without a
// Having threshold.
type AggregateConfig struct {
	// WindowEpochs is the range window length in epochs (default 5).
	WindowEpochs int
	// Op selects the aggregation function (default AggCount).
	Op AggregateOp
	// GroupBy selects the grouping (default GroupByNone).
	GroupBy GroupKey
	// Weight returns the weight of an object for the weight aggregates; the
	// default assigns one pound to every object.
	Weight func(stream.TagID) float64
	// Area maps a location to its grouping cell when GroupBy is GroupByArea;
	// the default is SquareFtArea.
	Area func(geom.Vec3) AreaID
}

func (c *AggregateConfig) applyDefaults() {
	if c.WindowEpochs <= 0 {
		c.WindowEpochs = 5
	}
	if c.Op == "" {
		c.Op = AggCount
	}
	if c.GroupBy == "" {
		c.GroupBy = GroupByNone
	}
	if c.Weight == nil {
		c.Weight = func(stream.TagID) float64 { return 1 }
	}
	if c.Area == nil {
		c.Area = SquareFtArea
	}
}

// Validate reports whether the configuration names a supported aggregate and
// grouping.
func (c AggregateConfig) Validate() error {
	switch c.Op {
	case "", AggCount, AggSumWeight, AggMeanWeight:
	default:
		return fmt.Errorf("query: unknown aggregate op %q", c.Op)
	}
	switch c.GroupBy {
	case "", GroupByNone, GroupByArea:
	default:
		return fmt.Errorf("query: unknown group key %q", c.GroupBy)
	}
	return nil
}

// AggregateRow is one output row of a windowed aggregate query: the
// aggregate value for one group at one epoch.
type AggregateRow struct {
	Time int `json:"time"`
	// Area is the grouping cell; meaningful only under GroupByArea.
	Area AreaID `json:"area"`
	// Grouped reports whether Area carries a value.
	Grouped bool `json:"grouped"`
	// Value is the aggregate (a count for AggCount, pounds for the weight
	// aggregates).
	Value float64 `json:"value"`
	// Objects is the number of distinct objects contributing to the group.
	Objects int `json:"objects"`
}

// WindowedAggregateQuery evaluates a windowed aggregate in a streaming
// fashion: per epoch, it emits one row per group computed over the distinct
// objects (latest event per tag) inside the range window. The groups are
// maintained incrementally beside the window (latestGroups), so an epoch's
// evaluation recomputes only the groups that changed in it.
type WindowedAggregateQuery struct {
	cfg      AggregateConfig
	window   *TimeWindow
	groups   *latestGroups
	lastTime int
	started  bool
}

// NewWindowedAggregateQuery returns a streaming windowed aggregate query.
func NewWindowedAggregateQuery(cfg AggregateConfig) *WindowedAggregateQuery {
	cfg.applyDefaults()
	key := func(stream.Event) AreaID { return AreaID{} }
	if cfg.GroupBy == GroupByArea {
		key = func(ev stream.Event) AreaID { return cfg.Area(ev.Loc) }
	}
	return &WindowedAggregateQuery{
		cfg:    cfg,
		window: NewTimeWindow(cfg.WindowEpochs),
		groups: newLatestGroups(key, cfg.Weight, cfg.Op != AggCount,
			func(*areaGroup) bool { return true }),
	}
}

// Push feeds one event; like FireCodeQuery, results for an epoch are emitted
// once a later epoch's first event arrives (Rstream-per-epoch semantics).
func (q *WindowedAggregateQuery) Push(ev stream.Event) []AggregateRow {
	var out []AggregateRow
	if q.started && ev.Time != q.lastTime {
		out = q.evaluate(q.lastTime)
	}
	q.groups.push(q.window, ev)
	q.lastTime = ev.Time
	q.started = true
	return out
}

// Flush evaluates the final epoch after the stream ends.
func (q *WindowedAggregateQuery) Flush() []AggregateRow {
	if !q.started {
		return nil
	}
	return q.evaluate(q.lastTime)
}

// Run evaluates the query over a complete event stream in time order.
func (q *WindowedAggregateQuery) Run(events []stream.Event) []AggregateRow {
	sorted := make([]stream.Event, len(events))
	copy(sorted, events)
	stream.ByTimeThenTag(sorted)
	var out []AggregateRow
	for _, ev := range sorted {
		out = append(out, q.Push(ev)...)
	}
	return append(out, q.Flush()...)
}

// evaluate returns one row per group of epoch now, in area order. Distinct
// objects: only the latest event per tag contributes, and a group's weight is
// summed over its objects in tag order.
func (q *WindowedAggregateQuery) evaluate(now int) []AggregateRow {
	q.groups.advance(q.window, now)
	groups := q.groups.settle()
	out := make([]AggregateRow, 0, len(groups))
	for _, g := range groups {
		objects := len(g.members)
		row := AggregateRow{
			Time:    now,
			Area:    g.area,
			Grouped: q.cfg.GroupBy == GroupByArea,
			Objects: objects,
		}
		switch q.cfg.Op {
		case AggCount:
			row.Value = float64(objects)
		case AggSumWeight:
			row.Value = g.sum
		case AggMeanWeight:
			row.Value = g.sum / float64(objects)
		}
		out = append(out, row)
	}
	return out
}
