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
// fashion: the windowed operator emitting, per epoch, one row per group
// computed over the distinct objects (latest event per tag) inside the range
// window.
type WindowedAggregateQuery = windowed[AggregateRow]

// NewWindowedAggregateQuery returns a streaming windowed aggregate query.
func NewWindowedAggregateQuery(cfg AggregateConfig) *WindowedAggregateQuery {
	cfg.applyDefaults()
	grouped, op := cfg.GroupBy == GroupByArea, cfg.Op
	key := func(stream.Event) AreaID { return AreaID{} }
	if grouped {
		key = func(ev stream.Event) AreaID { return cfg.Area(ev.Loc) }
	}
	return &WindowedAggregateQuery{
		section: "q.aggregate",
		window:  NewTimeWindow(cfg.WindowEpochs),
		groups:  newLatestGroups(key, cfg.Weight, op != AggCount, func(*areaGroup) bool { return true }),
		row: func(now int, g *areaGroup) AggregateRow {
			objects := len(g.members)
			row := AggregateRow{Time: now, Area: g.area, Grouped: grouped, Objects: objects}
			switch op {
			case AggCount:
				row.Value = float64(objects)
			case AggSumWeight:
				row.Value = g.sum
			case AggMeanWeight:
				row.Value = g.sum / float64(objects)
			}
			return row
		},
	}
}
