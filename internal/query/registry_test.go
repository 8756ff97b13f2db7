package query

import (
	"testing"

	"repro/internal/stream"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Kind: KindLocationUpdates}, true},
		{Spec{Kind: KindFireCode, WindowEpochs: 3}, true},
		{Spec{Kind: KindWindowedAggregate}, true},
		{Spec{Kind: KindWindowedAggregate, Op: AggSumWeight, GroupBy: GroupByArea}, true},
		{Spec{Kind: "bogus"}, false},
		{Spec{Kind: KindWindowedAggregate, Op: "median"}, false},
		{Spec{Kind: KindWindowedAggregate, GroupBy: "shelf"}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(0)
	info, err := reg.Register(Spec{Kind: KindLocationUpdates, MinChange: 0.5})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if info.ID == "" {
		t.Fatal("empty query id")
	}
	if _, err := reg.Register(Spec{Kind: "bogus"}); err == nil {
		t.Fatal("registering a bogus spec succeeded")
	}
	if got := len(reg.List()); got != 1 {
		t.Fatalf("List has %d entries, want 1", got)
	}
	if !reg.Unregister(info.ID) {
		t.Fatal("Unregister of a live id failed")
	}
	if reg.Unregister(info.ID) {
		t.Fatal("Unregister of a dead id succeeded")
	}
}

func TestRegistryFeedAndPoll(t *testing.T) {
	reg := NewRegistry(0)
	loc, err := reg.Register(Spec{Kind: KindLocationUpdates})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Three events: a appears, b appears, a moves.
	reg.Feed([]stream.Event{ev(0, "a", 1, 1), ev(0, "b", 2, 2)})
	reg.Feed([]stream.Event{ev(1, "a", 5, 5)})

	results, info, err := reg.Results(loc.ID, -1, 0)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d location updates, want 3", len(results))
	}
	if info.NextSeq != 3 {
		t.Errorf("NextSeq = %d, want 3", info.NextSeq)
	}
	// Polling is idempotent and seq-addressable.
	again, _, _ := reg.Results(loc.ID, results[1].Seq, 0)
	if len(again) != 1 {
		t.Fatalf("poll after seq %d returned %d rows, want 1", results[1].Seq, len(again))
	}
	u, ok := again[0].Row.(LocationUpdate)
	if !ok {
		t.Fatalf("row type %T, want LocationUpdate", again[0].Row)
	}
	if u.Tag != "a" || !u.HasPrev {
		t.Errorf("unexpected final update: %+v", u)
	}

	if _, _, err := reg.Results("q999", -1, 0); err == nil {
		t.Fatal("Results for an unknown id succeeded")
	}
}

func TestRegistryBufferEviction(t *testing.T) {
	reg := NewRegistry(2)
	info, _ := reg.Register(Spec{Kind: KindLocationUpdates})
	// Every event moves the tag, so every event is a result row.
	reg.Feed([]stream.Event{ev(0, "a", 0, 0), ev(1, "a", 1, 0), ev(2, "a", 2, 0), ev(3, "a", 3, 0)})
	results, got, err := reg.Results(info.ID, -1, 0)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("buffer holds %d rows, want 2 (cap)", len(results))
	}
	if got.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", got.Dropped)
	}
	if results[0].Seq != 2 {
		t.Errorf("oldest surviving seq = %d, want 2", results[0].Seq)
	}
}

func TestRegistryUncapped(t *testing.T) {
	reg := NewRegistry(-1)
	info, _ := reg.Register(Spec{Kind: KindLocationUpdates})
	var events []stream.Event
	for i := 0; i < 3*DefaultMaxBufferedResults; i++ {
		events = append(events, ev(i, "a", float64(i), 0))
	}
	reg.Feed(events)
	results, got, err := reg.Results(info.ID, -1, 0)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(results) != len(events) || got.Dropped != 0 {
		t.Fatalf("uncapped registry kept %d of %d rows (dropped %d)", len(results), len(events), got.Dropped)
	}
}

func TestRegistryFireCodeIncremental(t *testing.T) {
	reg := NewRegistry(0)
	fc, _ := reg.Register(Spec{Kind: KindFireCode, WindowEpochs: 5, ThresholdPounds: 100, WeightPounds: 60})

	// Two 60-lb objects in the same square foot: 120 > 100.
	reg.Feed([]stream.Event{ev(0, "a", 0.2, 0.2), ev(0, "b", 0.6, 0.7)})
	// The epoch-0 violation is emitted when epoch 1 begins.
	reg.Feed([]stream.Event{ev(1, "a", 0.2, 0.2)})

	results, _, err := reg.Results(fc.ID, -1, 0)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d violations, want 1", len(results))
	}
	v := results[0].Row.(Violation)
	if v.TotalWeight != 120 || v.Area != (AreaID{0, 0}) {
		t.Errorf("unexpected violation: %+v", v)
	}

	// FlushAll surfaces the held-back final epoch.
	if n := reg.FlushAll(); n == 0 {
		t.Fatal("FlushAll produced no rows for the open epoch")
	}
}

func TestWindowedAggregateCountByArea(t *testing.T) {
	q := NewWindowedAggregateQuery(AggregateConfig{
		WindowEpochs: 2,
		Op:           AggCount,
		GroupBy:      GroupByArea,
	})
	rows := q.Run([]stream.Event{
		ev(0, "a", 0.5, 0.5),
		ev(0, "b", 0.6, 0.6),
		ev(0, "c", 3.5, 0.5),
		ev(1, "a", 0.5, 0.5),
	})
	// Epoch 0: area (0,0) count 2, area (3,0) count 1.
	// Epoch 1 (flush): same window contents, latest-a only moved in time.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	if rows[0].Area != (AreaID{0, 0}) || rows[0].Value != 2 || !rows[0].Grouped {
		t.Errorf("epoch-0 first row: %+v", rows[0])
	}
	if rows[1].Area != (AreaID{3, 0}) || rows[1].Value != 1 {
		t.Errorf("epoch-0 second row: %+v", rows[1])
	}
}

func TestWindowedAggregateMeanWeightUngrouped(t *testing.T) {
	weights := map[stream.TagID]float64{"a": 10, "b": 30}
	q := NewWindowedAggregateQuery(AggregateConfig{
		WindowEpochs: 5,
		Op:           AggMeanWeight,
		GroupBy:      GroupByNone,
		Weight:       func(id stream.TagID) float64 { return weights[id] },
	})
	rows := q.Run([]stream.Event{ev(0, "a", 0, 0), ev(0, "b", 9, 9)})
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if rows[0].Value != 20 || rows[0].Objects != 2 || rows[0].Grouped {
		t.Errorf("unexpected row: %+v", rows[0])
	}
}

func TestWindowedAggregateWindowExpiry(t *testing.T) {
	q := NewWindowedAggregateQuery(AggregateConfig{WindowEpochs: 1, Op: AggCount})
	rows := q.Run([]stream.Event{
		ev(0, "a", 0, 0),
		ev(5, "b", 1, 1), // a's epoch-0 event fell out of the window by t=5
	})
	last := rows[len(rows)-1]
	if last.Time != 5 || last.Value != 1 {
		t.Errorf("final row %+v, want count 1 at t=5", last)
	}
}

// TestFlushThenFeedReportsEachEpochOnce pins that a windows flush closes the
// open epoch: when feeding resumes, the next epoch's first event must not
// report the flushed epoch again.
func TestFlushThenFeedReportsEachEpochOnce(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindFireCode, WindowEpochs: 5, ThresholdPounds: 1.5},
		{Kind: KindWindowedAggregate, WindowEpochs: 5, GroupBy: GroupByArea},
	} {
		reg := NewRegistry(0)
		info, err := reg.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 3; epoch++ {
			reg.Feed([]stream.Event{ev(epoch, "a", 0.2, 0.2), ev(epoch, "b", 0.6, 0.7)})
			reg.FlushAll()
		}
		results, _, err := reg.Results(info.ID, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var times []int
		for _, res := range results {
			switch row := res.Row.(type) {
			case Violation:
				times = append(times, row.Time)
			case AggregateRow:
				times = append(times, row.Time)
			}
		}
		if len(times) != 3 || times[0] != 0 || times[1] != 1 || times[2] != 2 {
			t.Errorf("%s: row epochs %v, want [0 1 2]", spec.Kind, times)
		}
	}
}
