package metrics

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
)

func fixedTruth(m map[stream.TagID]geom.Vec3) TruthLookup {
	return func(id stream.TagID, t int) (geom.Vec3, bool) {
		loc, ok := m[id]
		return loc, ok
	}
}

func TestScoreEstimates(t *testing.T) {
	truth := fixedTruth(map[stream.TagID]geom.Vec3{
		"a": geom.V(0, 0, 0),
		"b": geom.V(1, 1, 0),
	})
	rep := ScoreEstimates([]LocationEstimate{
		{Tag: "a", Loc: geom.V(0.3, 0.4, 0)}, // XY error 0.5
		{Tag: "b", Loc: geom.V(1, 2, 0)},     // XY error 1.0
		{Tag: "missing", Loc: geom.V(0, 0, 0)},
	}, truth, 0)
	if rep.Count != 2 || rep.Missing != 1 {
		t.Fatalf("count=%d missing=%d", rep.Count, rep.Missing)
	}
	if math.Abs(rep.MeanXY-0.75) > 1e-9 {
		t.Errorf("MeanXY = %v, want 0.75", rep.MeanXY)
	}
	if math.Abs(rep.MeanX-0.15) > 1e-9 || math.Abs(rep.MeanY-0.7) > 1e-9 {
		t.Errorf("per-axis means = %v / %v", rep.MeanX, rep.MeanY)
	}
	if math.Abs(rep.MaxXY-1.0) > 1e-9 {
		t.Errorf("MaxXY = %v", rep.MaxXY)
	}
}

func TestScoreEventsUsesLatestPerTag(t *testing.T) {
	truth := fixedTruth(map[stream.TagID]geom.Vec3{"a": geom.V(0, 0, 0)})
	events := []stream.Event{
		{Time: 1, Tag: "a", Loc: geom.V(5, 0, 0)},    // early, bad
		{Time: 10, Tag: "a", Loc: geom.V(0.1, 0, 0)}, // later, good
	}
	rep := ScoreEvents(events, truth)
	if rep.Count != 1 {
		t.Fatalf("count = %d", rep.Count)
	}
	if math.Abs(rep.MeanXY-0.1) > 1e-9 {
		t.Errorf("MeanXY = %v, want the error of the latest event", rep.MeanXY)
	}
}

func TestScoreEventsEmptyAndMissing(t *testing.T) {
	rep := ScoreEvents(nil, fixedTruth(nil))
	if rep.Count != 0 || rep.MeanXY != 0 {
		t.Errorf("empty events should score zero: %+v", rep)
	}
	rep = ScoreEvents([]stream.Event{{Tag: "x", Loc: geom.V(1, 1, 0)}}, fixedTruth(nil))
	if rep.Missing != 1 || rep.Count != 0 {
		t.Errorf("missing truth mishandled: %+v", rep)
	}
}

func TestErrorReduction(t *testing.T) {
	if got := ErrorReduction(0.5, 1.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ErrorReduction = %v", got)
	}
	if got := ErrorReduction(1.5, 1.0); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("negative reduction = %v", got)
	}
	if ErrorReduction(1, 0) != 0 {
		t.Error("zero baseline should give zero reduction")
	}
	// The paper's headline: 0.51 vs 1.0 is a 49% reduction.
	if got := ErrorReduction(0.51, 1.0); math.Abs(got-0.49) > 1e-9 {
		t.Errorf("headline example = %v", got)
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Readings: 1500, Elapsed: time.Second}
	if tp.ReadingsPerSecond() != 1500 {
		t.Errorf("ReadingsPerSecond = %v", tp.ReadingsPerSecond())
	}
	if tp.TimePerReading() != time.Second/1500 {
		t.Errorf("TimePerReading = %v", tp.TimePerReading())
	}
	empty := Throughput{}
	if empty.TimePerReading() != 0 || empty.ReadingsPerSecond() != 0 {
		t.Error("zero throughput should not divide by zero")
	}
}

// TestScoreEventsDeterministic scores one event list many times: the sums
// run over the objects in a fixed order, so every report is bit-equal. Errors
// span several orders of magnitude so that any change in the order of the
// floating-point additions shows in the last bits.
func TestScoreEventsDeterministic(t *testing.T) {
	const tags = 1500
	truthLocs := make(map[stream.TagID]geom.Vec3, tags)
	var events []stream.Event
	for i := 0; i < tags; i++ {
		id := stream.TagID(fmt.Sprintf("obj-%04d", i))
		truthLocs[id] = geom.V(float64(i%37), float64(i%11), 0)
		scale := math.Pow(10, float64(i%7)-3)
		off := geom.V(scale*math.Sin(float64(i)), scale*math.Cos(float64(3*i)), 0.1*scale)
		events = append(events,
			stream.Event{Time: i % 5, Tag: id, Loc: truthLocs[id].Add(off.Scale(3))},
			stream.Event{Time: 10 + i%5, Tag: id, Loc: truthLocs[id].Add(off)})
	}
	truth := fixedTruth(truthLocs)
	first := ScoreEvents(events, truth)
	if first.Count != tags {
		t.Fatalf("count = %d, want %d", first.Count, tags)
	}
	for run := 1; run < 50; run++ {
		if rep := ScoreEvents(events, truth); rep != first {
			t.Fatalf("run %d: report %+v differs from the first %+v", run, rep, first)
		}
	}
}
