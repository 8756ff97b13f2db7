package query

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

func ev(t int, tag string, x, y float64) stream.Event {
	return stream.Event{Time: t, Tag: stream.TagID(tag), Loc: geom.V(x, y, 0)}
}

func TestTimeWindowEviction(t *testing.T) {
	w := NewTimeWindow(5)
	w.Push(ev(0, "a", 0, 0))
	w.Push(ev(3, "b", 0, 0))
	if w.Len() != 2 {
		t.Errorf("window length = %d, want 2 before expiry", w.Len())
	}
	w.Push(ev(9, "c", 0, 0))
	// Events older than 9-5=4 are evicted, leaving only the newest one.
	if w.Len() != 1 {
		t.Errorf("window length = %d, want 1 after expiry", w.Len())
	}
	w.AdvanceTo(20)
	if w.Len() != 0 {
		t.Errorf("window not emptied: %d", w.Len())
	}
}

func TestSquareFtArea(t *testing.T) {
	if SquareFtArea(geom.V(1.2, 3.9, 0)) != (AreaID{X: 1, Y: 3}) {
		t.Error("positive coordinates wrong")
	}
	if SquareFtArea(geom.V(-0.1, 0, 0)) != (AreaID{X: -1, Y: 0}) {
		t.Error("negative coordinates should floor, not truncate")
	}
	if (AreaID{X: 2, Y: -3}).String() != "(2,-3)" {
		t.Error("AreaID string wrong")
	}
}

func TestLocationUpdateQuery(t *testing.T) {
	q := NewLocationUpdateQuery(0.5)
	updates := q.Run([]stream.Event{
		ev(1, "a", 0, 0),   // first report: update
		ev(2, "a", 0.1, 0), // below threshold: no update
		ev(3, "a", 2, 0),   // moved: update
		ev(4, "b", 1, 1),   // first report of b: update
	})
	if len(updates) != 3 {
		t.Fatalf("updates = %v", updates)
	}
	if updates[0].HasPrev {
		t.Error("first report should have no previous location")
	}
	if !updates[1].HasPrev || updates[1].Prev != geom.V(0, 0, 0) {
		t.Errorf("second update previous = %+v", updates[1])
	}
	if updates[2].Tag != "b" {
		t.Error("third update should be for tag b")
	}
}

func TestLocationUpdateQueryZeroThresholdEmitsAllChanges(t *testing.T) {
	q := NewLocationUpdateQuery(0)
	updates := q.Run([]stream.Event{
		ev(1, "a", 0, 0),
		ev(2, "a", 0, 0), // identical location: distance 0 <= 0, suppressed
		ev(3, "a", 0.001, 0),
	})
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
}

func TestFireCodeQueryDetectsViolation(t *testing.T) {
	// Five 60-pound objects in the same square foot exceed 200 pounds; two do
	// not.
	q := NewFireCodeQuery(FireCodeConfig{
		WindowEpochs:    5,
		ThresholdPounds: 200,
		Weight:          func(stream.TagID) float64 { return 60 },
	})
	var events []stream.Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(1, string(rune('a'+i)), 2.5, 3.5))
	}
	events = append(events, ev(1, "far1", 9.5, 9.5), ev(1, "far2", 9.2, 9.8))
	// A second epoch so the Rstream of epoch 1 is evaluated.
	events = append(events, ev(2, "a", 2.5, 3.5))
	violations := q.Run(events)
	if len(violations) == 0 {
		t.Fatal("expected at least one violation")
	}
	for _, v := range violations {
		if v.Area != (AreaID{X: 2, Y: 3}) {
			t.Errorf("violation in unexpected area %v", v.Area)
		}
		if v.TotalWeight < 300-1e-9 {
			t.Errorf("violation weight = %v, want 300", v.TotalWeight)
		}
	}
}

func TestFireCodeQueryCountsLatestLocationPerTag(t *testing.T) {
	// An object that moved must not be double counted in its old and new
	// areas within the same window.
	q := NewFireCodeQuery(FireCodeConfig{
		WindowEpochs:    10,
		ThresholdPounds: 100,
		Weight:          func(stream.TagID) float64 { return 150 },
	})
	events := []stream.Event{
		ev(1, "a", 0.5, 0.5),
		ev(2, "a", 5.5, 5.5), // moved to a different area
		ev(3, "b", 9.9, 9.9),
	}
	violations := q.Run(events)
	for _, v := range violations {
		if v.Area == (AreaID{X: 0, Y: 0}) && v.Time >= 2 {
			t.Errorf("stale location still counted after the object moved: %+v", v)
		}
	}
}

func TestFireCodeQueryWindowExpires(t *testing.T) {
	q := NewFireCodeQuery(FireCodeConfig{
		WindowEpochs:    2,
		ThresholdPounds: 100,
		Weight:          func(stream.TagID) float64 { return 150 },
	})
	events := []stream.Event{
		ev(1, "a", 0.5, 0.5),
		ev(10, "b", 9.5, 9.5), // far later; a's event has left the window
	}
	violations := q.Run(events)
	for _, v := range violations {
		if v.Time >= 10 && v.Area == (AreaID{X: 0, Y: 0}) {
			t.Errorf("expired event still triggering violations: %+v", v)
		}
	}
}

func TestFireCodeDefaults(t *testing.T) {
	var cfg FireCodeConfig
	cfg.applyDefaults()
	if cfg.WindowEpochs != 5 || cfg.ThresholdPounds != 200 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Weight("x") != 1 {
		t.Error("default weight should be 1")
	}
	if got := NewFireCodeQuery(FireCodeConfig{}).Flush(); got != nil {
		t.Error("flush before any events should be nil")
	}
}
