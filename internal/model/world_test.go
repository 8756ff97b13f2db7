package model

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func twoShelfWorld() *World {
	w := NewWorld()
	w.AddShelf(Shelf{ID: "a", Region: geom.NewBBox(geom.V(0, 0, 0), geom.V(1, 10, 0))})
	w.AddShelf(Shelf{ID: "b", Region: geom.NewBBox(geom.V(5, 0, 0), geom.V(6, 10, 0))})
	w.AddShelfTag("s1", geom.V(0, 2, 0))
	w.AddShelfTag("s2", geom.V(0, 8, 0))
	return w
}

func TestWorldShelfTagBookkeeping(t *testing.T) {
	w := twoShelfWorld()
	if !w.IsShelfTag("s1") || w.IsShelfTag("other") {
		t.Error("IsShelfTag misbehaves")
	}
	ids := w.ShelfTagIDs()
	if len(ids) != 2 || ids[0] != "s1" || ids[1] != "s2" {
		t.Errorf("ShelfTagIDs = %v", ids)
	}
	// AddShelfTag on a world created without the map must not panic.
	var zero World
	zero.AddShelfTag("x", geom.V(1, 1, 1))
	if !zero.IsShelfTag("x") {
		t.Error("AddShelfTag on zero-value world failed")
	}
}

func TestWorldShelfBBox(t *testing.T) {
	w := twoShelfWorld()
	box := w.ShelfBBox()
	if !box.Contains(geom.V(0.5, 5, 0)) || !box.Contains(geom.V(5.5, 5, 0)) {
		t.Error("shelf bbox does not cover the shelves")
	}
	if NewWorld().ShelfBBox().IsEmpty() == false {
		t.Error("empty world should have an empty shelf bbox")
	}
}

func TestUniformOnShelvesStaysOnShelves(t *testing.T) {
	w := twoShelfWorld()
	src := rng.New(3)
	onA, onB := 0, 0
	for i := 0; i < 2000; i++ {
		p := w.UniformOnShelves(src)
		switch {
		case w.Shelves[0].Contains(p):
			onA++
		case w.Shelves[1].Contains(p):
			onB++
		default:
			t.Fatalf("sample %v is on no shelf", p)
		}
	}
	// The two shelves have equal area so samples should split roughly evenly.
	if onA < 800 || onB < 800 {
		t.Errorf("uneven shelf sampling: %d vs %d", onA, onB)
	}
	if (NewWorld()).UniformOnShelves(src) != (geom.Vec3{}) {
		t.Error("empty world should return the origin")
	}
}

func TestNearestShelfAndClamp(t *testing.T) {
	w := twoShelfWorld()
	sh, ok := w.NearestShelf(geom.V(5.6, 1, 0))
	if !ok || sh.ID != "b" {
		t.Errorf("NearestShelf = %v", sh.ID)
	}
	// A point already on a shelf is unchanged.
	p := geom.V(0.5, 5, 0)
	if w.ClampToShelves(p) != p {
		t.Error("on-shelf point was moved")
	}
	// A point in the aisle is clamped onto the closest shelf region.
	clamped := w.ClampToShelves(geom.V(2, 5, 0))
	if !w.Shelves[0].Contains(clamped) && !w.Shelves[1].Contains(clamped) {
		t.Errorf("clamped point %v is on no shelf", clamped)
	}
	if _, ok := NewWorld().NearestShelf(p); ok {
		t.Error("empty world should have no nearest shelf")
	}
}

// TestNearestShelfCacheMatchesScan pins the cached-centre lookups to a scan
// that recomputes every centre — same shelf, first of equally close ones —
// for worlds built through AddShelf and for one whose Shelves grew directly
// (stale cache), and checks the cached path allocates nothing.
func TestNearestShelfCacheMatchesScan(t *testing.T) {
	scan := func(w *World, p geom.Vec3) int {
		best, bestD := 0, p.Dist(w.Shelves[0].Region.Center())
		for i := 1; i < len(w.Shelves); i++ {
			if d := p.Dist(w.Shelves[i].Region.Center()); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	w := twoShelfWorld()
	// A twin of shelf a: equally close everywhere, so a must keep winning.
	w.AddShelf(Shelf{ID: "a-twin", Region: w.Shelves[0].Region})
	w.AddShelf(Shelf{ID: "c", Region: geom.NewBBox(geom.V(-3, 12, 0), geom.V(-2, 20, 1))})
	stale := twoShelfWorld()
	stale.Shelves = append(stale.Shelves, Shelf{ID: "direct", Region: geom.NewBBox(geom.V(9, -4, 0), geom.V(10, -1, 0))})
	src := rng.New(9)
	for _, world := range []*World{w, stale} {
		for i := 0; i < 2000; i++ {
			p := geom.V(src.Float64()*16-4, src.Float64()*30-6, src.Float64()*2-0.5)
			best := scan(world, p)
			if sh, _ := world.NearestShelf(p); sh.ID != world.Shelves[best].ID {
				t.Fatalf("NearestShelf(%v) = %s, scan says %s", p, sh.ID, world.Shelves[best].ID)
			}
			want := p
			if !world.Shelves[best].Contains(p) {
				onShelf := false
				for _, s := range world.Shelves {
					onShelf = onShelf || s.Contains(p)
				}
				if !onShelf {
					r := world.Shelves[best].Region
					want = geom.V(geom.Clamp(p.X, r.Min.X, r.Max.X), geom.Clamp(p.Y, r.Min.Y, r.Max.Y), geom.Clamp(p.Z, r.Min.Z, r.Max.Z))
				}
			}
			if got := world.ClampToShelves(p); got != want {
				t.Fatalf("ClampToShelves(%v) = %v, want %v", p, got, want)
			}
		}
	}
	p := geom.V(3, 5, 0)
	if n := testing.AllocsPerRun(100, func() { w.ClampToShelves(p) }); n != 0 {
		t.Fatalf("ClampToShelves allocates %v times per call", n)
	}
}

func TestWorldValidate(t *testing.T) {
	w := twoShelfWorld()
	if err := w.Validate(); err != nil {
		t.Errorf("valid world rejected: %v", err)
	}
	if err := NewWorld().Validate(); err == nil {
		t.Error("world without shelves should be invalid")
	}
	dup := NewWorld()
	dup.AddShelf(Shelf{ID: "x", Region: geom.NewBBox(geom.V(0, 0, 0), geom.V(1, 1, 0))})
	dup.AddShelf(Shelf{ID: "x", Region: geom.NewBBox(geom.V(2, 0, 0), geom.V(3, 1, 0))})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate shelf ids should be invalid")
	}
	empty := NewWorld()
	empty.AddShelf(Shelf{ID: "e", Region: geom.EmptyBBox()})
	if err := empty.Validate(); err == nil {
		t.Error("empty shelf region should be invalid")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Sensor.MaxRange <= 0 {
		t.Error("default sensor has no range")
	}
	if p.Motion.Velocity.Y <= 0 {
		t.Error("default motion model should move along +y")
	}
	if p.Object.MoveProb <= 0 || p.Object.MoveProb > 0.01 {
		t.Errorf("default object move probability = %v", p.Object.MoveProb)
	}
}
