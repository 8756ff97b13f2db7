package spatial

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stream"
)

// refIndex is the definition the delta-union index must reproduce: every
// inserted region keeps its own member list, and a query is the union over
// every stored region whose box intersects the query box.
type refIndex struct {
	boxes   []geom.BBox
	members [][]stream.TagID
}

func (r *refIndex) insert(box geom.BBox, objs []stream.TagID) {
	if box.IsEmpty() || len(objs) == 0 {
		return
	}
	r.boxes = append(r.boxes, box)
	r.members = append(r.members, append([]stream.TagID(nil), objs...))
}

// hits returns the stored regions intersecting box, ascending.
func (r *refIndex) hits(box geom.BBox) []int {
	var out []int
	if box.IsEmpty() {
		return out
	}
	for k, b := range r.boxes {
		if b.Intersects(box) {
			out = append(out, k)
		}
	}
	return out
}

func (r *refIndex) query(box geom.BBox) []stream.TagID {
	set := map[stream.TagID]bool{}
	for _, k := range r.hits(box) {
		for _, id := range r.members[k] {
			set[id] = true
		}
	}
	return sortedTags(set)
}

func sortedTags(set map[stream.TagID]bool) []stream.TagID {
	out := make([]stream.TagID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// asSet sorts a query result and fails the test on a duplicate.
func asSet(t *testing.T, what string, got []stream.TagID) []stream.TagID {
	t.Helper()
	set := map[stream.TagID]bool{}
	for _, id := range got {
		if set[id] {
			t.Fatalf("%s: %q returned twice", what, id)
		}
		set[id] = true
	}
	return sortedTags(set)
}

// sweepPath returns the reader's y positions for a scan shape over a shelf of
// the given length: one pass, out and back, or two passes in the same
// direction (the batch-warehouse Rounds: 2 shape, where a query's hits are two
// separate runs of entries).
func sweepPath(shape string, length, step float64) []float64 {
	var out []float64
	forward := func() {
		for y := 0.0; y <= length; y += step {
			out = append(out, y)
		}
	}
	forward()
	switch shape {
	case "out-and-back":
		for y := length; y >= 0; y -= step {
			out = append(out, y)
		}
	case "two-passes":
		forward()
	}
	return out
}

const sweepRange = 2.5

// sweepInsert is what the engine would index at reader position y: the
// sensing box and the objects in it, each dropped with probability dropout
// (a belief's particles drift in and out of a region, so an object's
// membership is not one contiguous run of entries).
func sweepInsert(src *rng.Source, y float64, objects []float64, dropout float64) (geom.BBox, []stream.TagID) {
	box := geom.BBoxAround(geom.V(0, y, 0), sweepRange)
	var objs []stream.TagID
	for i, oy := range objects {
		if math.Abs(oy-y) <= sweepRange && src.Float64() >= dropout {
			objs = append(objs, stream.TagID(fmt.Sprintf("obj-%04d", i)))
		}
	}
	return box, objs
}

func saveIndex(x *SensingIndex) []byte {
	enc := checkpoint.NewEncoder()
	x.SaveState(enc)
	return append([]byte(nil), enc.Bytes()...)
}

// TestSensingIndexMatchesBruteForce drives the index and the reference
// through seeded random scans — queries interleaved with inserts, empty and
// duplicate-member inserts thrown in, and a SaveState/RestoreState in the
// middle after which the restored copy runs on beside the original — and
// requires every query to return the reference's set.
func TestSensingIndexMatchesBruteForce(t *testing.T) {
	for _, shape := range []string{"single", "out-and-back", "two-passes"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", shape, seed), func(t *testing.T) {
				src := rng.New(seed)
				objects := make([]float64, 300)
				for i := range objects {
					objects[i] = src.Uniform(0, 40)
				}
				path := sweepPath(shape, 40, src.Uniform(0.2, 0.6))
				restoreAt := src.Intn(len(path))

				x, ref := NewSensingIndex(), &refIndex{}
				var restored *SensingIndex
				check := func(what string, box geom.BBox) {
					t.Helper()
					want := ref.query(box)
					if got := asSet(t, what, x.Query(box)); !slices.Equal(got, want) {
						t.Fatalf("%s: got %d tags %v, want %d %v", what, len(got), got, len(want), want)
					}
					if restored != nil {
						if got := asSet(t, what+" (restored)", restored.Query(box)); !slices.Equal(got, want) {
							t.Fatalf("%s (restored): got %d tags, want %d", what, len(got), len(want))
						}
					}
				}
				insert := func(box geom.BBox, objs []stream.TagID) {
					x.Insert(box, objs)
					ref.insert(box, objs)
					if restored != nil {
						restored.Insert(box, objs)
					}
				}

				for step, y := range path {
					box, objs := sweepInsert(src, y, objects, 0.15)
					// The engine probes with the epoch's box before it
					// inserts that box.
					check(fmt.Sprintf("step %d probe", step), box)
					switch src.Intn(8) {
					case 0:
						insert(box, nil)
					case 1:
						insert(geom.EmptyBBox(), objs)
					case 2:
						objs = append(objs, objs...)
					}
					insert(box, objs)
					if src.Intn(4) == 0 {
						far := geom.BBoxAround(geom.V(0, src.Uniform(-5, 45), 0), src.Uniform(0.1, 6))
						check(fmt.Sprintf("step %d random", step), far)
					}
					if step == restoreAt {
						saved := saveIndex(x)
						restored = NewSensingIndex()
						if err := restored.RestoreState(checkpoint.NewDecoder(saved)); err != nil {
							t.Fatalf("restore: %v", err)
						}
						if !bytes.Equal(saveIndex(restored), saved) {
							t.Fatal("a restored index does not save to the bytes it was restored from")
						}
					}
				}
				check("everything", geom.BBoxAround(geom.V(0, 20, 0), 100))
				check("nothing", geom.BBoxAround(geom.V(0, 500, 0), 1))
				check("empty box", geom.EmptyBBox())
				if x.Len() != len(ref.boxes) || restored.Len() != x.Len() {
					t.Fatalf("Len = %d (restored %d), want %d", x.Len(), restored.Len(), len(ref.boxes))
				}
				if !bytes.Equal(saveIndex(restored), saveIndex(x)) {
					t.Fatal("restored and original index diverged in what they save")
				}
			})
		}
	}
}

// TestSensingIndexRestoresArbitraryMemberOrder restores a payload shaped like
// one written before members were partitioned: any order inside an entry.
func TestSensingIndexRestoresArbitraryMemberOrder(t *testing.T) {
	src := rng.New(9)
	objects := make([]float64, 120)
	for i := range objects {
		objects[i] = src.Uniform(0, 20)
	}
	ref := &refIndex{}
	enc := checkpoint.NewEncoder()
	enc.Section(indexSection)
	path := sweepPath("two-passes", 20, 0.4)
	enc.Uvarint(uint64(len(path)))
	for _, y := range path {
		box, objs := sweepInsert(src, y, objects, 0)
		for i := len(objs) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			objs[i], objs[j] = objs[j], objs[i]
		}
		ref.insert(box, objs)
		enc.BBox(box)
		enc.Uvarint(uint64(len(objs)))
		for _, id := range objs {
			enc.String(string(id))
		}
	}
	x := NewSensingIndex()
	if err := x.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, y := range path {
		box := geom.BBoxAround(geom.V(0, y, 0), 1)
		if got, want := asSet(t, "probe", x.Query(box)), ref.query(box); !slices.Equal(got, want) {
			t.Fatalf("probe at y=%.1f: got %v, want %v", y, got, want)
		}
	}
}

// TestSensingIndexQueryWorkBound is the deterministic form of "a query costs
// the objects in range": on a single sweep the member ids a query reads are
// at most the largest hit list plus the members new at each hit — not the sum
// of the overlapping lists.
func TestSensingIndexQueryWorkBound(t *testing.T) {
	src := rng.New(3)
	objects := make([]float64, 600)
	for i := range objects {
		objects[i] = src.Uniform(0, 30)
	}
	x, ref := NewSensingIndex(), &refIndex{}
	var sumLists, sumVisited int
	for _, y := range sweepPath("single", 30, 0.1) {
		box, objs := sweepInsert(src, y, objects, 0.02)

		largest, fresh, lists := 0, 0, 0
		for _, k := range ref.hits(box) {
			lists += len(ref.members[k])
			largest = max(largest, len(ref.members[k]))
			prev := map[stream.TagID]bool{}
			if k > 0 {
				for _, id := range ref.members[k-1] {
					prev[id] = true
				}
			}
			for _, id := range ref.members[k] {
				if !prev[id] {
					fresh++
				}
			}
		}
		before := x.visited
		x.Query(box)
		if got := x.visited - before; got > largest+fresh {
			t.Fatalf("y=%.2f: query read %d member ids; bound is %d (largest list) + %d (new members) over lists totalling %d",
				y, got, largest, fresh, lists)
		}
		sumLists += lists
		sumVisited += x.visited - before
		x.Insert(box, objs)
		ref.insert(box, objs)
	}
	// The bound is not vacuous: the sweep's queries overlap ~50 regions each.
	if sumVisited*5 > sumLists {
		t.Errorf("queries read %d member ids of %d listed; expected under a fifth", sumVisited, sumLists)
	}
}

// TestSensingIndexQueryZeroAlloc pins that a warm probe into a reused buffer
// allocates nothing: no per-query map, no closure, no hit list.
func TestSensingIndexQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	src := rng.New(5)
	objects := make([]float64, 400)
	for i := range objects {
		objects[i] = src.Uniform(0, 20)
	}
	x := NewSensingIndex()
	for _, y := range sweepPath("two-passes", 20, 0.1) {
		x.Insert(sweepInsert(src, y, objects, 0.1))
	}
	box := geom.BBoxAround(geom.V(0, 10, 0), sweepRange)
	buf := x.QueryInto(box, nil)
	if len(buf) == 0 {
		t.Fatal("probe returned nothing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = x.QueryInto(box, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("warm QueryInto allocated %.2f times per probe; want 0", allocs)
	}
}

// TestSensingIndexGenerationWrap pins that stamps left by earlier queries do
// not pass for current when the 32-bit query generation wraps.
func TestSensingIndexGenerationWrap(t *testing.T) {
	x := NewSensingIndex()
	box := geom.BBoxAround(geom.V(0, 0, 0), 1)
	x.Insert(box, []stream.TagID{"a", "b"})
	x.Insert(box, []stream.TagID{"b", "c"})
	x.Query(box) // stamps everything with generation 1
	x.gen = math.MaxUint32
	for i := 0; i < 3; i++ {
		if got := asSet(t, "wrap", x.Query(box)); len(got) != 3 {
			t.Fatalf("query %d across the wrap returned %v, want a b c", i, got)
		}
	}
}
