package spatial

import (
	"repro/internal/geom"
	"repro/internal/stream"
)

// SensingIndex is the two-component index of Fig. 4(b)/(c): an R*-tree over
// the bounding boxes of past sensing regions, plus, for each bounding box,
// the set of objects that had at least one particle inside it when the box
// was inserted. Probing the index with the current sensing region yields the
// Case-2 objects: tags not read in the current epoch but read before near the
// current reader location, whose particles therefore need to be
// down-weighted.
//
// Consecutive regions overlap heavily (the reader creeps along a shelf), so
// member sets are stored as deltas. Tags are interned to dense int32 ids;
// entry k keeps its members in one run of the shared members column, stably
// partitioned so that the ids absent from entry k-1 form the run's suffix. A
// query reads the whole run of a hit whose predecessor is not a hit and only
// the suffix of one whose predecessor is. That union is exact: take an object
// in hit k, the contiguous run of hits i..k ending there, and the earliest m
// in i..k such that every entry m..k holds the object — either m == i and
// entry i is read whole, or entry m-1 is a hit that lacks the object, which
// is therefore in the suffix of m. A single sweep thus costs the first run
// plus the new members of the others instead of the sum of all runs.
type SensingIndex struct {
	tree    *RTree
	entries []indexEntry
	members []int32

	// Tag interning: tags[id] describes the tag with dense id id, ids is the
	// inverse.
	ids  map[stream.TagID]int32
	tags []indexTag

	// Query scratch. Every query takes a fresh generation; an entry or a tag
	// carrying the current generation was already hit or returned, so neither
	// a per-query map nor any clearing is needed.
	gen      uint32
	hits     []int
	freshBuf []int32

	// visited counts the member ids queries have read, for the work-bound test.
	visited int
}

// indexEntry is one stored sensing region: its members are
// members[lo:hi], of which members[fresh:hi] were absent from the previous
// entry. hit is the generation of the last query whose box intersected it.
type indexEntry struct {
	box           geom.BBox
	lo, fresh, hi int
	hit           uint32
}

// indexTag is one interned tag. last is the newest entry holding it, which is
// all Insert needs to partition and de-duplicate a member list; seen is the
// generation of the last query that returned it.
type indexTag struct {
	tag  stream.TagID
	last int32
	seen uint32
}

// noEntry is indexTag.last before any entry holds the tag; it is not -1 so
// that it never reads as "in the entry before entry 0".
const noEntry = -2

// NewSensingIndex returns an empty index.
func NewSensingIndex() *SensingIndex {
	return &SensingIndex{tree: NewRTree(8), ids: make(map[stream.TagID]int32)}
}

// Len returns the number of indexed sensing regions.
func (x *SensingIndex) Len() int { return len(x.entries) }

// Insert records a sensing-region bounding box together with the objects that
// currently have at least one particle inside it. Boxes with no associated
// objects are not stored. The index keeps interned ids, not objs, so the
// caller may reuse the slice; duplicate tags in objs are stored once.
func (x *SensingIndex) Insert(box geom.BBox, objs []stream.TagID) {
	if box.IsEmpty() || len(objs) == 0 {
		return
	}
	k := int32(len(x.entries))
	lo := len(x.members)
	fresh := x.freshBuf[:0]
	for _, obj := range objs {
		id, ok := x.ids[obj]
		if !ok {
			id = int32(len(x.tags))
			x.ids[obj] = id
			x.tags = append(x.tags, indexTag{tag: obj, last: noEntry})
		}
		switch t := &x.tags[id]; t.last {
		case k: // duplicate within objs
		case k - 1:
			x.members = append(x.members, id)
			t.last = k
		default:
			fresh = append(fresh, id)
			t.last = k
		}
	}
	x.freshBuf = fresh
	x.entries = append(x.entries, indexEntry{box: box, lo: lo, fresh: len(x.members), hi: len(x.members) + len(fresh)})
	x.members = append(x.members, fresh...)
	x.tree.Insert(box, int(k))
}

// Query returns the union of the objects associated with every indexed
// sensing region that overlaps the query box, de-duplicated, in no particular
// order.
func (x *SensingIndex) Query(box geom.BBox) []stream.TagID {
	return x.QueryInto(box, nil)
}

// QueryInto is Query appending into a caller-owned buffer (pass dst[:0] to
// reuse its backing array). The first pass stamps the R-tree hits with the
// query's generation, the second reads each hit's whole run or only its
// fresh suffix (see SensingIndex) and stamps the tags it returns. The stamps
// and the hit list live in the index, so a warm caller probes without
// allocating; consequently the index is not safe for concurrent queries (the
// engine only queries from the sequential epoch prologue).
func (x *SensingIndex) QueryInto(box geom.BBox, dst []stream.TagID) []stream.TagID {
	if x.gen++; x.gen == 0 {
		// Generation wrap-around: forget every stamp rather than let one from
		// 2^32 queries ago pass for current.
		for id := range x.tags {
			x.tags[id].seen = 0
		}
		for k := range x.entries {
			x.entries[k].hit = 0
		}
		x.gen = 1
	}
	gen := x.gen
	x.hits = x.hits[:0]
	x.tree.SearchFunc(box, func(k int) {
		x.entries[k].hit = gen
		x.hits = append(x.hits, k)
	})
	for _, k := range x.hits {
		e := &x.entries[k]
		lo := e.lo
		if k > 0 && x.entries[k-1].hit == gen {
			lo = e.fresh
		}
		x.visited += e.hi - lo
		for _, id := range x.members[lo:e.hi] {
			if t := &x.tags[id]; t.seen != gen {
				t.seen = gen
				dst = append(dst, t.tag)
			}
		}
	}
	return dst
}

// QueryBoxes returns the bounding boxes overlapping the query box; exposed
// for tests and diagnostics.
func (x *SensingIndex) QueryBoxes(box geom.BBox) []geom.BBox {
	var out []geom.BBox
	x.tree.SearchFunc(box, func(k int) {
		out = append(out, x.entries[k].box)
	})
	return out
}
