package spatial

import (
	"repro/internal/checkpoint"
	"repro/internal/stream"
)

const indexSection = "spatial.SensingIndex"

// SaveState appends the index contents — every sensing-region box with its
// associated objects, in insertion order — to the encoder. The R*-tree itself
// is not serialized: insertion is deterministic, so RestoreState rebuilds an
// identical tree by replaying the insertions.
func (x *SensingIndex) SaveState(e *checkpoint.Encoder) {
	e.Section(indexSection)
	e.Uvarint(uint64(len(x.entries)))
	for _, en := range x.entries {
		e.BBox(en.box)
		e.Uvarint(uint64(en.hi - en.lo))
		for _, id := range x.members[en.lo:en.hi] {
			e.String(string(x.tags[id].tag))
		}
	}
}

// RestoreState rebuilds the index from a SaveState payload by re-inserting
// every entry in its original order, which also rebuilds the interning and the
// fresh-member partitions (re-partitioning a stored run leaves it as it was,
// so a restored index saves to the same bytes); the index must be freshly
// constructed. Corrupt input errors, never panics.
func (x *SensingIndex) RestoreState(d *checkpoint.Decoder) error {
	d.Section(indexSection)
	n := d.SliceLen(8 * 6)
	var objs []stream.TagID
	for i := 0; i < n && d.Err() == nil; i++ {
		box := d.BBox()
		m := d.SliceLen(1)
		objs = objs[:0]
		for j := 0; j < m && d.Err() == nil; j++ {
			objs = append(objs, stream.TagID(d.String()))
		}
		if d.Err() == nil {
			x.Insert(box, objs)
		}
	}
	return d.Err()
}
