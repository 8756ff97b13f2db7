// Package spatial implements the spatial indexing technique of Section IV-C:
// a simplified R*-tree over the bounding boxes of past reader sensing
// regions, together with a mapping from each bounding box to the objects that
// had at least one particle inside it. At each epoch the inference engine
// probes the index with the current sensing region to find the Case-2 objects
// (not read now, but read before near the current reader location) and skips
// the Case-4 objects entirely.
package spatial

import (
	"repro/internal/geom"
)

// RTree is a simplified R*-tree over axis-aligned bounding boxes with integer
// payloads. Nodes are split with the classic quadratic-cost heuristic and the
// choose-subtree step minimizes volume enlargement, which is the part of the
// R*-tree design that matters for this workload (bounding boxes arrive in a
// spatially coherent order as the reader sweeps the warehouse).
type RTree struct {
	root       *rtreeNode
	maxEntries int
	minEntries int
	size       int
}

type rtreeEntry struct {
	box   geom.BBox
	id    int        // leaf payload
	child *rtreeNode // non-leaf pointer
}

type rtreeNode struct {
	leaf    bool
	entries []rtreeEntry
}

// NewRTree returns an empty tree. maxEntries controls the node fan-out;
// values below 4 are raised to 4.
func NewRTree(maxEntries int) *RTree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &RTree{
		root:       &rtreeNode{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries / 2,
	}
}

// Len returns the number of stored entries.
func (t *RTree) Len() int { return t.size }

// Insert adds a bounding box with an integer payload.
func (t *RTree) Insert(box geom.BBox, id int) {
	if box.IsEmpty() {
		return
	}
	t.size++
	leaf := t.chooseLeaf(t.root, box, nil)
	leaf.node.entries = append(leaf.node.entries, rtreeEntry{box: box, id: id})
	t.adjustTree(leaf)
}

// Search returns the payloads of all entries whose boxes intersect the query
// box.
func (t *RTree) Search(box geom.BBox) []int {
	var out []int
	t.SearchFunc(box, func(id int) { out = append(out, id) })
	return out
}

// SearchFunc invokes fn for every payload whose box intersects the query box.
// It allocates nothing itself, so a caller whose fn does not escape searches
// allocation-free.
func (t *RTree) SearchFunc(box geom.BBox, fn func(id int)) {
	if !box.IsEmpty() {
		t.root.search(box, fn)
	}
}

func (n *rtreeNode) search(box geom.BBox, fn func(id int)) {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.box.Intersects(box) {
			continue
		}
		if n.leaf {
			fn(e.id)
		} else {
			e.child.search(box, fn)
		}
	}
}

// path records the descent from the root so splits can propagate upward.
type rtreePath struct {
	node   *rtreeNode
	parent *rtreePath
	// entryIdx is the index of this node's entry within the parent.
	entryIdx int
}

// chooseLeaf descends to the leaf whose bounding box needs the least volume
// enlargement to accommodate the new box (ties broken by smaller volume).
func (t *RTree) chooseLeaf(n *rtreeNode, box geom.BBox, parent *rtreePath) *rtreePath {
	self := &rtreePath{node: n, parent: parent}
	if n.leaf {
		return self
	}
	best := 0
	bestEnl := n.entries[0].box.Enlargement(box)
	bestVol := n.entries[0].box.Volume()
	for i := 1; i < len(n.entries); i++ {
		enl := n.entries[i].box.Enlargement(box)
		vol := n.entries[i].box.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	self.entryIdx = best
	child := n.entries[best].child
	path := t.chooseLeaf(child, box, self)
	return path
}

// adjustTree updates bounding boxes along the insertion path and splits
// overflowing nodes, growing the tree at the root when necessary.
func (t *RTree) adjustTree(p *rtreePath) {
	for p != nil {
		n := p.node
		if p.parent != nil {
			// Refresh the parent's bounding box for this child.
			p.parent.node.entries[p.parent.entryIdx].box = nodeBBox(n)
		}
		if len(n.entries) > t.maxEntries {
			left, right := t.splitNode(n)
			if p.parent == nil {
				// Grow a new root.
				newRoot := &rtreeNode{leaf: false}
				newRoot.entries = append(newRoot.entries,
					rtreeEntry{box: nodeBBox(left), child: left},
					rtreeEntry{box: nodeBBox(right), child: right},
				)
				t.root = newRoot
			} else {
				parent := p.parent.node
				parent.entries[p.parent.entryIdx] = rtreeEntry{box: nodeBBox(left), child: left}
				parent.entries = append(parent.entries, rtreeEntry{box: nodeBBox(right), child: right})
			}
		}
		p = p.parent
	}
}

func nodeBBox(n *rtreeNode) geom.BBox {
	b := geom.EmptyBBox()
	for _, e := range n.entries {
		b = b.Union(e.box)
	}
	return b
}

// splitNode splits an overflowing node with the quadratic heuristic: pick the
// pair of entries that would waste the most volume if grouped together as
// seeds, then assign remaining entries to the group needing least
// enlargement.
func (t *RTree) splitNode(n *rtreeNode) (*rtreeNode, *rtreeNode) {
	entries := n.entries
	seedA, seedB := pickSeeds(entries)

	left := &rtreeNode{leaf: n.leaf, entries: []rtreeEntry{entries[seedA]}}
	right := &rtreeNode{leaf: n.leaf, entries: []rtreeEntry{entries[seedB]}}
	leftBox := entries[seedA].box
	rightBox := entries[seedB].box

	for i, e := range entries {
		if i == seedA || i == seedB {
			continue
		}
		remaining := len(entries) - i
		// Force assignment when one group must take all remaining entries to
		// reach the minimum fill.
		if len(left.entries)+remaining <= t.minEntries {
			left.entries = append(left.entries, e)
			leftBox = leftBox.Union(e.box)
			continue
		}
		if len(right.entries)+remaining <= t.minEntries {
			right.entries = append(right.entries, e)
			rightBox = rightBox.Union(e.box)
			continue
		}
		enlL := leftBox.Enlargement(e.box)
		enlR := rightBox.Enlargement(e.box)
		if enlL < enlR || (enlL == enlR && leftBox.Volume() <= rightBox.Volume()) {
			left.entries = append(left.entries, e)
			leftBox = leftBox.Union(e.box)
		} else {
			right.entries = append(right.entries, e)
			rightBox = rightBox.Union(e.box)
		}
	}

	// Reuse n as the left node so parent pointers that reference it stay
	// valid; return both halves.
	n.entries = left.entries
	n.leaf = left.leaf
	return n, right
}

// pickSeeds returns the indices of the two entries whose combined bounding
// box wastes the most volume (the quadratic split seed selection).
func pickSeeds(entries []rtreeEntry) (int, int) {
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			union := entries[i].box.Union(entries[j].box)
			waste := union.Volume() - entries[i].box.Volume() - entries[j].box.Volume()
			if waste > worst {
				worst = waste
				seedA, seedB = i, j
			}
		}
	}
	return seedA, seedB
}

// Height returns the height of the tree (1 for a tree that is just a leaf).
func (t *RTree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.entries[0].child
	}
	return h
}
