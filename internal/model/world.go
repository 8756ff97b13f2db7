// Package model defines the probabilistic data-generation model of Section
// III: the description of the physical world (shelves, shelf tags, objects),
// the reader motion model, the reader location sensing model, the object
// location model and the parametric sensor model, combined into the dynamic
// Bayesian network of Fig. 1.
package model

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sensor"
	"repro/internal/stream"
)

// Shelf is one fixed shelf in the storage area. Objects rest somewhere within
// the shelf's region.
type Shelf struct {
	ID     string
	Region geom.BBox
}

// Contains reports whether a point lies on the shelf.
func (s Shelf) Contains(p geom.Vec3) bool { return s.Region.Contains(p) }

// World describes the static part of the physical environment: the shelves
// and the shelf tags whose exact locations are known a priori. Object tag
// locations are unknown and are what inference estimates.
type World struct {
	Shelves []Shelf
	// ShelfTags maps a shelf tag id to its known, fixed location S_i.
	ShelfTags map[stream.TagID]geom.Vec3

	// Caches, so the per-epoch hot paths (shelf-tag weighting, uniform
	// relocation, clamping fresh particles to the nearest shelf) and every
	// engine built over the world do not rebuild them. AddShelf extends the
	// per-shelf caches in O(1); the tag order and the fingerprint input are
	// built once, on first use after an Add, and published atomically, so
	// concurrent readers of a finished world never race. Build worlds
	// through AddShelf/AddShelfTag: staleness from direct mutation is
	// detected by length only, so adding or removing entries directly makes
	// the accessors recompute (correct, just slower), but replacing an
	// existing shelf or tag in place without going through the Add methods
	// leaves the caches stale.
	shelfWeights []float64
	shelfCenters []geom.Vec3
	derived      atomic.Pointer[derived]
}

// derived is what a world holding shelves shelves and tags shelf tags
// computes from them once they are in place.
type derived struct {
	shelves, tags int
	tagIDs        []stream.TagID
	fpInput       []byte
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{ShelfTags: make(map[stream.TagID]geom.Vec3)}
}

// AddShelf appends a shelf to the world.
func (w *World) AddShelf(s Shelf) {
	w.Shelves = append(w.Shelves, s)
	if n := len(w.Shelves) - 1; len(w.shelfWeights) == n && len(w.shelfCenters) == n {
		w.shelfWeights = append(w.shelfWeights, shelfVolumeWeight(s))
		w.shelfCenters = append(w.shelfCenters, s.Region.Center())
	} else {
		w.shelfWeights = shelfVolumeWeights(w.Shelves)
		w.shelfCenters = shelfCenters(w.Shelves)
	}
	w.derived.Store(nil)
}

// AddShelfTag registers a shelf tag with a known location.
func (w *World) AddShelfTag(id stream.TagID, loc geom.Vec3) {
	if w.ShelfTags == nil {
		w.ShelfTags = make(map[stream.TagID]geom.Vec3)
	}
	w.ShelfTags[id] = loc
	w.derived.Store(nil)
}

// IsShelfTag reports whether the id belongs to a shelf tag.
func (w *World) IsShelfTag(id stream.TagID) bool {
	_, ok := w.ShelfTags[id]
	return ok
}

// ShelfTagIDs returns the shelf tag ids in deterministic (sorted) order. The
// returned slice is a world-owned cache that callers must treat as read-only;
// it is sorted once after the last Add, so the per-epoch shelf-tag weighting
// pass reads it without allocating.
func (w *World) ShelfTagIDs() []stream.TagID { return w.cached().tagIDs }

// FingerprintInput returns the world's part of the engine-configuration
// fingerprint input: the shelf count, every shelf and every shelf tag in
// ShelfTagIDs order. It is formatted once after the last Add, so building
// another engine over the same world does not format it again. The returned
// slice is world-owned and read-only.
func (w *World) FingerprintInput() []byte { return w.cached().fpInput }

// cached returns the world's derived caches, building them if an Add (or a
// direct mutation that changed a length) made them stale.
func (w *World) cached() *derived {
	if d := w.derived.Load(); d != nil && d.shelves == len(w.Shelves) && d.tags == len(w.ShelfTags) {
		return d
	}
	d := &derived{shelves: len(w.Shelves), tags: len(w.ShelfTags), tagIDs: sortedShelfTagIDs(w.ShelfTags)}
	d.fpInput = fmt.Appendf(nil, "shelves=%d|", d.shelves)
	for _, s := range w.Shelves {
		d.fpInput = fmt.Appendf(d.fpInput, "shelf=%s:%v|", s.ID, s.Region)
	}
	for _, id := range d.tagIDs {
		d.fpInput = fmt.Appendf(d.fpInput, "tag=%s:%v|", id, w.ShelfTags[id])
	}
	w.derived.Store(d)
	return d
}

// sortedShelfTagIDs returns the map keys in sorted order.
func sortedShelfTagIDs(tags map[stream.TagID]geom.Vec3) []stream.TagID {
	out := make([]stream.TagID, 0, len(tags))
	for id := range tags {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShelfBBox returns the union of all shelf regions. It bounds the area where
// objects can legally be located and is used both by the object location
// model (uniform relocation across shelves) and by the uniform baseline.
func (w *World) ShelfBBox() geom.BBox {
	b := geom.EmptyBBox()
	for _, s := range w.Shelves {
		b = b.Union(s.Region)
	}
	return b
}

// UniformOnShelves draws a point uniformly at random across the shelf
// regions, weighting each shelf by its volume (or area for flat shelves).
// The shelf weights come from a cache maintained by AddShelf, so the object
// relocation proposal draws without allocating.
func (w *World) UniformOnShelves(src *rng.Source) geom.Vec3 {
	if len(w.Shelves) == 0 {
		return geom.Vec3{}
	}
	weights := w.shelfWeights
	if len(weights) != len(w.Shelves) {
		// Shelves was mutated directly; recompute without touching the cache.
		weights = shelfVolumeWeights(w.Shelves)
	}
	idx := src.Categorical(weights)
	return src.UniformInBox(w.Shelves[idx].Region)
}

// shelfVolumeWeights computes the per-shelf selection weights for
// UniformOnShelves.
func shelfVolumeWeights(shelves []Shelf) []float64 {
	weights := make([]float64, len(shelves))
	for i, s := range shelves {
		weights[i] = shelfVolumeWeight(s)
	}
	return weights
}

// shelfVolumeWeight is one shelf's selection weight: its volume, or the sum
// of its face areas for a degenerate (flat or linear) shelf so it is still
// selectable.
func shelfVolumeWeight(s Shelf) float64 {
	v := s.Region.Volume()
	if v <= 0 {
		sz := s.Region.Size()
		v = sz.X*sz.Y + sz.Y*sz.Z + sz.X*sz.Z
		if v <= 0 {
			v = 1
		}
	}
	return v
}

// shelfCenters returns the region center of every shelf.
func shelfCenters(shelves []Shelf) []geom.Vec3 {
	centers := make([]geom.Vec3, len(shelves))
	for i := range shelves {
		centers[i] = shelves[i].Region.Center()
	}
	return centers
}

// NearestShelf returns the shelf whose region center is closest to p, or
// false when the world has no shelves.
func (w *World) NearestShelf(p geom.Vec3) (Shelf, bool) {
	if len(w.Shelves) == 0 {
		return Shelf{}, false
	}
	return w.Shelves[w.nearestShelf(p)], true
}

// nearestShelf returns the index of the shelf whose region center is closest
// to p (the first of equally close ones); the world must have shelves. The
// centers come from the cache maintained by AddShelf.
func (w *World) nearestShelf(p geom.Vec3) int {
	centers := w.shelfCenters
	if len(centers) != len(w.Shelves) {
		// Shelves was mutated directly; recompute without touching the cache.
		centers = shelfCenters(w.Shelves)
	}
	best := 0
	bestD := p.Dist(centers[0])
	for i := 1; i < len(centers); i++ {
		if d := p.Dist(centers[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// ClampToShelves projects p onto the nearest shelf region; points already on
// a shelf are returned unchanged. This keeps particle hypotheses physically
// plausible.
func (w *World) ClampToShelves(p geom.Vec3) geom.Vec3 {
	for i := range w.Shelves {
		if w.Shelves[i].Region.Contains(p) {
			return p
		}
	}
	if len(w.Shelves) == 0 {
		return p
	}
	r := &w.Shelves[w.nearestShelf(p)].Region
	return geom.Vec3{
		X: geom.Clamp(p.X, r.Min.X, r.Max.X),
		Y: geom.Clamp(p.Y, r.Min.Y, r.Max.Y),
		Z: geom.Clamp(p.Z, r.Min.Z, r.Max.Z),
	}
}

// Validate checks the world for obvious configuration errors.
func (w *World) Validate() error {
	if len(w.Shelves) == 0 {
		return fmt.Errorf("model: world has no shelves")
	}
	seen := make(map[string]bool, len(w.Shelves))
	for _, s := range w.Shelves {
		if s.Region.IsEmpty() {
			return fmt.Errorf("model: shelf %q has an empty region", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("model: duplicate shelf id %q", s.ID)
		}
		seen[s.ID] = true
	}
	for id, loc := range w.ShelfTags {
		if !loc.IsFinite() {
			return fmt.Errorf("model: shelf tag %q has a non-finite location", id)
		}
	}
	return nil
}

// Params bundles all learned / configured parameters of the data-generation
// model: the sensor model coefficients, the reader motion model, the reader
// location sensing model and the object location model. This is exactly the
// parameter set that Section III-C estimates with EM.
type Params struct {
	Sensor  sensor.Model
	Motion  MotionModel
	Sensing LocationSensingModel
	Object  ObjectModel
}

// DefaultParams returns a sensible default parameter set for a robot-mounted
// reader that advances 0.1 ft per one-second epoch along the y axis.
func DefaultParams() Params {
	return Params{
		Sensor:  sensor.DefaultModel(),
		Motion:  MotionModel{Velocity: geom.Vec3{Y: 0.1}, Noise: geom.Vec3{X: 0.01, Y: 0.01, Z: 0.001}, PhiNoise: 0.005},
		Sensing: LocationSensingModel{Bias: geom.Vec3{}, Noise: geom.Vec3{X: 0.01, Y: 0.01, Z: 0.001}},
		Object:  ObjectModel{MoveProb: 1e-5},
	}
}
