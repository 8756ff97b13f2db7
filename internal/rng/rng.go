// Package rng provides the deterministic random sources used throughout the
// RFID inference system. All stochastic components (simulation, particle
// proposal, resampling, EM restarts) draw from an rng.Source seeded
// explicitly so that experiments and tests are reproducible.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// countingSource wraps a rand.Source64 and counts the low-level draws it
// serves. Every Source method ultimately pulls values through this single
// choke point, so the pair (seed, draw count) fully determines a stream's
// position: the durability layer checkpoints exactly those two numbers and
// NewAt replays the count to restore the stream bit-exactly.
type countingSource struct {
	src rand.Source64
	n   uint64
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

// Seed implements rand.Source.
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// Source is a seeded pseudo-random source with the sampling helpers the
// inference engine needs. It is not safe for concurrent use; create one per
// goroutine.
type Source struct {
	r    *rand.Rand
	cs   *countingSource
	seed int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Source{r: rand.New(cs), cs: cs, seed: seed}
}

// NewAt returns a Source seeded with seed and fast-forwarded to the given
// stream position (the Pos() of the source being restored). The replay is
// O(pos) but each skipped draw costs only a generator step, so restoring even
// multi-million-draw streams takes milliseconds; recovery pays this once.
func NewAt(seed int64, pos uint64) *Source {
	s := New(seed)
	for i := uint64(0); i < pos; i++ {
		s.cs.src.Uint64()
	}
	s.cs.n = pos
	return s
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Pos returns the number of low-level draws consumed so far. Together with
// Seed it pins the stream's exact position: NewAt(Seed(), Pos()) produces a
// source whose future draws are identical to this one's.
func (s *Source) Pos() uint64 { return s.cs.n }

// Fork returns a new independent Source derived from the current stream.
// Forked sources let sub-components (e.g. per-object particle sets) evolve
// deterministically regardless of the processing order of their siblings.
func (s *Source) Fork() *Source {
	return New(s.r.Int63())
}

// SeedFor derives a child seed from a base seed and a string key by hashing
// both with FNV-1a. Unlike Fork, the derivation does not consume any state
// from an existing stream, so the resulting seed depends only on (seed, key):
// components keyed by a stable identifier (e.g. a tag id) receive the same
// stream no matter how many siblings exist or in which order they are
// created. This is what makes parallel inference results independent of the
// chunking and worker schedule.
func SeedFor(seed int64, key string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(key))
	return int64(h.Sum64() & math.MaxInt64)
}

// Derive returns a Source seeded with SeedFor(seed, key).
func Derive(seed int64, key string) *Source {
	return New(SeedFor(seed, key))
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// NormalVec returns a 3-D vector whose components are independent draws from
// N(mu_i, sigma_i^2).
func (s *Source) NormalVec(mu, sigma geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: s.Normal(mu.X, sigma.X),
		Y: s.Normal(mu.Y, sigma.Y),
		Z: s.Normal(mu.Z, sigma.Z),
	}
}

// UniformInBox returns a point drawn uniformly inside the bounding box.
func (s *Source) UniformInBox(b geom.BBox) geom.Vec3 {
	return geom.Vec3{
		X: s.Uniform(b.Min.X, b.Max.X),
		Y: s.Uniform(b.Min.Y, b.Max.Y),
		Z: s.Uniform(b.Min.Z, b.Max.Z),
	}
}

// UniformInCone returns a point drawn uniformly (by area, in the XY plane)
// from the cone that originates at the reader pose, opens by halfAngle
// radians on each side of the heading and extends to maxRange feet. The
// paper's sensor-model-based initialization draws new object particles from
// exactly such a cone, chosen as an overestimate of the reader's true range.
func (s *Source) UniformInCone(p geom.Pose, halfAngle, maxRange float64) geom.Vec3 {
	// Sample radius with density proportional to r so that points are
	// uniform by area rather than clustered near the apex.
	r := maxRange * math.Sqrt(s.r.Float64())
	a := p.Phi + s.Uniform(-halfAngle, halfAngle)
	return geom.Vec3{
		X: p.Pos.X + r*math.Cos(a),
		Y: p.Pos.Y + r*math.Sin(a),
		Z: p.Pos.Z,
	}
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative; if they sum to
// zero the draw is uniform.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.r.Intn(len(weights))
	}
	u := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Systematic performs systematic (low-variance) resampling: it returns n
// indices drawn from the categorical distribution defined by weights using a
// single uniform offset. Systematic resampling is the standard choice for
// particle filters because it minimizes resampling noise.
func (s *Source) Systematic(weights []float64, n int) []int {
	return s.SystematicInto(make([]int, 0, n), weights, n)
}

// SystematicInto is Systematic with a caller-provided destination buffer: the
// n drawn indices are appended to dst and the extended slice returned, so hot
// paths can reuse one buffer across calls and resample without allocating.
// The draw sequence is identical to Systematic's for the same source state.
func (s *Source) SystematicInto(dst []int, weights []float64, n int) []int {
	m := len(weights)
	out := dst
	if m == 0 || n == 0 {
		return out
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		for i := 0; i < n; i++ {
			out = append(out, s.r.Intn(m))
		}
		return out
	}
	step := total / float64(n)
	u := s.r.Float64() * step
	acc := 0.0
	idx := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for idx < m-1 {
			w := weights[idx]
			if w < 0 {
				w = 0
			}
			if acc+w > target {
				break
			}
			acc += w
			idx++
		}
		out = append(out, idx)
	}
	return out
}

// Shuffle randomly permutes the integers [0, n) and returns them.
func (s *Source) Shuffle(n int) []int {
	return s.r.Perm(n)
}

// Perm permutes a copy of the provided slice of indices.
func (s *Source) Perm(idx []int) []int {
	out := make([]int, len(idx))
	copy(out, idx)
	s.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
