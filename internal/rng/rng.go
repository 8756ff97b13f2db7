// Package rng provides the deterministic random sources used throughout the
// RFID inference system. All stochastic components (simulation, particle
// proposal, resampling, EM restarts) draw from an rng.Source seeded
// explicitly so that experiments and tests are reproducible.
// A Source is a concrete copy of math/rand's generator and rand.Rand methods:
// it emits exactly the values of rand.New(rand.NewSource(seed)).
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/geom"
)

// Source is a seeded pseudo-random source with the sampling helpers the
// inference engine needs. It is not safe for concurrent use; create one per
// goroutine.
type Source struct {
	gen  generator
	seed int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.gen.seed(seed)
	return s
}

// NewAt returns a Source seeded with seed and fast-forwarded to the given
// stream position (the Pos() of the source being restored). The replay is
// O(pos) but each skipped draw costs only a generator step, so restoring even
// multi-million-draw streams takes milliseconds; recovery pays this once.
func NewAt(seed int64, pos uint64) *Source {
	s := New(seed)
	for s.gen.n < pos {
		s.gen.next()
	}
	return s
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Pos returns the number of generator steps consumed so far. Together with
// Seed it pins the stream's exact position: NewAt(Seed(), Pos()) produces a
// source whose future draws are identical to this one's.
func (s *Source) Pos() uint64 { return s.gen.n }

// SeedFor derives a child seed from a base seed and a string key by hashing
// both with FNV-1a. The derivation does not consume any state from an
// existing stream, so the resulting seed depends only on (seed, key):
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

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.gen.next() & rngMask) }

// Float64 returns a uniform draw in [0, 1), redrawing when rounding gives 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// The helpers below are rand.Rand's methods of the same names.

func (s *Source) uint32() uint32 { return uint32(s.Int63() >> 31) }

func (s *Source) int31() int32 { return int32(s.Int63() >> 32) }

func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// lemire31n is rand.Rand's unexported int31n (Lemire's), used by Shuffle.
func (s *Source) lemire31n(n int32) int32 {
	v := s.uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = s.uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Normal returns a draw from N(mu, sigma^2).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.normFloat64()
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
	r := maxRange * math.Sqrt(s.Float64())
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
		return s.Intn(len(weights))
	}
	u := s.Float64() * total
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

// SystematicInto performs systematic (low-variance) resampling: it appends n
// indices drawn from the categorical distribution defined by weights, using a
// single uniform offset, to dst and returns the extended slice, so hot paths
// can reuse one buffer across calls and resample without allocating.
// Systematic resampling is the standard choice for particle filters because
// it minimizes resampling noise.
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
			out = append(out, s.Intn(m))
		}
		return out
	}
	step := total / float64(n)
	u := s.Float64() * step
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

// Shuffle returns a random permutation of [0, n), as rand.Rand.Perm does.
func (s *Source) Shuffle(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := s.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Perm returns a shuffled copy of idx, drawn as rand.Rand.Shuffle draws.
func (s *Source) Perm(idx []int) []int {
	out := make([]int, len(idx))
	copy(out, idx)
	i := len(out) - 1
	for ; i > int32max-1; i-- {
		j := int(s.int63n(int64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	for ; i > 0; i-- {
		j := int(s.lemire31n(int32(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
