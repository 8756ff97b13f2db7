package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// countedRand is the math/rand stream a Source copies, with the draw count
// the durability layer checkpoints: every rand.Rand method the package uses
// pulls its bits through Int63.
type countedRand struct {
	src rand.Source64
	n   uint64
}

func (c *countedRand) Int63() int64   { c.n++; return c.src.Int63() }
func (c *countedRand) Uint64() uint64 { c.n++; return c.src.Uint64() }
func (c *countedRand) Seed(int64)     { panic("not used") }

// pinSeeds are the seeds the copy is pinned on: zero (math/rand's substitute
// seed), negatives, both int64 extremes, the modulus of the seeding
// recurrence and SeedFor outputs as the filter derives them.
var pinSeeds = []int64{
	0, 1, -1, -12345, math.MinInt64, math.MaxInt64, int32max, -int32max, 1 << 40,
	SeedFor(1, "object:a"), SeedFor(42, "object:obj-007"), SeedFor(-7, "reader"),
}

// TestSourceMatchesMathRand pins the copied generator and methods against the
// installed math/rand, value for value and position for position: at least
// 10 M generator draws per method (1 M in -short mode), spread over
// pinSeeds.
func TestSourceMatchesMathRand(t *testing.T) {
	perMethod := uint64(10_000_000)
	if testing.Short() {
		perMethod = 1_000_000
	}
	intns := []int{1, 2, 3, 7, 64, 100, 1000, 1 << 20, 3 << 28, int32max, int32max + 1, 1<<40 + 3, math.MaxInt64}
	type method struct {
		name string
		// step draws once from both and fails the test on a difference; k
		// counts the calls so far.
		step func(t *testing.T, s *Source, r *rand.Rand, k int)
	}
	same := func(t *testing.T, what string, k int, got, want uint64) {
		if got != want {
			t.Fatalf("%s call %d: got %#x, math/rand %#x", what, k, got, want)
		}
	}
	sameInts := func(t *testing.T, what string, k int, got, want []int) {
		if !slices.Equal(got, want) {
			t.Fatalf("%s call %d: got %v, math/rand %v", what, k, got, want)
		}
	}
	methods := []method{
		{"Int63", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			same(t, "Int63", k, uint64(s.Int63()), uint64(r.Int63()))
		}},
		{"Float64", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			same(t, "Float64", k, math.Float64bits(s.Float64()), math.Float64bits(r.Float64()))
		}},
		{"Intn", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			n := intns[k%len(intns)]
			same(t, "Intn", k, uint64(s.Intn(n)), uint64(r.Intn(n)))
		}},
		{"NormFloat64", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			same(t, "NormFloat64", k, math.Float64bits(s.normFloat64()), math.Float64bits(r.NormFloat64()))
		}},
		{"Perm", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			n := k % 67
			sameInts(t, "Perm", k, s.Shuffle(n), r.Perm(n))
		}},
		{"Shuffle", func(t *testing.T, s *Source, r *rand.Rand, k int) {
			idx := make([]int, k%67)
			for i := range idx {
				idx[i] = 3 * i
			}
			want := slices.Clone(idx)
			r.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			sameInts(t, "Shuffle", k, s.Perm(idx), want)
		}},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			perSeed := perMethod/uint64(len(pinSeeds)) + 1
			total := uint64(0)
			for _, seed := range pinSeeds {
				s := New(seed)
				cr := &countedRand{src: rand.NewSource(seed).(rand.Source64)}
				r := rand.New(cr)
				for k := 0; cr.n < perSeed; k++ {
					m.step(t, s, r, k)
					if s.Pos() != cr.n {
						t.Fatalf("seed %d call %d: Pos %d, math/rand drew %d", seed, k, s.Pos(), cr.n)
					}
				}
				total += cr.n
			}
			if total < perMethod {
				t.Fatalf("compared %d draws, want at least %d", total, perMethod)
			}
		})
	}
}

// TestSeedrandMatchesSchrage checks the multiply-and-fold mulmod against
// the two-division form math/rand computes, on every 97th value of its domain
// and on both ends of it.
func TestSeedrandMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		if got, want := mulmod(x, seedA), schrage(x); got != want {
			t.Fatalf("mulmod(%d, 48271) = %d, want %d", x, got, want)
		}
	}
	for x := int32(1); x < int32max-97; x += 97 {
		check(x)
	}
	for x := int32(int32max - 200); x < int32max; x++ {
		check(x)
	}
}

// sinkSource keeps the benchmarked constructions live.
var sinkSource *Source

// BenchmarkSource times the generator's draws at 1 M per op and its
// construction, fresh and fast-forwarded.
func BenchmarkSource(b *testing.B) {
	const draws = 1_000_000
	b.Run("Float64", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			for k := 0; k < draws; k++ {
				s.Float64()
			}
		}
	})
	b.Run("Intn", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			for k := 0; k < draws; k++ {
				s.Intn(100)
			}
		}
	})
	b.Run("Normal", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			for k := 0; k < draws; k++ {
				s.Normal(0, 1)
			}
		}
	})
	b.Run("New", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSource = New(int64(i))
		}
	})
	b.Run("NewAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkSource = NewAt(int64(i), draws)
		}
	})
}
