package rng

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("two sources with the same seed diverged")
		}
	}
	c, d := New(43), New(42)
	same := true
	for i := 0; i < 10; i++ {
		if d.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) = %v out of range", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	// Rough frequency check.
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.27 || p > 0.33 {
		t.Errorf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestUniformInBox(t *testing.T) {
	s := New(5)
	box := geom.NewBBox(geom.V(-1, 2, 0), geom.V(1, 4, 0.5))
	for i := 0; i < 500; i++ {
		p := s.UniformInBox(box)
		if !box.Contains(p) {
			t.Fatalf("UniformInBox produced %v outside %v", p, box)
		}
	}
}

func TestUniformInCone(t *testing.T) {
	s := New(9)
	pose := geom.P(1, 2, 0, math.Pi/4)
	half := 30 * math.Pi / 180
	maxR := 3.0
	for i := 0; i < 1000; i++ {
		p := s.UniformInCone(pose, half, maxR)
		d, theta := pose.DistanceAngleTo(p)
		if d > maxR+1e-9 {
			t.Fatalf("cone sample at distance %v > %v", d, maxR)
		}
		if theta > half+1e-9 {
			t.Fatalf("cone sample at angle %v > %v", theta, half)
		}
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	s := New(11)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("category ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalDegenerateWeights(t *testing.T) {
	s := New(13)
	// All-zero weights fall back to uniform; must not panic and must cover
	// the full index range.
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		idx := s.Categorical([]float64{0, 0, 0})
		if idx < 0 || idx > 2 {
			t.Fatalf("index out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Error("degenerate categorical is not spreading draws")
	}
}

func TestSystematicResampling(t *testing.T) {
	s := New(17)
	weights := []float64{0.1, 0.0, 0.6, 0.3}
	idx := s.SystematicInto(nil, weights, 1000)
	if len(idx) != 1000 {
		t.Fatalf("wrong number of indices: %d", len(idx))
	}
	counts := make([]int, 4)
	for _, i := range idx {
		if i < 0 || i >= 4 {
			t.Fatalf("index out of range: %d", i)
		}
		counts[i]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight particle selected %d times", counts[1])
	}
	// Systematic resampling keeps counts within one of the expectation.
	if c := counts[2]; c < 550 || c > 650 {
		t.Errorf("weight-0.6 particle selected %d times, want ~600", c)
	}
	if c := counts[3]; c < 250 || c > 350 {
		t.Errorf("weight-0.3 particle selected %d times, want ~300", c)
	}
}

func TestSystematicDegenerateInputs(t *testing.T) {
	s := New(19)
	if out := s.SystematicInto(nil, nil, 5); len(out) != 0 {
		t.Errorf("expected empty result for empty weights, got %v", out)
	}
	if out := s.SystematicInto(nil, []float64{1, 2}, 0); len(out) != 0 {
		t.Errorf("expected empty result for n=0, got %v", out)
	}
	out := s.SystematicInto(nil, []float64{0, 0}, 10)
	if len(out) != 10 {
		t.Errorf("zero-weight resampling returned %d indices", len(out))
	}
}

func TestShuffleAndPerm(t *testing.T) {
	s := New(23)
	p := s.Shuffle(10)
	if len(p) != 10 {
		t.Fatalf("Shuffle(10) returned %d elements", len(p))
	}
	seen := make(map[int]bool)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Error("Shuffle is not a permutation")
	}
	orig := []int{5, 6, 7}
	perm := s.Perm(orig)
	if len(perm) != 3 {
		t.Fatal("Perm changed length")
	}
	if &perm[0] == &orig[0] {
		t.Error("Perm must not alias its input")
	}
}

func TestSeedForDerivation(t *testing.T) {
	if SeedFor(1, "object:a") != SeedFor(1, "object:a") {
		t.Error("SeedFor not deterministic")
	}
	if SeedFor(1, "object:a") == SeedFor(1, "object:b") {
		t.Error("distinct keys should derive distinct seeds")
	}
	if SeedFor(1, "object:a") == SeedFor(2, "object:a") {
		t.Error("distinct base seeds should derive distinct seeds")
	}
	if SeedFor(1, "x") < 0 {
		t.Error("derived seed must be non-negative")
	}
}

func TestDeriveIndependentOfSiblings(t *testing.T) {
	// SeedFor consumes no stream state: deriving b after a (or
	// not deriving a at all) yields the same stream for b.
	b1 := New(SeedFor(7, "b"))
	_ = New(SeedFor(7, "a"))
	b2 := New(SeedFor(7, "b"))
	for i := 0; i < 10; i++ {
		if b1.Float64() != b2.Float64() {
			t.Fatal("a derived stream depends on sibling derivations")
		}
	}
}
