package rng

import (
	"testing"

	"repro/internal/geom"
)

// drawMix exercises every sampling helper so the position counter is verified
// across all draw shapes (single-draw, multi-draw rejection loops, vectors).
func drawMix(s *Source, out *[]float64) {
	*out = append(*out, s.Float64())
	*out = append(*out, s.Normal(1, 2))
	*out = append(*out, float64(s.Intn(1000)))
	v := s.NormalVec(geom.Vec3{X: 1}, geom.Vec3{X: 1, Y: 2, Z: 3})
	*out = append(*out, v.X, v.Y, v.Z)
	*out = append(*out, s.Uniform(-3, 9))
	c := s.UniformInCone(geom.Pose{Phi: 0.3}, 0.5, 4)
	*out = append(*out, c.X, c.Y, c.Z)
	*out = append(*out, float64(s.Categorical([]float64{0.1, 0.5, 0.2, 0.2})))
	for _, i := range s.SystematicInto(nil, []float64{0.25, 0.25, 0.5}, 5) {
		*out = append(*out, float64(i))
	}
	if s.Bernoulli(0.5) {
		*out = append(*out, 1)
	} else {
		*out = append(*out, 0)
	}
}

// TestNewAtContinuation is the property the checkpoint subsystem builds on: a
// source restored with NewAt(seed, pos) continues the original stream
// bit-exactly, no matter where the split falls.
func TestNewAtContinuation(t *testing.T) {
	for _, splitRounds := range []int{0, 1, 3, 17} {
		orig := New(42)
		var pre []float64
		for i := 0; i < splitRounds; i++ {
			drawMix(orig, &pre)
		}
		pos := orig.Pos()

		restored := NewAt(42, pos)
		if restored.Pos() != pos {
			t.Fatalf("split %d: restored Pos = %d, want %d", splitRounds, restored.Pos(), pos)
		}
		var a, b []float64
		for i := 0; i < 5; i++ {
			drawMix(orig, &a)
			drawMix(restored, &b)
		}
		if len(a) != len(b) {
			t.Fatalf("split %d: draw counts differ: %d vs %d", splitRounds, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("split %d: draw %d diverged: %v vs %v", splitRounds, i, a[i], b[i])
			}
		}
		if orig.Pos() != restored.Pos() {
			t.Fatalf("split %d: positions diverged after identical draws: %d vs %d", splitRounds, orig.Pos(), restored.Pos())
		}
	}
}

// TestPosAdvances pins that the counter observes the low-level draws (not the
// helper calls), so multi-draw helpers advance it by more than one.
func TestPosAdvances(t *testing.T) {
	s := New(7)
	if s.Pos() != 0 {
		t.Fatalf("fresh source Pos = %d, want 0", s.Pos())
	}
	s.Float64()
	one := s.Pos()
	if one == 0 {
		t.Fatal("Float64 did not advance Pos")
	}
	s.NormalVec(geom.Vec3{}, geom.Vec3{X: 1, Y: 1, Z: 1})
	if s.Pos() <= one {
		t.Fatal("NormalVec did not advance Pos")
	}
	if s.Seed() != 7 {
		t.Fatalf("Seed = %d, want 7", s.Seed())
	}
}

// TestCountingWrapperTransparent guards against the draw counter perturbing
// the generated sequence: two sources with one seed agree draw for draw, and
// so do sources seeded from a draw of each (TestSourceMatchesMathRand pins
// the values themselves against math/rand).
func TestCountingWrapperTransparent(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: identical seeds diverged: %v vs %v", i, x, y)
		}
	}
	c1 := New(New(5).Int63())
	c2 := New(New(5).Int63())
	if x, y := c1.Normal(0, 1), c2.Normal(0, 1); x != y {
		t.Fatalf("sources seeded from a draw diverged: %v vs %v", x, y)
	}
}
