package sensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential checks of ExpShifted's SIMD body against math.Exp, on the bits
// of every result.

// compareExp writes exp(src[i] - c) through ExpShifted and fails on the first
// lane whose bits differ from math.Exp's. With the SIMD body on, every block
// of four goes to it first (TestExpShiftedBodyKeepsInRangeBlocks checks that
// it keeps the blocks it should).
func compareExp(t testing.TB, src []float64, c float64) {
	t.Helper()
	got := make([]float64, len(src))
	ExpShifted(got, src, c)
	for i := range src {
		if want := math.Exp(src[i] - c); !sameBits(got[i], want) {
			t.Fatalf("lane %d: exp(%v - %v) = %v (%#x) from the SIMD body, math.Exp %v (%#x)",
				i, src[i], c, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestExpShiftedMatchesMathExp(t *testing.T) {
	t.Run("random lanes", testExpRandomLanes)
	t.Run("edge lanes", testExpEdgeLanes)
	t.Run("lengths 0-7", testExpLengths)
}

// testExpRandomLanes compares at least 10 M random lanes (1 M in -short
// mode): log weights as normalisation sees them, a few to several hundred
// below their maximum, and arguments spread over the whole range the body
// keeps, both signs.
func testExpRandomLanes(t *testing.T) {
	skipWithoutSIMD(t)
	const chunk = 1 << 14
	total := 10_000_000
	if testing.Short() {
		total = 1_000_000
	}
	src := rand.New(rand.NewSource(5))
	lanes := make([]float64, chunk)
	for done := 0; done < total; done += chunk {
		c := 200 * src.NormFloat64()
		spread := []float64{1e-3, 1, 30, 300, 700}[done/chunk%5]
		for i := range lanes {
			lanes[i] = c - spread*src.Float64()
		}
		if done/chunk%7 == 0 {
			for i := range lanes {
				lanes[i] = c + 1400*(src.Float64()-0.5)
			}
		}
		compareExp(t, lanes, c)
	}
}

// testExpEdgeLanes compares the lanes where a boundary decides the result:
// infinities and NaN, arguments around -700 and 700 (where the body hands
// back), the normal-path limits near -708 and 709.78, arguments whose exp is
// subnormal or zero, and zero. Each edge lane shares its block of four only
// with ordinary lanes, at a rotating position, so a block handed back cannot
// hide another edge lane's result.
func testExpEdgeLanes(t *testing.T) {
	skipWithoutSIMD(t)
	src := rand.New(rand.NewSource(13))
	nan, inf := math.NaN(), math.Inf(1)
	args := []float64{-inf, inf, nan, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300,
		-708.39, -708.4, -709, -710, -720, -740, -745.13, -745.2, -746, -1e300,
		709.78, 709.79, 710, 1e300}
	args = append(args, ulpsAround(-700, 4)...)
	args = append(args, ulpsAround(700, 4)...)
	for _, c := range []float64{0, -3.5, 1e6, -inf, inf, nan} {
		var lanes []float64
		for k, a := range args {
			at := k % 4
			for j := 0; j < 4; j++ {
				if j == at {
					lanes = append(lanes, c+a)
					continue
				}
				lanes = append(lanes, c-30*src.Float64())
			}
		}
		compareExp(t, lanes, c)
	}
	// The argument itself on the edge, whatever c; src - c rounds first.
	var lanes []float64
	for k, a := range args {
		at := k % 4
		for j := 0; j < 4; j++ {
			if j == at {
				lanes = append(lanes, a)
				continue
			}
			lanes = append(lanes, -30*src.Float64())
		}
	}
	compareExp(t, lanes, 0)
}

// testExpLengths runs ExpShifted at every length from 0 to 7, so the SIMD
// body meets zero, one and one-plus-tail blocks; dst is longer than src.
func testExpLengths(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	for n := 0; n <= 7; n++ {
		in := make([]float64, n)
		for i := range in {
			in[i] = -40 * src.Float64()
		}
		got := make([]float64, n+2)
		got[n], got[n+1] = 7, 7
		ExpShifted(got, in, -1.25)
		for i, x := range in {
			if want := math.Exp(x + 1.25); !sameBits(got[i], want) {
				t.Fatalf("n=%d: ExpShifted[%d] = %v, want %v", n, i, got[i], want)
			}
		}
		if got[n] != 7 || got[n+1] != 7 {
			t.Fatalf("n=%d: ExpShifted wrote past len(src)", n)
		}
	}
}

// FuzzExpShifted compares the SIMD body with math.Exp on eight lanes (two
// blocks) around a fuzzed shift.
func FuzzExpShifted(f *testing.F) {
	f.Add(0.0, -1.0, -2.5, -700.0, -708.4, -745.2, 0.0, -30.0, 0.0)
	f.Add(math.Inf(-1), math.NaN(), 700.0, 709.8, 1e-310, -1e-310, 3.0, 4.0, 3.0)
	f.Add(-1e3, -1.1e3, -1.4e3, -1.7e3, -1.0e3, -1.5e3, -1.2e3, -1.6e3, -1e3)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, a5, a6, a7, c float64) {
		skipWithoutSIMD(t)
		compareExp(t, []float64{a0, a1, a2, a3, a4, a5, a6, a7}, c)
	})
}
