//go:build amd64 && gc && !purego

package sensor

import (
	"math"
	"testing"
)

// TestExpShiftedBodyKeepsInRangeBlocks checks that the SIMD body computes,
// rather than hands back, every block whose arguments all lie in [-700, 700],
// and stops at the first block that has one outside it.
func TestExpShiftedBodyKeepsInRangeBlocks(t *testing.T) {
	skipWithoutSIMD(t)
	src := []float64{
		-700, 700, 0, math.Copysign(0, -1),
		-699.9, 699.9, 1e-300, -5e-324,
		-1, math.Nextafter(-700, -800), -2, -3,
		-4, -5, -6, -7,
	}
	dst := make([]float64, len(src))
	if n := expShiftedAVX2(&dst[0], &src[0], len(src), 0); n != 8 {
		t.Fatalf("SIMD body kept %d lanes, want the 8 before the block with %v", n, src[9])
	}
	if n := expShiftedAVX2(&dst[0], &src[4], len(src)-4, -0.5); n != 0 {
		t.Fatalf("shifted by -0.5, the SIMD body kept %d lanes, want 0 (700.4 is out)", n)
	}
	if n := expShiftedAVX2(&dst[0], &src[8], len(src)-8, -10); n != 8 {
		t.Fatalf("shifted by -10, the SIMD body kept %d lanes, want 8 (-690 is in)", n)
	}
}
