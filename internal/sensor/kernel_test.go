package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// randomPosesAndLocs builds a deterministic scatter of reader poses and tag
// locations spanning in-range, out-of-range and edge geometry (a tag exactly
// at the reader position exercises the d == 0 branch).
func randomPosesAndLocs(n int) ([]geom.Pose, []geom.Vec3) {
	src := rng.New(42)
	poses := make([]geom.Pose, n)
	locs := make([]geom.Vec3, n)
	for i := range poses {
		poses[i] = geom.Pose{
			Pos: geom.Vec3{X: src.Float64() * 20, Y: src.Float64() * 20, Z: src.Float64() * 4},
			Phi: (src.Float64() - 0.5) * 4 * math.Pi,
		}
		locs[i] = geom.Vec3{X: src.Float64() * 20, Y: src.Float64() * 20, Z: src.Float64() * 4}
	}
	locs[0] = poses[0].Pos // d == 0
	return poses, locs
}

func TestLogObsFrameBitIdentical(t *testing.T) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(500)
	for _, observed := range []bool{true, false} {
		for i, p := range poses {
			fr := FrameFor(p)
			got := m.LogObsFrame(fr, locs[i], observed)
			want := m.LogObservationProb(observed, p, locs[i])
			if got != want {
				d, th := p.DistanceAngleTo(locs[i])
				t.Fatalf("LogObsFrame(obs=%v, d=%g, theta=%g) = %v, want bit-identical %v", observed, d, th, got, want)
			}
		}
	}
}

func TestAccumLogObsMatchesScalar(t *testing.T) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(101) // odd length exercises the unroll tail
	frames := make([]Frame, 7)
	for j := range frames {
		frames[j] = FrameFor(poses[j])
	}
	reader := make([]int32, len(locs))
	for i := range reader {
		reader[i] = int32(i % len(frames))
	}
	for _, observed := range []bool{true, false} {
		logW := make([]float64, len(locs))
		for i := range logW {
			logW[i] = float64(i) * 0.01
		}
		want := append([]float64(nil), logW...)
		for i := range want {
			want[i] += m.LogObservationProb(observed, poses[reader[i]], locs[i])
		}
		if !m.AccumLogObs(logW, observed, frames, reader, locs, false) {
			t.Fatal("AccumLogObs refused valid input")
		}
		for i := range logW {
			if logW[i] != want[i] {
				t.Fatalf("exact AccumLogObs[%d] = %v, want bit-identical %v", i, logW[i], want[i])
			}
		}
	}
	t.Run("random lanes", testSIMDRandomLanes)
	t.Run("edge lanes", testSIMDEdgeLanes)
	t.Run("lengths 0-7", testKernelLengths)
}

func TestAccumLogObsRejectsBadReaderIndex(t *testing.T) {
	m := DefaultModel()
	frames := []Frame{FrameFor(geom.Pose{})}
	logW := []float64{1, 2, 3}
	locs := []geom.Vec3{{}, {}, {}}
	for _, bad := range [][]int32{{0, 1, 0}, {0, -1, 0}} {
		if m.AccumLogObs(logW, true, frames, bad, locs, false) {
			t.Fatalf("AccumLogObs accepted out-of-range reader index %v", bad)
		}
	}
	if logW[0] != 1 || logW[1] != 2 || logW[2] != 3 {
		t.Error("rejected AccumLogObs must leave logW untouched")
	}
	if m.AccumLogObs(logW[:1], true, frames, []int32{0, 0}, locs[:2], false) {
		t.Error("AccumLogObs accepted a short logW column")
	}
}

func TestAccumLogObsFixedMatchesScalar(t *testing.T) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(33)
	frames := make([]Frame, len(poses))
	for j := range frames {
		frames[j] = FrameFor(poses[j])
	}
	loc := locs[5]
	for _, observed := range []bool{true, false} {
		logW := make([]float64, len(frames))
		want := make([]float64, len(frames))
		for j := range want {
			want[j] = m.LogObservationProb(observed, poses[j], loc)
		}
		m.AccumLogObsFixed(logW, observed, frames, loc, false)
		for j := range logW {
			if logW[j] != want[j] {
				t.Fatalf("exact AccumLogObsFixed[%d] = %v, want bit-identical %v", j, logW[j], want[j])
			}
		}
	}
}

var sinkKernel float64

func BenchmarkAccumLogObs(b *testing.B) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(1024)
	frames := make([]Frame, 50)
	for j := range frames {
		frames[j] = FrameFor(poses[j])
	}
	reader := make([]int32, len(locs))
	for i := range reader {
		reader[i] = int32(i % len(frames))
	}
	logW := make([]float64, len(locs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccumLogObs(logW, false, frames, reader, locs, false)
	}
	sinkKernel = logW[0]
}

func BenchmarkAccumLogObsFixed(b *testing.B) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(256)
	frames := make([]Frame, len(poses))
	for j := range frames {
		frames[j] = FrameFor(poses[j])
	}
	logW := make([]float64, len(frames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccumLogObsFixed(logW, false, frames, locs[3], false)
	}
	sinkKernel = logW[0]
}

// warehouseColumns is the batch-warehouse geometry: reader particles 1.5 ft
// off a shelf, facing it, and object particles on the shelf, all in range.
func warehouseColumns(n, readers int) ([]Frame, []int32, []geom.Vec3) {
	src := rand.New(rand.NewSource(42))
	frames := make([]Frame, readers)
	for j := range frames {
		frames[j] = FrameFor(geom.Pose{Pos: geom.Vec3{X: -1.5 + 0.02*src.NormFloat64(), Y: 4 + 0.02*src.NormFloat64()}, Phi: 0.005 * src.NormFloat64()})
	}
	reader := make([]int32, n)
	locs := make([]geom.Vec3, n)
	for i := range locs {
		reader[i] = int32(src.Intn(readers))
		locs[i] = geom.Vec3{X: src.Float64(), Y: 3 + 2*src.Float64()}
	}
	return frames, reader, locs
}

// BenchmarkAccumLogObsWarehouse times AccumLogObs on in-range particles, the
// case the filter meets nearly always, in ns per particle.
func BenchmarkAccumLogObsWarehouse(b *testing.B) {
	m := DefaultModel()
	frames, reader, locs := warehouseColumns(1024, 100)
	logW := make([]float64, len(locs))
	for _, observed := range []bool{true, false} {
		b.Run(fmt.Sprintf("observed=%v", observed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AccumLogObs(logW, observed, frames, reader, locs, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(locs)), "ns/particle")
		})
	}
	sinkKernel = logW[0]
}

// BenchmarkAccumLogObsFixedWarehouse times AccumLogObsFixed for a shelf tag
// in range of every reader particle, in ns per particle.
func BenchmarkAccumLogObsFixedWarehouse(b *testing.B) {
	m := DefaultModel()
	frames, _, _ := warehouseColumns(0, 256)
	logW := make([]float64, len(frames))
	for _, observed := range []bool{true, false} {
		b.Run(fmt.Sprintf("observed=%v", observed), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AccumLogObsFixed(logW, observed, frames, geom.Vec3{Y: 4}, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/particle")
		})
	}
	sinkKernel = logW[0]
}

// BenchmarkLogObsScalarBaseline is the pre-kernel per-call path (interface-free
// but with cos/sin recomputed per call), for comparison against AccumLogObs.
func BenchmarkLogObsScalarBaseline(b *testing.B) {
	m := DefaultModel()
	poses, locs := randomPosesAndLocs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		p := poses[i%50]
		s += m.LogObservationProb(false, p, locs[i%1024])
	}
	sinkKernel = s
}
