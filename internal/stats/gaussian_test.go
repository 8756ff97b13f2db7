package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestGaussian1DPDF(t *testing.T) {
	g := Gaussian1D{Mu: 0, Sigma: 1}
	// Standard normal density at 0 is 1/sqrt(2*pi).
	want := 1 / math.Sqrt(2*math.Pi)
	if got := g.PDF(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF(0) = %v, want %v", got, want)
	}
	// Symmetry.
	if math.Abs(g.PDF(1.3)-g.PDF(-1.3)) > 1e-12 {
		t.Error("standard normal PDF is not symmetric")
	}
	// Degenerate sigma does not blow up.
	d := Gaussian1D{Mu: 0, Sigma: 0}
	if math.IsNaN(d.LogPDF(0.1)) || math.IsInf(d.LogPDF(0.1), 1) {
		t.Error("degenerate sigma produced invalid log density")
	}
}

func TestGaussian1DSampleMoments(t *testing.T) {
	src := rng.New(3)
	g := Gaussian1D{Mu: -2, Sigma: 0.5}
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Sample(src)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean+2) > 0.02 {
		t.Errorf("sample mean = %v, want ~-2", mean)
	}
	if math.Abs(variance-0.25) > 0.02 {
		t.Errorf("sample variance = %v, want ~0.25", variance)
	}
}

func TestDiagGaussian3(t *testing.T) {
	g := DiagGaussian3{Mu: geom.V(1, 2, 3), Sigma: geom.V(1, 1, 1)}
	// Log density factorizes over axes.
	lx := Gaussian1D{Mu: 1, Sigma: 1}.LogPDF(1.5)
	ly := Gaussian1D{Mu: 2, Sigma: 1}.LogPDF(2.5)
	lz := Gaussian1D{Mu: 3, Sigma: 1}.LogPDF(2.0)
	if got := g.LogPDF(geom.V(1.5, 2.5, 2.0)); math.Abs(got-(lx+ly+lz)) > 1e-12 {
		t.Errorf("DiagGaussian3 log density does not factorize: %v vs %v", got, lx+ly+lz)
	}
	// The density is maximal at the mean.
	if g.LogPDF(g.Mu) < g.LogPDF(geom.V(0, 0, 0)) {
		t.Error("density at mean is not maximal")
	}
}

func TestHoistDiagGaussian3BitIdentical(t *testing.T) {
	sigmas := []geom.Vec3{
		{X: 0.3, Y: 0.25, Z: 0.1},
		{X: 1, Y: 2, Z: 3},
		{X: 0, Y: -1, Z: 1e-12}, // degenerate axes hit the 1e-9 floor
	}
	mus := []geom.Vec3{{}, {X: 1.5, Y: -2.25, Z: 0.75}, {X: -10, Y: 3, Z: 0.01}}
	xs := []geom.Vec3{{}, {X: 1.37, Y: -2.5, Z: 1}, {X: 9.7, Y: -4.2, Z: -0.3}}
	for _, s := range sigmas {
		h := HoistDiagGaussian3(s)
		for _, mu := range mus {
			for _, x := range xs {
				want := DiagGaussian3{Mu: mu, Sigma: s}.LogPDF(x)
				got := h.LogPDFAt(mu, x)
				if got != want {
					t.Fatalf("LogPDFAt(sigma=%v, mu=%v, x=%v) = %v, want bit-identical %v", s, mu, x, got, want)
				}
			}
		}
	}
}

func TestGaussian3LogPDFAndSample(t *testing.T) {
	g := NewGaussian3(geom.V(1, -1, 0.5), Diag3(0.25, 1, 0.04))
	if g.LogPDF(g.Mean) < g.LogPDF(geom.V(3, 3, 3)) {
		t.Error("density at mean should exceed density far away")
	}
	src := rng.New(9)
	n := 20000
	var sum geom.Vec3
	var sumSqX float64
	for i := 0; i < n; i++ {
		v := g.Sample(src)
		sum = sum.Add(v)
		sumSqX += (v.X - 1) * (v.X - 1)
	}
	mean := sum.Scale(1 / float64(n))
	if mean.Dist(g.Mean) > 0.05 {
		t.Errorf("sample mean %v, want ~%v", mean, g.Mean)
	}
	if varX := sumSqX / float64(n); math.Abs(varX-0.25) > 0.03 {
		t.Errorf("sample variance X = %v, want ~0.25", varX)
	}
	v := g.Variance()
	if math.Abs(v.X-0.25) > 1e-6 || math.Abs(v.Y-1) > 1e-6 {
		t.Errorf("Variance = %v", v)
	}
}

func TestGaussian3DegenerateCovariance(t *testing.T) {
	// A zero covariance must still produce usable densities and samples.
	g := NewGaussian3(geom.V(0, 0, 0), Mat3{})
	if math.IsNaN(g.LogPDF(geom.V(0.1, 0, 0))) {
		t.Error("degenerate Gaussian log density is NaN")
	}
	src := rng.New(4)
	s := g.Sample(src)
	if s.Dist(g.Mean) > 1 {
		t.Errorf("degenerate Gaussian sample far from mean: %v", s)
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Errorf("Sigmoid(0) = %v", Sigmoid(0))
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v, want 1", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v, want 0", got)
	}
	if math.Abs(Sigmoid(2)+Sigmoid(-2)-1) > 1e-12 {
		t.Error("Sigmoid(x) + Sigmoid(-x) != 1")
	}
}

func TestLogSigmoid(t *testing.T) {
	for _, x := range []float64{-50, -3, -0.1, 0, 0.1, 3, 50} {
		want := math.Log(Sigmoid(x))
		got := LogSigmoid(x)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("LogSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	// No overflow for extreme negatives.
	if math.IsInf(LogSigmoid(-1e4), -1) == false {
		// LogSigmoid(-1e4) should be about -1e4, a finite number.
		if LogSigmoid(-1e4) > -9999 {
			t.Error("LogSigmoid(-1e4) lost precision")
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Error("LogSumExp(nil) should be -Inf")
	}
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(xs); math.Abs(got-math.Log(6)) > 1e-12 {
		t.Errorf("LogSumExp = %v, want log(6)", got)
	}
	// Stability with large values.
	if got := LogSumExp([]float64{1000, 1000}); math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("LogSumExp overflowed: %v", got)
	}
	// All -Inf stays -Inf.
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Error("LogSumExp of -Inf inputs should be -Inf")
	}
}

// Property: sigmoid output is always in (0, 1) and monotone.
func TestSigmoidProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		sa, sb := Sigmoid(a), Sigmoid(b)
		if sa < 0 || sa > 1 || sb < 0 || sb > 1 {
			return false
		}
		if a < b && sa > sb {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
