package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestNormalizeWeights(t *testing.T) {
	w := []float64{1, 3, 0, 4}
	total := NormalizeWeights(w)
	if total != 8 {
		t.Errorf("total = %v", total)
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("normalized sum = %v", sum)
	}
	if math.Abs(w[1]-0.375) > 1e-12 {
		t.Errorf("w[1] = %v", w[1])
	}
	// All-zero weights become uniform.
	z := []float64{0, 0}
	NormalizeWeights(z)
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Errorf("zero weights not reset to uniform: %v", z)
	}
	// NaN and negative weights are dropped, not propagated.
	bad := []float64{math.NaN(), -1, 2}
	NormalizeWeights(bad)
	if bad[2] != 1 || bad[0] != 0 || bad[1] != 0 {
		t.Errorf("bad weights mishandled: %v", bad)
	}
}

func TestNormalizeLogWeights(t *testing.T) {
	logw := []float64{math.Log(1), math.Log(3)}
	lse := NormalizeLogWeights(logw)
	if math.Abs(lse-math.Log(4)) > 1e-12 {
		t.Errorf("log normalizer = %v", lse)
	}
	if math.Abs(logw[0]-0.25) > 1e-12 || math.Abs(logw[1]-0.75) > 1e-12 {
		t.Errorf("normalized = %v", logw)
	}
	// Extremely negative log weights normalize without underflow.
	lw := []float64{-2000, -2001}
	NormalizeLogWeights(lw)
	if math.Abs(lw[0]+lw[1]-1) > 1e-9 {
		t.Errorf("large-magnitude log weights did not normalize: %v", lw)
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	if got := EffectiveSampleSize([]float64{0.25, 0.25, 0.25, 0.25}); math.Abs(got-4) > 1e-9 {
		t.Errorf("uniform ESS = %v, want 4", got)
	}
	if got := EffectiveSampleSize([]float64{1, 0, 0, 0}); math.Abs(got-1) > 1e-9 {
		t.Errorf("degenerate ESS = %v, want 1", got)
	}
	// Unnormalized weights give the same answer.
	if a, b := EffectiveSampleSize([]float64{2, 2}), EffectiveSampleSize([]float64{0.5, 0.5}); math.Abs(a-b) > 1e-9 {
		t.Errorf("ESS is not scale invariant: %v vs %v", a, b)
	}
	if EffectiveSampleSize(nil) != 0 {
		t.Error("empty ESS should be 0")
	}
}

func TestWeightedMeanAndCovariance(t *testing.T) {
	pts := []geom.Vec3{geom.V(0, 0, 0), geom.V(2, 0, 0)}
	w := []float64{1, 3}
	mean := WeightedMeanVec(pts, w)
	if math.Abs(mean.X-1.5) > 1e-12 {
		t.Errorf("weighted mean = %v", mean)
	}
	cov := WeightedCovariance(pts, w, mean)
	// Var(X) = E[(x-mean)^2] = (1*(1.5)^2 + 3*(0.5)^2)/4 = 0.75
	if math.Abs(cov[0][0]-0.75) > 1e-12 {
		t.Errorf("weighted var = %v", cov[0][0])
	}
	if cov[1][1] != 0 || cov[2][2] != 0 {
		t.Error("expected zero variance on y and z")
	}
	// Nil weights mean equal weights.
	if m := WeightedMeanVec(pts, nil); math.Abs(m.X-1) > 1e-12 {
		t.Errorf("unweighted mean = %v", m)
	}
}

// TestWeightedVarianceDiagBitIdentical pins the diagonal-only kernel to the
// full covariance's diagonal bit for bit: the per-object estimates (and so
// every event and history snapshot) are computed with it.
func TestWeightedVarianceDiagBitIdentical(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := src.Intn(300)
		pts := make([]geom.Vec3, n)
		w := make([]float64, n)
		for i := range pts {
			pts[i] = geom.V(src.Normal(3, 2), src.Normal(-40, 0.3), src.Normal(1, 1e-3))
			switch src.Intn(10) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = -src.Float64()
			default:
				w[i] = src.Float64() * math.Pow(10, -float64(src.Intn(12)))
			}
		}
		var weights []float64
		if trial%5 != 0 {
			weights = w
		}
		mean := WeightedMeanVec(pts, weights)
		cov := WeightedCovariance(pts, weights, mean)
		got := WeightedVarianceDiag(pts, weights, mean)
		want := geom.Vec3{X: cov[0][0], Y: cov[1][1], Z: cov[2][2]}
		if math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
			math.Float64bits(got.Z) != math.Float64bits(want.Z) {
			t.Fatalf("trial %d (n=%d): diag kernel %v, covariance diagonal %v", trial, n, got, want)
		}
	}
}

func TestFitGaussian3MatchesMoments(t *testing.T) {
	src := rng.New(21)
	truth := NewGaussian3(geom.V(2, -1, 0), Diag3(0.5, 0.2, 0.1))
	pts := make([]geom.Vec3, 5000)
	for i := range pts {
		pts[i] = truth.Sample(src)
	}
	fit := FitGaussian3(pts, nil)
	if fit.Mean.Dist(truth.Mean) > 0.05 {
		t.Errorf("fitted mean %v, want ~%v", fit.Mean, truth.Mean)
	}
	if math.Abs(fit.Cov[0][0]-0.5) > 0.08 || math.Abs(fit.Cov[1][1]-0.2) > 0.05 {
		t.Errorf("fitted covariance diag = (%v, %v)", fit.Cov[0][0], fit.Cov[1][1])
	}
}

func TestKLToGaussian(t *testing.T) {
	src := rng.New(33)
	g := NewGaussian3(geom.V(0, 0, 0), Diag3(1, 1, 1))
	// Particles drawn from the Gaussian itself: KL should be small.
	pts := make([]geom.Vec3, 3000)
	for i := range pts {
		pts[i] = g.Sample(src)
	}
	fit := FitGaussian3(pts, nil)
	klGood := KLToGaussian(pts, nil, fit)
	if klGood > 0.2 {
		t.Errorf("KL for Gaussian-shaped particles = %v, want small", klGood)
	}
	// A bimodal particle cloud is poorly captured by one Gaussian: KL must be
	// clearly larger.
	bimodal := make([]geom.Vec3, 0, 2000)
	for i := 0; i < 1000; i++ {
		bimodal = append(bimodal, geom.V(-5+src.Normal(0, 0.1), 0, 0))
		bimodal = append(bimodal, geom.V(5+src.Normal(0, 0.1), 0, 0))
	}
	fitB := FitGaussian3(bimodal, nil)
	klBad := KLToGaussian(bimodal, nil, fitB)
	if klBad <= klGood {
		t.Errorf("bimodal KL (%v) should exceed Gaussian KL (%v)", klBad, klGood)
	}
	// KL is never negative and empty input gives zero.
	if klGood < 0 || klBad < 0 {
		t.Error("KL must be non-negative")
	}
	if KLToGaussian(nil, nil, g) != 0 {
		t.Error("empty particle set should have zero KL")
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty slices should give zero moments")
	}
}

// Property: normalized weights always sum to 1 (within tolerance) for any
// non-pathological input.
func TestNormalizeWeightsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			w[i] = math.Abs(math.Mod(x, 1e6))
		}
		NormalizeWeights(w)
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the effective sample size lies in [1, n] for normalized weights
// with at least one positive entry.
func TestESSRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		w := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			w = append(w, math.Abs(x))
		}
		positive := false
		for _, x := range w {
			if x > 0 {
				positive = true
			}
		}
		if !positive {
			return true
		}
		ess := EffectiveSampleSize(w)
		return ess >= 1-1e-9 && ess <= float64(len(w))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
