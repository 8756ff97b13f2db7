package stats

import (
	"math"

	"repro/internal/geom"
)

// NormalizeWeights rescales the weights in place so that they sum to one and
// returns the normalization constant (the original sum). If the weights sum
// to zero or are all non-positive, they are reset to uniform and zero is
// returned.
func NormalizeWeights(w []float64) float64 {
	total := 0.0
	for _, x := range w {
		if x > 0 && !math.IsInf(x, 1) && !math.IsNaN(x) {
			total += x
		}
	}
	if total <= 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return 0
	}
	for i := range w {
		if w[i] < 0 || math.IsNaN(w[i]) {
			w[i] = 0
		}
		w[i] /= total
	}
	return total
}

// NormalizeLogWeights converts log weights to normalized linear weights in
// place and returns the log of the normalization constant (log-sum-exp of the
// inputs).
func NormalizeLogWeights(logw []float64) float64 {
	lse := LogSumExp(logw)
	if math.IsInf(lse, -1) {
		u := 1.0 / float64(len(logw))
		for i := range logw {
			logw[i] = u
		}
		return lse
	}
	for i := range logw {
		logw[i] = math.Exp(logw[i] - lse)
	}
	return lse
}

// EffectiveSampleSize returns 1 / sum(w_i^2) for normalized weights. It is
// the standard degeneracy diagnostic that triggers resampling in particle
// filters. Weights that are not normalized are normalized first (on a copy).
func EffectiveSampleSize(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return 0
	}
	sumSq := 0.0
	for _, x := range w {
		if x > 0 {
			n := x / total
			sumSq += n * n
		}
	}
	if sumSq == 0 {
		return 0
	}
	return 1 / sumSq
}

// WeightedMeanVec returns the weighted mean of the points. Weights need not
// be normalized. If all weights are zero the unweighted mean is returned.
func WeightedMeanVec(pts []geom.Vec3, w []float64) geom.Vec3 {
	var mean geom.Vec3
	total := 0.0
	for i, p := range pts {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi <= 0 {
			continue
		}
		mean = mean.Add(p.Scale(wi))
		total += wi
	}
	if total <= 0 {
		if len(pts) == 0 {
			return geom.Vec3{}
		}
		for _, p := range pts {
			mean = mean.Add(p)
		}
		return mean.Scale(1 / float64(len(pts)))
	}
	return mean.Scale(1 / total)
}

// WeightedCovariance returns the weighted empirical covariance of the points
// around the provided mean. Weights need not be normalized.
func WeightedCovariance(pts []geom.Vec3, w []float64, mean geom.Vec3) Mat3 {
	var cov Mat3
	total := 0.0
	for i, p := range pts {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi <= 0 {
			continue
		}
		d := p.Sub(mean)
		cov = cov.Add(OuterProduct(d, d).Scale(wi))
		total += wi
	}
	if total <= 0 {
		return Mat3{}
	}
	return cov.Scale(1 / total)
}

// WeightedVarianceDiag returns the diagonal of WeightedCovariance(pts, w,
// mean) — the per-axis variances — without computing the off-diagonal terms.
// Each diagonal entry is accumulated by the same expressions in the same
// order as in WeightedCovariance (the explicit conversions keep the compiler
// from fusing the multiply into the add, which the covariance's Mat3 temporaries
// never allow either), so the result equals that diagonal bit for bit.
func WeightedVarianceDiag(pts []geom.Vec3, w []float64, mean geom.Vec3) geom.Vec3 {
	var v geom.Vec3
	total := 0.0
	for i, p := range pts {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi <= 0 {
			continue
		}
		d := p.Sub(mean)
		v.X += float64(d.X * d.X * wi)
		v.Y += float64(d.Y * d.Y * wi)
		v.Z += float64(d.Z * d.Z * wi)
		total += wi
	}
	if total <= 0 {
		return geom.Vec3{}
	}
	s := 1 / total
	return geom.Vec3{X: v.X * s, Y: v.Y * s, Z: v.Z * s}
}

// FitGaussian3 computes the moment-matched Gaussian of a weighted particle
// set: the KL-optimal Gaussian approximation q that minimizes KL(p_hat || q)
// uses exactly the weighted sample mean and empirical covariance (Section
// IV-D of the paper).
func FitGaussian3(pts []geom.Vec3, w []float64) Gaussian3 {
	mean := WeightedMeanVec(pts, w)
	cov := WeightedCovariance(pts, w, mean)
	return NewGaussian3(mean, cov)
}

// KLToGaussian estimates the KL divergence KL(p_hat || q) between the
// weighted particle distribution p_hat and the Gaussian q. Because the
// empirical distribution is discrete, the divergence is estimated against a
// Gaussian kernel density estimate of the particles (Silverman bandwidth,
// subsampled for large particle sets):
//
//	KL ≈ E_{p_hat}[ log p_kde(x) - log q(x) ]
//
// The estimate is zero (up to noise, clamped at zero) when the particle cloud
// is Gaussian-shaped and grows as the cloud deviates from Gaussianity (e.g.
// multi-modal clouds), which is exactly the quantity the belief-compression
// policy of Section IV-D needs: how much is lost by summarizing the particles
// with q.
func KLToGaussian(pts []geom.Vec3, w []float64, q Gaussian3) float64 {
	if len(pts) == 0 {
		return 0
	}
	// Subsample deterministically to bound the O(n^2) kernel evaluation.
	const maxPoints = 200
	stride := 1
	if len(pts) > maxPoints {
		stride = len(pts) / maxPoints
	}
	var sample []geom.Vec3
	var sw []float64
	for i := 0; i < len(pts); i += stride {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi <= 0 {
			continue
		}
		sample = append(sample, pts[i])
		sw = append(sw, wi)
	}
	n := len(sample)
	if n < 3 {
		return 0
	}

	// The divergence is accumulated per axis: each axis with non-negligible
	// variance contributes the 1-D KL between a leave-one-out kernel density
	// estimate of the particles and the Gaussian's marginal on that axis.
	// Degenerate axes (no spread) carry no shape information and are skipped.
	axis := func(get func(geom.Vec3) float64, mean, variance float64) float64 {
		if variance < 1e-6 {
			return 0
		}
		sigma := math.Sqrt(variance)
		bw := 1.06 * sigma * math.Pow(float64(n), -1.0/5)
		if bw < 1e-4 {
			bw = 1e-4
		}
		marginal := Gaussian1D{Mu: mean, Sigma: sigma}
		logNorm := -math.Log(float64(n-1)) - math.Log(bw) - 0.5*log2Pi
		kl := 0.0
		total := 0.0
		logs := make([]float64, 0, n-1)
		for i := 0; i < n; i++ {
			xi := get(sample[i])
			logs = logs[:0]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				d := (xi - get(sample[j])) / bw
				logs = append(logs, logNorm-0.5*d*d)
			}
			kl += sw[i] * (LogSumExp(logs) - marginal.LogPDF(xi))
			total += sw[i]
		}
		if total <= 0 {
			return 0
		}
		return kl / total
	}

	kl := axis(func(v geom.Vec3) float64 { return v.X }, q.Mean.X, q.Cov[0][0]) +
		axis(func(v geom.Vec3) float64 { return v.Y }, q.Mean.Y, q.Cov[1][1]) +
		axis(func(v geom.Vec3) float64 { return v.Z }, q.Mean.Z, q.Cov[2][2])
	if kl < 0 || math.IsNaN(kl) {
		return 0
	}
	return kl
}

// Mean returns the arithmetic mean of xs (zero for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
