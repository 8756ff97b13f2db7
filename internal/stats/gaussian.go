package stats

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

const log2Pi = 1.8378770664093453 // ln(2*pi)

// Gaussian1D is a univariate normal distribution.
type Gaussian1D struct {
	Mu    float64
	Sigma float64
}

// LogPDF returns the log density of x under the distribution. A zero or
// negative Sigma is treated as a tight but non-degenerate distribution to
// keep particle weights finite.
func (g Gaussian1D) LogPDF(x float64) float64 {
	sigma := g.Sigma
	if sigma < 1e-9 {
		sigma = 1e-9
	}
	z := (x - g.Mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*log2Pi
}

// PDF returns the density of x.
func (g Gaussian1D) PDF(x float64) float64 { return math.Exp(g.LogPDF(x)) }

// Sample draws from the distribution.
func (g Gaussian1D) Sample(src *rng.Source) float64 {
	return src.Normal(g.Mu, g.Sigma)
}

// DiagGaussian3 is a three-dimensional Gaussian with a diagonal covariance
// matrix. The reader motion model and the reader location sensing model of
// the paper both use diagonal covariance (Sigma_m, Sigma_s).
type DiagGaussian3 struct {
	Mu    geom.Vec3
	Sigma geom.Vec3 // per-axis standard deviation
}

// LogPDF returns the log density of v.
func (g DiagGaussian3) LogPDF(v geom.Vec3) float64 {
	lx := Gaussian1D{Mu: g.Mu.X, Sigma: g.Sigma.X}.LogPDF(v.X)
	ly := Gaussian1D{Mu: g.Mu.Y, Sigma: g.Sigma.Y}.LogPDF(v.Y)
	lz := Gaussian1D{Mu: g.Mu.Z, Sigma: g.Sigma.Z}.LogPDF(v.Z)
	return lx + ly + lz
}

// Sample draws from the distribution.
func (g DiagGaussian3) Sample(src *rng.Source) geom.Vec3 {
	return src.NormalVec(g.Mu, g.Sigma)
}

// HoistedDiagGaussian3 is DiagGaussian3 with the per-axis sigma floors and
// log-sigma terms precomputed, for hot loops that evaluate many densities
// under one fixed covariance (the reader location-sensing likelihood
// evaluates every reader particle against the same Sigma_s each epoch).
// LogPDFAt(mu, x) is bit-identical to
// DiagGaussian3{Mu: mu, Sigma: sigma}.LogPDF(x): hoisting only moves the
// pure math.Log(sigma) subexpressions out of the loop.
type HoistedDiagGaussian3 struct {
	sigma    [3]float64 // floored per-axis standard deviations
	logSigma [3]float64 // log of the floored standard deviations
}

// HoistDiagGaussian3 precomputes the sigma-dependent terms of a diagonal
// Gaussian log density.
func HoistDiagGaussian3(sigma geom.Vec3) HoistedDiagGaussian3 {
	var h HoistedDiagGaussian3
	for i, s := range [3]float64{sigma.X, sigma.Y, sigma.Z} {
		if s < 1e-9 {
			s = 1e-9
		}
		h.sigma[i] = s
		h.logSigma[i] = math.Log(s)
	}
	return h
}

// LogPDFAt returns the log density of x under N(mu, diag(sigma^2)). The
// per-axis expression repeats Gaussian1D.LogPDF operation for operation, so
// the result is bit-identical to the unhoisted form.
func (h HoistedDiagGaussian3) LogPDFAt(mu, x geom.Vec3) float64 {
	zx := (x.X - mu.X) / h.sigma[0]
	zy := (x.Y - mu.Y) / h.sigma[1]
	zz := (x.Z - mu.Z) / h.sigma[2]
	lx := -0.5*zx*zx - h.logSigma[0] - 0.5*log2Pi
	ly := -0.5*zy*zy - h.logSigma[1] - 0.5*log2Pi
	lz := -0.5*zz*zz - h.logSigma[2] - 0.5*log2Pi
	return lx + ly + lz
}

// Gaussian3 is a full-covariance three-dimensional Gaussian. It is the
// parametric form used by belief compression: a compressed object location is
// stored as nine numbers (mean plus symmetric covariance).
type Gaussian3 struct {
	Mean geom.Vec3
	Cov  Mat3
}

// NewGaussian3 builds a Gaussian3, regularizing the covariance so that it is
// always usable for sampling and density evaluation.
func NewGaussian3(mean geom.Vec3, cov Mat3) Gaussian3 {
	return Gaussian3{Mean: mean, Cov: cov.Symmetrize().AddDiagonal(1e-9)}
}

// LogPDF returns the log density of v under the Gaussian. If the covariance
// is singular the density falls back to a heavily-regularized version.
func (g Gaussian3) LogPDF(v geom.Vec3) float64 {
	cov := g.Cov.Symmetrize()
	inv, err := cov.Inverse()
	if err != nil {
		cov = cov.AddDiagonal(1e-6)
		inv, err = cov.Inverse()
		if err != nil {
			// Degenerate: treat as an isotropic tight Gaussian.
			d := v.Sub(g.Mean).NormSq()
			return -0.5*d/1e-6 - 1.5*log2Pi - 1.5*math.Log(1e-6)
		}
	}
	det := cov.Det()
	if det <= 0 {
		det = 1e-18
	}
	d := v.Sub(g.Mean)
	q := d.Dot(inv.MulVec(d))
	return -0.5*q - 0.5*math.Log(det) - 1.5*log2Pi
}

// Sample draws from the Gaussian using the Cholesky factor of the covariance.
func (g Gaussian3) Sample(src *rng.Source) geom.Vec3 {
	l, err := g.Cov.Symmetrize().AddDiagonal(1e-12).Cholesky()
	if err != nil {
		// Fall back to per-axis standard deviations.
		return src.NormalVec(g.Mean, geom.Vec3{
			X: math.Sqrt(math.Max(g.Cov[0][0], 0)),
			Y: math.Sqrt(math.Max(g.Cov[1][1], 0)),
			Z: math.Sqrt(math.Max(g.Cov[2][2], 0)),
		})
	}
	z := geom.Vec3{X: src.Normal(0, 1), Y: src.Normal(0, 1), Z: src.Normal(0, 1)}
	return g.Mean.Add(l.MulVec(z))
}

// Variance returns the per-axis variances (the diagonal of the covariance).
func (g Gaussian3) Variance() geom.Vec3 {
	return geom.Vec3{X: g.Cov[0][0], Y: g.Cov[1][1], Z: g.Cov[2][2]}
}

// Sigmoid returns 1 / (1 + exp(-x)), computed in a numerically stable way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(Sigmoid(x)) without overflow for large |x|.
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// LogSumExp returns log(sum_i exp(x_i)) computed stably. It returns -Inf for
// an empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	maxv := xs[0]
	for _, x := range xs[1:] {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}
