// Package sensor implements the RFID sensor models of the paper: the flexible
// parametric (logistic-regression) model of Eq. 1 that the system learns and
// uses for inference, and the ground-truth detection profiles (cone-shaped
// and spherical) that the simulator uses to generate readings.
package sensor

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Model is the parametric RFID sensor model of Eq. 1:
//
//	p(read | d, theta) = sigmoid(A0 + A1*d + A2*d^2 + B1*theta + B2*theta^2)
//
// equivalently p(miss | d, theta) = 1 / (1 + exp{A0 + A1 d + ...}) with the
// sign convention of the paper, where the distance/angle coefficients are
// expected to be negative so that the read rate decays away from the antenna
// axis. The same model (and coefficients) is used for object tags and shelf
// tags.
type Model struct {
	A0, A1, A2 float64 // intercept, distance, distance^2
	B1, B2     float64 // angle, angle^2

	// MaxRange is the distance (feet) beyond which the read probability is
	// treated as zero during inference. It also determines the bounding box
	// of the sensing region used by the spatial index and the width of the
	// initialization cone. It should be an overestimate of the true range.
	MaxRange float64
}

// DefaultModel returns a reasonable hand-specified model for a short-range
// reader: near-certain reads within about a foot directly in front of the
// antenna, decaying to near zero around three feet or beyond ~60 degrees
// off-axis. It serves as the starting point for calibration and as a stand-in
// when no training data is available.
func DefaultModel() Model {
	return Model{A0: 4.0, A1: -0.8, A2: -0.5, B1: -1.0, B2: -2.0, MaxRange: 4.0}
}

// Coefficients returns the model coefficients in the feature order used by
// the calibration code: [1, d, d^2, theta, theta^2].
func (m Model) Coefficients() []float64 {
	return []float64{m.A0, m.A1, m.A2, m.B1, m.B2}
}

// ModelFromCoefficients builds a Model from coefficients in the order
// [1, d, d^2, theta, theta^2].
func ModelFromCoefficients(beta []float64, maxRange float64) (Model, error) {
	if len(beta) != 5 {
		return Model{}, fmt.Errorf("sensor: expected 5 coefficients, got %d", len(beta))
	}
	return Model{A0: beta[0], A1: beta[1], A2: beta[2], B1: beta[3], B2: beta[4], MaxRange: maxRange}, nil
}

// Features returns the logistic regression feature vector for a
// distance/angle pair.
func Features(d, theta float64) []float64 {
	return []float64{1, d, d * d, theta, theta * theta}
}

// linear returns the linear predictor A0 + A1 d + A2 d^2 + B1 theta + B2 theta^2.
func (m Model) linear(d, theta float64) float64 {
	return m.A0 + m.A1*d + m.A2*d*d + m.B1*theta + m.B2*theta*theta
}

// ReadProb returns p(tag read | distance d, angle theta).
func (m Model) ReadProb(d, theta float64) float64 {
	if m.MaxRange > 0 && d > m.MaxRange {
		return 0
	}
	return sigmoid(m.linear(d, theta))
}

// MissProb returns p(tag not read | distance d, angle theta), the quantity
// written as p(Ô=0 | d, theta) in Eq. 1.
func (m Model) MissProb(d, theta float64) float64 {
	return 1 - m.ReadProb(d, theta)
}

// DetectProb returns the probability that a tag at loc is read by a reader at
// pose p.
func (m Model) DetectProb(p geom.Pose, loc geom.Vec3) float64 {
	d, theta := p.DistanceAngleTo(loc)
	return m.ReadProb(d, theta)
}

// LogObservationProb returns log p(observed | reader pose, tag location) for
// a binary observation under the model: LogObs of ModelProfile{m}.
func (m Model) LogObservationProb(observed bool, p geom.Pose, loc geom.Vec3) float64 {
	return LogObs(ModelProfile{Model: m}, observed, p, loc)
}

// LogObs returns log p(observed | reader pose, tag location) for a binary
// observation under profile s. It is the per-tag factor of the particle
// weight. Probabilities are floored at logObsFloor to keep weights finite: a
// particle that is merely improbable must not be annihilated by a single
// noisy reading (the paper's Case 4 rounding works in the opposite direction
// and is handled by the spatial index, not here).
func LogObs(s Profile, observed bool, p geom.Pose, loc geom.Vec3) float64 {
	pr := s.DetectProb(p, loc)
	if observed {
		if pr < logObsFloor {
			pr = logObsFloor
		}
		return math.Log(pr)
	}
	q := 1 - pr
	if q < logObsFloor {
		q = logObsFloor
	}
	return math.Log(q)
}

// SensingBBox returns the axis-aligned bounding box of the sensing region for
// a reader at pose p: a cube of half-width MaxRange. The spatial index stores
// one such box per reported reader location.
func (m Model) SensingBBox(p geom.Pose) geom.BBox {
	r := m.MaxRange
	if r <= 0 {
		r = DefaultModel().MaxRange
	}
	return geom.BBoxAround(p.Pos, r)
}

// EffectiveRange returns the distance (on-axis) at which the read probability
// drops below threshold. It is found by bisection over [0, MaxRange].
func (m Model) EffectiveRange(threshold float64) float64 {
	maxR := m.MaxRange
	if maxR <= 0 {
		maxR = 10
	}
	if m.ReadProb(maxR, 0) >= threshold {
		return maxR
	}
	if m.ReadProb(0, 0) < threshold {
		return 0
	}
	lo, hi := 0.0, maxR
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.ReadProb(mid, 0) >= threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("sensor.Model{a=[%.3f %.3f %.3f] b=[%.3f %.3f] range=%.2f}",
		m.A0, m.A1, m.A2, m.B1, m.B2, m.MaxRange)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
