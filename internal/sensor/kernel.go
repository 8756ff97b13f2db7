package sensor

import (
	"math"

	"repro/internal/geom"
)

// Batch observation-likelihood kernels for the particle-weighting hot loops.
//
// The per-epoch CPU profile is dominated by logObs: per particle it computes
// a distance/angle (sqrt + acos + cos/sin of the reader heading), the
// logistic read probability (exp) and a log. The kernels below restructure
// that work over the filters' structure-of-arrays columns:
//
//   - the reader heading's cos/sin are hoisted into a Frame, computed once
//     per reader particle per epoch instead of once per (particle, tag) pair;
//   - tags beyond MaxRange short-circuit before touching exp/log (for an
//     unobserved tag the exact contribution is log(1) == 0);
//   - on amd64 CPUs with AVX2 and FMA, AccumLogObs and AccumLogObsFixed weigh
//     four particles per step (kernel_amd64.s). That body is a verified copy
//     of LogObsFrame for this Model, math calls included, and hands any block
//     it cannot reproduce back to LogObsFrame. The scalar loops below are the
//     reference, take the tails of fewer than four particles, and are the
//     only body on other CPUs, other GOARCHes and under -tags purego.
//
// Every arithmetic expression repeats the scalar path — DistanceAngleTo,
// ReadProb, LogObservationProb — operation for operation, so results are
// bit-identical and the golden/property suites hold unchanged. LogObsFrame
// is the one per-element sensor kernel every weighting loop goes through;
// another sensor Profile, or a change to this model's formula, goes there and
// leaves the SIMD body to be rewritten or dropped.

// logObsFloor is the probability floor of LogObs.
const logObsFloor = 1e-9

// logOfFloor is math.Log(logObsFloor), hoisted; bit-identical to computing it
// in place because math.Log is a pure function.
var logOfFloor = math.Log(logObsFloor)

// Frame is a reader pose with the heading's cosine and sine precomputed, the
// per-epoch invariant of the distance/angle computation.
type Frame struct {
	Pos            geom.Vec3
	CosPhi, SinPhi float64
}

// FrameFor precomputes the heading terms of a pose.
func FrameFor(p geom.Pose) Frame {
	return Frame{Pos: p.Pos, CosPhi: math.Cos(p.Phi), SinPhi: math.Sin(p.Phi)}
}

// distanceAngle repeats geom.Pose.DistanceAngleTo with the hoisted heading
// terms: same expressions, same order, bit-identical results.
func distanceAngle(fr Frame, loc geom.Vec3) (d, theta float64) {
	dx := loc.X - fr.Pos.X
	dy := loc.Y - fr.Pos.Y
	dz := loc.Z - fr.Pos.Z
	d = math.Sqrt(dx*dx + dy*dy + dz*dz)
	if d == 0 {
		return 0, 0
	}
	cos := (dx*fr.CosPhi + dy*fr.SinPhi) / d
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return d, math.Acos(cos)
}

// LogObsFrame returns log p(observed | reader frame, tag location) for a
// binary observation, bit-identical to LogObservationProb at the frame's
// pose. Out-of-range tags skip the logistic evaluation entirely: the exact
// result there is log(1e-9) when observed and log(1) == 0 when not.
func (m Model) LogObsFrame(fr Frame, loc geom.Vec3, observed bool) float64 {
	d, theta := distanceAngle(fr, loc)
	if m.MaxRange > 0 && d > m.MaxRange {
		if observed {
			return logOfFloor
		}
		return 0
	}
	pr := sigmoid(m.linear(d, theta))
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

// AccumLogObs adds each particle's observation log-likelihood to its entry in
// the logW column: logW[i] += LogObsFrame(frames[reader[i]], locs[i]). It is
// the factored filter's per-object weighting step (Eq. 5: each object
// particle is weighted against its associated reader particle only) over the
// belief's structure-of-arrays columns. It returns false — leaving logW
// untouched — when any reader index is out of range (possible transiently
// after reader resampling); the caller then falls back to the scalar path.
//
// The trailing bool is ignored. It selected an approximate numeric mode that
// no longer exists, and stays only because the frozen benchmark module still
// passes it; callers pass false.
func (m Model) AccumLogObs(logW []float64, observed bool, frames []Frame, reader []int32, locs []geom.Vec3, _ bool) bool {
	n := len(locs)
	if len(logW) < n || len(reader) < n {
		return false
	}
	nf := int32(len(frames))
	for _, r := range reader[:n] {
		if r < 0 || r >= nf {
			return false
		}
	}
	i := 0
	if useSIMD {
		i = m.accumLogObsSIMD(logW[:n], observed, frames, reader[:n], locs)
	}
	for ; i < n; i++ {
		logW[i] += m.LogObsFrame(frames[reader[i]], locs[i], observed)
	}
	return true
}

// AccumLogObsFixed adds the log-likelihood of one fixed tag location to every
// frame's accumulator: logW[j] += LogObsFrame(frames[j], loc). It is the
// reader-particle weighting step against a shelf tag with a known location.
// The trailing bool is ignored, as for AccumLogObs.
func (m Model) AccumLogObsFixed(logW []float64, observed bool, frames []Frame, loc geom.Vec3, _ bool) {
	n := min(len(frames), len(logW))
	i := 0
	if useSIMD {
		i = m.accumLogObsFixedSIMD(logW[:n], observed, frames[:n], loc)
	}
	for ; i < n; i++ {
		logW[i] += m.LogObsFrame(frames[i], loc, observed)
	}
}
