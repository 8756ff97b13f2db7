package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/stream"
)

// Tolerance bounds the per-axis numeric difference allowed between two event
// streams by CompareTolerance: values a and b are equivalent when
// |a-b| <= Abs + Rel*max(|a|, |b|).
//
// Event schedules (Time, Tag, and the number of events) are always compared
// exactly — which objects report when depends only on the observation stream,
// not on the weighting numerics, so even approximate-kernel runs must agree
// on them exactly.
type Tolerance struct {
	// Abs is the absolute difference floor, covering values near zero where
	// a relative bound degenerates.
	Abs float64
	// Rel is the relative difference bound.
	Rel float64
	// CompareStats additionally compares EventStats (per-axis Variance under
	// the same bound, NumParticles and Compressed exactly). It is off by
	// default: the compression policy thresholds on KL divergence, a
	// weight-sensitive statistic, so an approximate-kernel run may compress a
	// belief one epoch earlier or later than the exact run and legitimately
	// report different particle counts while the locations still agree.
	CompareStats bool
}

// FastMathTolerance returns the documented equivalence bound between a
// Config.FastMath run and the exact default: locations agree to within
// 1e-6 ft absolute plus 1e-6 relative. The fast kernels' per-call relative
// error is below ~2e-8; the looser stream-level bound absorbs accumulation
// across an epoch's weighting passes, normalization and resampling-threshold
// effects on many-particle estimates.
func FastMathTolerance() Tolerance {
	return Tolerance{Abs: 1e-6, Rel: 1e-6}
}

// within reports whether a and b are equivalent under the tolerance.
func (tol Tolerance) within(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= tol.Abs+tol.Rel*math.Max(math.Abs(a), math.Abs(b))
}

// withinVec reports whether two vectors are equivalent per axis.
func (tol Tolerance) withinVec(a, b geom.Vec3) bool {
	return tol.within(a.X, b.X) && tol.within(a.Y, b.Y) && tol.within(a.Z, b.Z)
}

// CompareTolerance compares two event streams under a numeric tolerance: the
// schedules (length, Time, Tag) must match exactly, locations (and, when
// requested, variances) per axis within the bound. It returns nil when the
// streams are equivalent and an error naming the first divergence otherwise.
//
// This is the equivalence mode for runs that are deterministic but not
// byte-identical — in particular comparing a Config.FastMath run against the
// exact default (use FastMathTolerance). Byte-identity claims (across
// Workers/ShardCount within the same numerics mode) should keep using exact
// comparison.
func CompareTolerance(got, want []stream.Event, tol Tolerance) error {
	if len(got) != len(want) {
		return fmt.Errorf("core: event count mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Time != w.Time || g.Tag != w.Tag {
			return fmt.Errorf("core: event %d schedule mismatch: got (t=%d, tag=%s), want (t=%d, tag=%s)",
				i, g.Time, g.Tag, w.Time, w.Tag)
		}
		if !tol.withinVec(g.Loc, w.Loc) {
			return fmt.Errorf("core: event %d (t=%d, tag=%s) location diverges: got %v, want %v (tol abs=%g rel=%g)",
				i, w.Time, w.Tag, g.Loc, w.Loc, tol.Abs, tol.Rel)
		}
		if tol.CompareStats {
			if !tol.withinVec(g.Stats.Variance, w.Stats.Variance) {
				return fmt.Errorf("core: event %d (t=%d, tag=%s) variance diverges: got %v, want %v",
					i, w.Time, w.Tag, g.Stats.Variance, w.Stats.Variance)
			}
			if g.Stats.NumParticles != w.Stats.NumParticles || g.Stats.Compressed != w.Stats.Compressed {
				return fmt.Errorf("core: event %d (t=%d, tag=%s) stats mismatch: got particles=%d compressed=%t, want particles=%d compressed=%t",
					i, w.Time, w.Tag, g.Stats.NumParticles, g.Stats.Compressed,
					w.Stats.NumParticles, w.Stats.Compressed)
			}
		}
	}
	return nil
}
