package sensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Differential checks of the SIMD body (kernel_amd64.s) against LogObsFrame.
// Every comparison is on the bits of the result, so -0, +0 and NaN payloads
// count.

// skipWithoutSIMD skips a test that needs the SIMD body and says why.
func skipWithoutSIMD(t testing.TB) {
	t.Helper()
	switch {
	case !hasSIMD:
		t.Skip("SIMD half skipped: no AVX2+FMA body here (CPU without AVX2 and FMA, GOARCH other than amd64, or -tags purego)")
	case !useSIMD:
		t.Skip("SIMD half skipped: math.Exp is not on its FMA branch in this process (GODEBUG cpu override)")
	}
}

// kernelLanes is one (frame, tag location) pair per lane.
type kernelLanes struct {
	frames []Frame
	reader []int32
	locs   []geom.Vec3
}

func (l *kernelLanes) add(fr Frame, loc geom.Vec3) {
	l.reader = append(l.reader, int32(len(l.frames)))
	l.frames = append(l.frames, fr)
	l.locs = append(l.locs, loc)
}

func (l *kernelLanes) reset() {
	l.frames, l.reader, l.locs = l.frames[:0], l.reader[:0], l.locs[:0]
}

// priorLogW is the column the kernels add into: varied, with a -0 entry.
func priorLogW(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = -0.25 * float64(i%7)
	}
	if n > 0 {
		w[0] = math.Copysign(0, -1)
	}
	return w
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareSIMD weighs the lanes through the SIMD body and through LogObsFrame,
// read and not read, and fails on the first lane whose bits differ.
func compareSIMD(t testing.TB, m Model, l *kernelLanes) {
	t.Helper()
	for _, observed := range []bool{true, false} {
		prior := priorLogW(len(l.locs))
		got := append([]float64(nil), prior...)
		n := m.accumLogObsSIMD(got, observed, l.frames, l.reader, l.locs)
		if n != len(l.locs)&^3 {
			t.Fatalf("SIMD body weighed %d of %d lanes", n, len(l.locs))
		}
		for i := 0; i < n; i++ {
			fr, loc := l.frames[l.reader[i]], l.locs[i]
			if want := prior[i] + m.LogObsFrame(fr, loc, observed); !sameBits(got[i], want) {
				d, th := distanceAngle(fr, loc)
				t.Fatalf("%v observed=%v lane %d (frame %+v, loc %+v, d=%v, theta=%v): SIMD %v (%#x), scalar %v (%#x)",
					m, observed, i, fr, loc, d, th, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}

// compareFixedSIMD is compareSIMD for AccumLogObsFixed's body: every frame
// against one tag location.
func compareFixedSIMD(t testing.TB, m Model, frames []Frame, loc geom.Vec3) {
	t.Helper()
	for _, observed := range []bool{true, false} {
		prior := priorLogW(len(frames))
		got := append([]float64(nil), prior...)
		n := m.accumLogObsFixedSIMD(got, observed, frames, loc)
		if n != len(frames)&^3 {
			t.Fatalf("fixed SIMD body weighed %d of %d frames", n, len(frames))
		}
		for j := 0; j < n; j++ {
			if want := prior[j] + m.LogObsFrame(frames[j], loc, observed); !sameBits(got[j], want) {
				t.Fatalf("%v observed=%v fixed lane %d (frame %+v, loc %+v): SIMD %v (%#x), scalar %v (%#x)",
					m, observed, j, frames[j], loc, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
			}
		}
	}
}

// noCutModel has no range cut, so every lane takes the logistic path.
var noCutModel = Model{A0: 2.5, A1: -1.2, A2: -0.1, B1: -0.4, B2: -1.1}

// randomFrame is a reader anywhere in a 20x20x3 ft room, heading anywhere.
func randomFrame(src *rand.Rand) Frame {
	return FrameFor(geom.Pose{
		Pos: geom.Vec3{X: 20 * src.Float64(), Y: 20 * src.Float64(), Z: 3 * src.Float64()},
		Phi: math.Pi * (2*src.Float64() - 1),
	})
}

// around returns a point within radius of p, in any direction.
func around(src *rand.Rand, p geom.Vec3, radius float64) geom.Vec3 {
	v := geom.Vec3{X: src.NormFloat64(), Y: src.NormFloat64(), Z: src.NormFloat64()}
	s := radius * src.Float64() / math.Sqrt(v.X*v.X+v.Y*v.Y+v.Z*v.Z)
	return geom.Vec3{X: p.X + s*v.X, Y: p.Y + s*v.Y, Z: p.Z + s*v.Z}
}

// testSIMDRandomLanes compares the bodies over random in-range lanes: at
// least 10 M per observed value through AccumLogObs's body (1 M in -short
// mode) and a quarter as many through AccumLogObsFixed's.
func testSIMDRandomLanes(t *testing.T) {
	skipWithoutSIMD(t)
	const chunk = 1 << 14
	total := 10_000_000
	if testing.Short() {
		total = 1_000_000
	}
	src := rand.New(rand.NewSource(7))
	var l kernelLanes
	fixed := make([]Frame, chunk/4)
	for done := 0; done < total; done += chunk {
		m, radius := DefaultModel(), DefaultModel().MaxRange
		if done%(8*chunk) == 0 {
			m, radius = noCutModel, 6
		}
		l.reset()
		readers := make([]Frame, 64)
		for j := range readers {
			readers[j] = randomFrame(src)
		}
		for i := 0; i < chunk; i++ {
			r := src.Intn(len(readers))
			l.frames = append(l.frames, readers[r])
			l.reader = append(l.reader, int32(i))
			l.locs = append(l.locs, around(src, readers[r].Pos, radius))
		}
		compareSIMD(t, m, &l)
		loc := l.locs[0]
		for j := range fixed {
			fixed[j] = FrameFor(geom.Pose{Pos: around(src, loc, radius), Phi: math.Pi * (2*src.Float64() - 1)})
		}
		compareFixedSIMD(t, m, fixed, loc)
	}
}

// laneWithCos returns a lane whose clamped cosine is exactly c: a reader at
// the origin heading along +x and a tag at distance exactly 1.
func laneWithCos(t *testing.T, c float64) (Frame, geom.Vec3) {
	t.Helper()
	fr := FrameFor(geom.Pose{})
	s := math.Sqrt(1 - c*c)
	for k := 0; k < 64; k++ {
		for _, y := range []float64{s, -s} {
			loc := geom.Vec3{X: c, Y: y}
			if d, _ := distanceAngle(fr, loc); d == 1 {
				return fr, loc
			}
		}
		s = math.Nextafter(s, 2)
	}
	t.Fatalf("no lane with cos %v at distance 1", c)
	return Frame{}, geom.Vec3{}
}

// ulpsAround returns x and its k neighbours on each side.
func ulpsAround(x float64, k int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < k; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// interceptFor searches the intercept A0 near x0, upward, at which a
// zero-distance lane's read probability is exactly pr (the linear predictor
// there is A0 itself).
func interceptFor(t *testing.T, x0, pr float64) float64 {
	t.Helper()
	lo := x0 - 1e-12
	for a0 := lo; a0 < x0+1e-12; a0 = math.Nextafter(a0, 1) {
		if sigmoid(a0) == pr {
			return a0
		}
	}
	t.Fatalf("no intercept near %v gives read probability %v", x0, pr)
	return 0
}

// testSIMDEdgeLanes compares the bodies on the lanes where a blend or a
// boundary decides the result. Each edge lane shares its block of four only
// with ordinary in-range lanes, at a rotating position, so a lane the SIMD
// body hands back cannot hide another edge lane's result, and a block handed
// back is followed by SIMD blocks.
func testSIMDEdgeLanes(t *testing.T) {
	skipWithoutSIMD(t)
	src := rand.New(rand.NewSource(11))
	origin := FrameFor(geom.Pose{})
	type edge struct {
		name  string
		model Model
		lanes kernelLanes
	}
	var edges []edge
	add := func(name string, m Model, build func(add func(Frame, geom.Vec3))) {
		e := edge{name: name, model: m}
		build(func(fr Frame, loc geom.Vec3) {
			at := len(e.lanes.locs) / 4 % 4
			for k := 0; k < 4; k++ {
				if k == at {
					e.lanes.add(fr, loc)
					continue
				}
				r := randomFrame(src)
				e.lanes.add(r, around(src, r.Pos, 3))
			}
		})
		edges = append(edges, e)
	}

	atReader := func(add func(Frame, geom.Vec3)) {
		for _, phi := range []float64{0, 1, -2.5, math.Inf(1), math.NaN()} {
			fr := FrameFor(geom.Pose{Pos: geom.Vec3{X: 1, Y: 2, Z: 0.5}, Phi: phi})
			add(fr, fr.Pos)
		}
	}
	add("d == 0", DefaultModel(), atReader)
	add("x == +0", Model{A1: -0.8, A2: -0.5, B1: -1, B2: -2, MaxRange: 4}, atReader)
	add("x == -0", Model{A0: math.Copysign(0, -1), A1: -0.8, A2: -0.5, B1: -1, B2: -2, MaxRange: 4}, atReader)

	add("d at MaxRange", DefaultModel(), func(add func(Frame, geom.Vec3)) {
		for _, r := range ulpsAround(4, 3) {
			add(origin, geom.Vec3{X: r})
			add(origin, geom.Vec3{Y: -r})
			add(origin, geom.Vec3{Z: r})
		}
		add(origin, geom.Vec3{X: 2.4, Y: 3.2})
	})

	add("cos at ±1", DefaultModel(), func(add func(Frame, geom.Vec3)) {
		overOne := 0
		for i := 0; i < 512; i++ {
			fr := randomFrame(src)
			r := 3.9 * src.Float64()
			if i%2 == 1 {
				r = -r
			}
			loc := geom.Vec3{X: fr.Pos.X + r*fr.CosPhi, Y: fr.Pos.Y + r*fr.SinPhi, Z: fr.Pos.Z}
			dx, dy := loc.X-fr.Pos.X, loc.Y-fr.Pos.Y
			d, _ := distanceAngle(fr, loc)
			if c := (dx*fr.CosPhi + dy*fr.SinPhi) / d; c > 1 || c < -1 {
				overOne++
			}
			add(fr, loc)
		}
		if overOne == 0 {
			t.Fatal("no lane along the heading rounds its cosine past ±1; the clamp is not exercised")
		}
	})

	// asin branches at |x| > 0.7; satan's at y <= 0.66, which is
	// x/sqrt(1-x*x) = 0.66 (|x| near 0.5508) below 0.7 and
	// sqrt(1-x*x)/x = 0.66 (|x| near 0.8346) above. No x within 2e5 ulps of
	// either makes y exactly 0.66, so the lanes straddle it. y stays below
	// 1.03, so satan's y > tan(3*Pi/8) branch is out of reach and has no lane.
	add("asin and satan boundaries", DefaultModel(), func(add func(Frame, geom.Vec3)) {
		for _, c0 := range []float64{0.7, 0.66 / math.Sqrt(1+0.66*0.66), 1 / math.Sqrt(1+0.66*0.66), 0, 1} {
			for _, c := range ulpsAround(c0, 24) {
				if c > 1 {
					continue
				}
				add(laneWithCos(t, c))
				add(laneWithCos(t, -c))
			}
		}
	})

	// The sigmoid's exp argument is -|A0| on a zero-distance lane; below -700
	// (and below about -708, where math.Exp leaves its normal path) the block
	// goes back to the scalar path.
	for _, a0 := range []float64{-699.5, -700, math.Nextafter(-700, -800), -708.3, -708.5, -709, -745, -746, 700, 708.5, 746} {
		add("exp argument near -700", Model{A0: a0, A1: -0.8, A2: -0.5, B1: -1, B2: -2, MaxRange: 4}, atReader)
	}

	// Read probabilities on both sides of the 1e-9 floor (pr when read,
	// 1 - pr when not).
	for _, a0 := range append(ulpsAround(math.Log(1e-9), 4), -30, 20.7, 20.8, 25, 40) {
		add("pr at the floor", Model{A0: a0, A1: -0.8, A2: -0.5, B1: -1, B2: -2, MaxRange: 4}, atReader)
	}

	// log's f1 <= Sqrt2/2 comparison at equality: a read probability (read)
	// or miss probability (not read) whose mantissa is exactly Sqrt2/2.
	h := math.Sqrt2 / 2
	for _, pr := range []float64{h, 1 - h} {
		a0 := interceptFor(t, math.Log(pr/(1-pr)), pr)
		add("log mantissa at Sqrt2/2", Model{A0: a0, A1: -0.8, A2: -0.5, B1: -1, B2: -2, MaxRange: 4}, atReader)
	}

	nan, inf := math.NaN(), math.Inf(1)
	odd := func(add func(Frame, geom.Vec3)) {
		fr := FrameFor(geom.Pose{Pos: geom.Vec3{X: 1, Y: 1, Z: 1}, Phi: 0.4})
		for _, loc := range []geom.Vec3{
			{X: nan, Y: 1, Z: 1}, {X: 2, Y: nan, Z: 1}, {X: 2, Y: 1, Z: nan},
			{X: inf, Y: 1, Z: 1}, {X: -inf, Y: inf, Z: 1}, {X: inf, Y: nan, Z: 1},
			{X: 1e200, Y: 1, Z: 1},
		} {
			add(fr, loc)
		}
		for _, tiny := range []geom.Vec3{{X: 1e-160}, {X: -1e-160, Y: 1e-161}, {X: 1e-310}, {Y: 5e-324}} {
			add(origin, tiny)
		}
		add(Frame{Pos: geom.Vec3{X: nan}, CosPhi: 1}, geom.Vec3{X: 1})
		add(Frame{CosPhi: nan, SinPhi: 0}, geom.Vec3{X: 1})
		add(Frame{CosPhi: inf, SinPhi: 0}, geom.Vec3{X: 1})
	}
	add("NaN and Inf inputs", DefaultModel(), odd)
	add("NaN and Inf inputs, no range cut", noCutModel, odd)
	add("NaN coefficient", Model{A0: nan, MaxRange: 4}, atReader)

	for _, e := range edges {
		compareSIMD(t, e.model, &e.lanes)
		fixedLoc := geom.Vec3{X: 1, Y: 2, Z: 0.5}
		frames := make([]Frame, len(e.lanes.locs))
		for i := range frames { // the same offsets, seen from the fixed tag
			fr, loc := e.lanes.frames[e.lanes.reader[i]], e.lanes.locs[i]
			frames[i] = Frame{Pos: geom.Vec3{X: fixedLoc.X - (loc.X - fr.Pos.X), Y: fixedLoc.Y - (loc.Y - fr.Pos.Y), Z: fixedLoc.Z - (loc.Z - fr.Pos.Z)}, CosPhi: fr.CosPhi, SinPhi: fr.SinPhi}
		}
		compareFixedSIMD(t, e.model, frames, fixedLoc)
	}
}

// testKernelLengths runs both exported kernels at every length from 0 to 7,
// so the SIMD body meets zero, one and one-plus-tail blocks.
func testKernelLengths(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	m := DefaultModel()
	for n := 0; n <= 7; n++ {
		var l kernelLanes
		for i := 0; i < n; i++ {
			fr := randomFrame(src)
			l.add(fr, around(src, fr.Pos, 4))
		}
		for _, observed := range []bool{true, false} {
			want := priorLogW(n)
			got := append([]float64(nil), want...)
			for i := range want {
				want[i] += m.LogObsFrame(l.frames[i], l.locs[i], observed)
			}
			if !m.AccumLogObs(got, observed, l.frames, l.reader, l.locs, false) {
				t.Fatalf("n=%d: AccumLogObs refused valid input", n)
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("n=%d observed=%v: AccumLogObs[%d] = %v, want %v", n, observed, i, got[i], want[i])
				}
			}
			loc := around(src, geom.Vec3{X: 10, Y: 10, Z: 1}, 1)
			frames := make([]Frame, n)
			for j := range frames {
				frames[j] = FrameFor(geom.Pose{Pos: around(src, loc, 4), Phi: src.Float64()})
			}
			want = priorLogW(n)
			got = append(got[:0], want...)
			for j := range want {
				want[j] += m.LogObsFrame(frames[j], loc, observed)
			}
			m.AccumLogObsFixed(got, observed, frames, loc, false)
			for j := range got {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("n=%d observed=%v: AccumLogObsFixed[%d] = %v, want %v", n, observed, j, got[j], want[j])
				}
			}
		}
	}
}

// FuzzAccumLogObs compares the SIMD body with LogObsFrame on seven lanes
// around one fuzzed reader pose and tag location, under a fuzzed model.
func FuzzAccumLogObs(f *testing.F) {
	d := DefaultModel()
	f.Add(d.A0, d.A1, d.A2, d.B1, d.B2, d.MaxRange, -1.5, 4.0, 0.0, 0.01, 0.5, 3.5, 0.0)
	f.Add(d.A0, d.A1, d.A2, d.B1, d.B2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-700.0, d.A1, d.A2, d.B1, d.B2, d.MaxRange, 1.0, 1.0, 1.0, 3.0, 1.5, 1.2, 0.7)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), 0.0, 0.0, 0.0, math.NaN(), 4.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a0, a1, a2, b1, b2, maxRange, px, py, pz, phi, lx, ly, lz float64) {
		skipWithoutSIMD(t)
		m := Model{A0: a0, A1: a1, A2: a2, B1: b1, B2: b2, MaxRange: maxRange}
		fr := FrameFor(geom.Pose{Pos: geom.Vec3{X: px, Y: py, Z: pz}, Phi: phi})
		var l kernelLanes
		frames := make([]Frame, 7)
		for i := range frames {
			s := float64(i)
			loc := geom.Vec3{X: lx + 0.37*s, Y: ly - 0.21*s, Z: lz + 0.05*s}
			if i == 3 {
				loc = fr.Pos // d == 0
			}
			l.add(fr, loc)
			frames[i] = FrameFor(geom.Pose{Pos: geom.Vec3{X: px - 0.29*s, Y: py + 0.13*s, Z: pz}, Phi: phi + 0.7*s})
		}
		compareSIMD(t, m, &l)
		compareFixedSIMD(t, m, frames, geom.Vec3{X: lx, Y: ly, Z: lz})
	})
}
