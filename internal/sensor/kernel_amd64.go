//go:build amd64 && gc && !purego

package sensor

import (
	"math"

	"repro/internal/geom"
)

// The AVX2+FMA body of the weighting kernels (kernel_amd64.s) evaluates four
// particles per step and reproduces LogObsFrame bit for bit in every lane: it
// repeats math.Sqrt, math.Acos (asin, satan and xatan of the Go sources with
// their branches turned into blends), the FMA branch of the amd64 math.Exp
// assembly and the amd64 math.Log assembly operation for operation. A block
// of four that leaves the range where that holds — an in-range lane whose
// exp argument is below -700 (math.Exp's denormal and underflow paths start
// near -708) or not finite — is handed back and weighed by LogObsFrame.
//
// A second body, behind ExpShifted, runs only the exp block, under the same
// rule: a block with an argument below -700, above 700 or not finite goes to
// math.Exp.

// hasSIMD reports that the CPU and the OS support AVX2 and FMA.
var hasSIMD = cpuHasAVX2FMA()

// useSIMD selects the SIMD body. It is set once at init: hasSIMD, and
// math.Exp takes the FMA branch the body copies. It does wherever the CPU has
// AVX and FMA, unless a GODEBUG cpu override turns either off; then the scalar
// loops stay the only body.
var useSIMD bool

// simdConsts holds every constant of the SIMD body broadcast to four lanes.
// kernel_amd64.s addresses row k at byte offset 32*k, under the name in the
// comment beside it.
var simdConsts [len(simdConstRows)][4]uint64

var simdConstRows = [...]uint64{
	math.Float64bits(1),           // ONE
	math.Float64bits(2),           // TWO
	math.Float64bits(0.5),         // HALF
	math.Float64bits(-1),          // NEGONE
	1 << 63,                       // SIGN
	1<<63 - 1,                     // ABS
	math.Float64bits(math.Pi / 2), // PIO2
	math.Float64bits(math.Pi / 4), // PIO4
	math.Float64bits(0.5 * 6.123233995736765886130e-17),                     // HALFMORE: satan's 0.5*Morebits
	math.Float64bits(0.66),                                                  // C066
	math.Float64bits(0.7),                                                   // C07
	math.Float64bits(-8.750608600031904122785e-01),                          // P0
	math.Float64bits(-1.615753718733365076637e+01),                          // P1
	math.Float64bits(-7.500855792314704667340e+01),                          // P2
	math.Float64bits(-1.228866684490136173410e+02),                          // P3
	math.Float64bits(-6.485021904942025371773e+01),                          // P4
	math.Float64bits(+2.485846490142306297962e+01),                          // Q0
	math.Float64bits(+1.650270098316988542046e+02),                          // Q1
	math.Float64bits(+4.328810604912902668951e+02),                          // Q2
	math.Float64bits(+4.853903996359136964868e+02),                          // Q3
	math.Float64bits(+1.945506571482613964425e+02),                          // Q4
	math.Float64bits(1.4426950408889634073599246810018920),                  // LOG2E
	math.Float64bits(0.69314718055966295651160180568695068359375),           // LN2U
	math.Float64bits(0.28235290563031577122588448175013436025525412068e-12), // LN2L
	math.Float64bits(0.0625),                                                // SIXTEENTH
	math.Float64bits(1.6666666666666666667e-1),                              // E24
	math.Float64bits(4.1666666666666666667e-2),                              // E32
	math.Float64bits(8.3333333333333333333e-3),                              // E40
	math.Float64bits(1.3888888888888888889e-3),                              // E48
	math.Float64bits(1.9841269841269841270e-4),                              // E56
	math.Float64bits(2.4801587301587301587e-5),                              // E64
	0x3FF,                         // EXPBIAS
	math.Float64bits(-700),        // EXPMIN: below about -708 math.Exp leaves its normal path
	math.Float64bits(logObsFloor), // FLOOR
	1<<52 - 1,                     // MANT
	math.Float64bits(1 << 52),     // TWO52
	math.Float64bits(0x3FE),       // C1022
	math.Float64bits(7.07106781186547524401e-01), // HSQRT2
	math.Float64bits(6.666666666666735130e-01),   // L1
	math.Float64bits(3.999999999940941908e-01),   // L2
	math.Float64bits(2.857142874366239149e-01),   // L3
	math.Float64bits(2.222219843214978396e-01),   // L4
	math.Float64bits(1.818357216161805012e-01),   // L5
	math.Float64bits(1.531383769920937332e-01),   // L6
	math.Float64bits(1.479819860511658591e-01),   // L7
	math.Float64bits(6.93147180369123816490e-01), // LN2HI
	math.Float64bits(1.90821492927058770002e-10), // LN2LO
}

// simdParams is one call's model, broadcast to the four lanes. The offsets
// are kernel_amd64.s's P_* names.
type simdParams struct {
	a0, a1, a2, b1, b2 [4]float64
	maxRange           [4]float64 // +Inf when the model has no range cut
	outOfRange         [4]float64 // the result beyond MaxRange
	observed           [4]uint64  // all ones when the tag was read
}

func (m Model) simdParams(observed bool) simdParams {
	b := func(x float64) [4]float64 { return [4]float64{x, x, x, x} }
	p := simdParams{a0: b(m.A0), a1: b(m.A1), a2: b(m.A2), b1: b(m.B1), b2: b(m.B2), maxRange: b(math.Inf(1))}
	if m.MaxRange > 0 {
		p.maxRange = b(m.MaxRange)
	}
	if observed {
		p.outOfRange = b(logOfFloor)
		p.observed = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	return p
}

// accumLogObsSIMD runs AccumLogObs's loop over the leading multiple of four
// particles and returns how many it weighed. The caller has checked every
// reader index.
func (m Model) accumLogObsSIMD(logW []float64, observed bool, frames []Frame, reader []int32, locs []geom.Vec3) int {
	n := len(locs) &^ 3
	if n == 0 {
		return 0
	}
	p := m.simdParams(observed)
	for i := 0; i < n; {
		i += accumLogObsAVX2(&logW[i], &locs[i], &reader[i], &frames[0], n-i, &p)
		for end := min(i+4, n); i < end; i++ {
			logW[i] += m.LogObsFrame(frames[reader[i]], locs[i], observed)
		}
	}
	return n
}

// accumLogObsFixedSIMD runs AccumLogObsFixed's loop over the leading multiple
// of four frames and returns how many it weighed.
func (m Model) accumLogObsFixedSIMD(logW []float64, observed bool, frames []Frame, loc geom.Vec3) int {
	n := len(frames) &^ 3
	if n == 0 {
		return 0
	}
	p := m.simdParams(observed)
	for i := 0; i < n; {
		i += accumLogObsFixedAVX2(&logW[i], &frames[i], n-i, &loc, &p)
		for end := min(i+4, n); i < end; i++ {
			logW[i] += m.LogObsFrame(frames[i], loc, observed)
		}
	}
	return n
}

// accumLogObsAVX2 weighs n particles (a multiple of four) four at a time and
// returns how many it weighed: n, or the start of the first block it hands
// back to the scalar path.
//
//go:noescape
func accumLogObsAVX2(logW *float64, locs *geom.Vec3, reader *int32, frames *Frame, n int, p *simdParams) int

// accumLogObsFixedAVX2 is accumLogObsAVX2 for one tag location against n
// consecutive frames.
//
//go:noescape
func accumLogObsFixedAVX2(logW *float64, frames *Frame, n int, loc *geom.Vec3, p *simdParams) int

// expShiftedAVX2 writes exp(src[i] - c) for n entries (a multiple of four)
// and returns n, or the start of the first block it hands back.
//
//go:noescape
func expShiftedAVX2(dst, src *float64, n int, c float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func cpuHasAVX2FMA() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // the OS saves the XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

func init() {
	for k, bits := range simdConstRows {
		simdConsts[k] = [4]uint64{bits, bits, bits, bits}
	}
	// math.Exp's FMA and plain branches differ at this argument.
	useSIMD = hasSIMD && math.Float64bits(math.Exp(-0.050439)) == 0x3fee6d0d22155b93
}
