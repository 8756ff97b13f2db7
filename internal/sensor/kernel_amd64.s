//go:build amd64 && gc && !purego

#include "textflag.h"

// Four-lane AVX2+FMA bodies of AccumLogObs and AccumLogObsFixed, and of
// ExpShifted. Each lane repeats LogObsFrame (or math.Exp) operation for
// operation (see kernel_amd64.go); the comment above each macro names the Go
// or math-assembly steps it copies.
// Go's operand order is the reverse of Intel's: "VSUBPD b, a, d" is d = a - b,
// "VBLENDVPD m, t, f, d" is d = m ? t : f, "VCMPPD $p, b, a, d" is d = a p b.

// Rows of simdConsts, 32 bytes each.
#define ONE ·simdConsts+0(SB)
#define TWO ·simdConsts+32(SB)
#define HALF ·simdConsts+64(SB)
#define NEGONE ·simdConsts+96(SB)
#define SIGN ·simdConsts+128(SB)
#define ABS ·simdConsts+160(SB)
#define PIO2 ·simdConsts+192(SB)
#define PIO4 ·simdConsts+224(SB)
#define HALFMORE ·simdConsts+256(SB)
#define C066 ·simdConsts+288(SB)
#define C07 ·simdConsts+320(SB)
#define P0 ·simdConsts+352(SB)
#define P1 ·simdConsts+384(SB)
#define P2 ·simdConsts+416(SB)
#define P3 ·simdConsts+448(SB)
#define P4 ·simdConsts+480(SB)
#define Q0 ·simdConsts+512(SB)
#define Q1 ·simdConsts+544(SB)
#define Q2 ·simdConsts+576(SB)
#define Q3 ·simdConsts+608(SB)
#define Q4 ·simdConsts+640(SB)
#define LOG2E ·simdConsts+672(SB)
#define LN2U ·simdConsts+704(SB)
#define LN2L ·simdConsts+736(SB)
#define SIXTEENTH ·simdConsts+768(SB)
#define E24 ·simdConsts+800(SB)
#define E32 ·simdConsts+832(SB)
#define E40 ·simdConsts+864(SB)
#define E48 ·simdConsts+896(SB)
#define E56 ·simdConsts+928(SB)
#define E64 ·simdConsts+960(SB)
#define EXPBIAS ·simdConsts+992(SB)
#define EXPMIN ·simdConsts+1024(SB)
#define FLOOR ·simdConsts+1056(SB)
#define MANT ·simdConsts+1088(SB)
#define TWO52 ·simdConsts+1120(SB)
#define C1022 ·simdConsts+1152(SB)
#define HSQRT2 ·simdConsts+1184(SB)
#define L1 ·simdConsts+1216(SB)
#define L2 ·simdConsts+1248(SB)
#define L3 ·simdConsts+1280(SB)
#define L4 ·simdConsts+1312(SB)
#define L5 ·simdConsts+1344(SB)
#define L6 ·simdConsts+1376(SB)
#define L7 ·simdConsts+1408(SB)
#define LN2HI ·simdConsts+1440(SB)
#define LN2LO ·simdConsts+1472(SB)

// Fields of simdParams, addressed through R12.
#define P_A0 0(R12)
#define P_A1 32(R12)
#define P_A2 64(R12)
#define P_B1 96(R12)
#define P_B2 128(R12)
#define P_MAXRANGE 160(R12)
#define P_OUTOFRANGE 192(R12)
#define P_OBSERVED 224(R12)

// LOAD4 gathers four float64s into the lanes of Y (X is its low half).
#define LOAD4(a, b, c, d, Y, X, XT) \
	VMOVSD      a, X;           \
	VMOVHPD     b, X, X;        \
	VMOVSD      c, XT;          \
	VMOVHPD     d, XT, XT;      \
	VINSERTF128 $1, XT, Y, Y

// distanceAngle on dx, dy, dz, CosPhi, SinPhi in Y0-Y4: d in Y15, the
// clamped cosine in Y0 (NaN stays NaN, as in the Go clamp), d == 0 in Y14 and
// d > MaxRange in Y13.
#define DISTANCE \
	VMULPD       Y0, Y0, Y5; \
	VMULPD       Y1, Y1, Y6; \
	VADDPD       Y6, Y5, Y5; \
	VMULPD       Y2, Y2, Y6; \
	VADDPD       Y6, Y5, Y5; \
	VSQRTPD      Y5, Y15; \
	VMULPD       Y3, Y0, Y0; \
	VMULPD       Y4, Y1, Y1; \
	VADDPD       Y1, Y0, Y0; \
	VDIVPD       Y15, Y0, Y0; \
	VMOVUPD      ONE, Y1; \
	VMINPD       Y0, Y1, Y0; \
	VMOVUPD      NEGONE, Y1; \
	VMAXPD       Y0, Y1, Y0; \
	VXORPD       Y1, Y1, Y1; \
	VCMPPD       $0x00, Y1, Y15, Y14; \
	VCMPPD       $0x0E, P_MAXRANGE, Y15, Y13

// asin's reduction of x = Y0: the sign bit in Y12, x > 0.7 in Y11 and satan's
// argument, temp/x or x/temp with temp = sqrt(1 - x*x), in Y3.
#define ASIN_ARG \
	VANDPD       SIGN, Y0, Y12; \
	VANDPD       ABS, Y0, Y1; \
	VMULPD       Y1, Y1, Y2; \
	VMOVUPD      ONE, Y3; \
	VSUBPD       Y2, Y3, Y2; \
	VSQRTPD      Y2, Y2; \
	VCMPPD       $0x0E, C07, Y1, Y11; \
	VBLENDVPD    Y11, Y2, Y1, Y3; \
	VBLENDVPD    Y11, Y1, Y2, Y4; \
	VDIVPD       Y4, Y3, Y3

// satan's reduction of y = Y3: y <= 0.66 in Y10 and xatan's argument, y or
// (y-1)/(y+1) with one division, in Y1. Here y = temp/x with x > 0.7 or x/temp
// with x <= 0.7, so y < 1.03 and satan's branch for y > tan(3*Pi/8) never runs.
#define SATAN_ARG \
	VCMPPD       $0x02, C066, Y3, Y10; \
	VMOVUPD      ONE, Y0; \
	VSUBPD       Y0, Y3, Y1; \
	VADDPD       Y0, Y3, Y2; \
	VBLENDVPD    Y10, Y3, Y1, Y1; \
	VBLENDVPD    Y10, Y0, Y2, Y2; \
	VDIVPD       Y2, Y1, Y1

// xatan(w) of Y1 in place: z = w*w; z = z*P(z)/Q(z); w*z + w.
#define XATAN \
	VMULPD       Y1, Y1, Y2; \
	VMULPD       P0, Y2, Y4; \
	VADDPD       P1, Y4, Y4; \
	VMULPD       Y2, Y4, Y4; \
	VADDPD       P2, Y4, Y4; \
	VMULPD       Y2, Y4, Y4; \
	VADDPD       P3, Y4, Y4; \
	VMULPD       Y2, Y4, Y4; \
	VADDPD       P4, Y4, Y4; \
	VADDPD       Q0, Y2, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       Q1, Y5, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       Q2, Y5, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       Q3, Y5, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       Q4, Y5, Y5; \
	VMULPD       Y4, Y2, Y2; \
	VDIVPD       Y5, Y2, Y2; \
	VMULPD       Y2, Y1, Y2; \
	VADDPD       Y1, Y2, Y1

// satan's result xw or Pi/4 + xw + Morebits/2, then
// asin = ±(x > 0.7 ? Pi/2 - satan : satan) and theta = Pi/2 - asin in Y1,
// blended to 0 where d == 0.
#define THETA \
	VADDPD       PIO4, Y1, Y3; \
	VADDPD       HALFMORE, Y3, Y3; \
	VBLENDVPD    Y10, Y1, Y3, Y1; \
	VMOVUPD      PIO2, Y2; \
	VSUBPD       Y1, Y2, Y2; \
	VBLENDVPD    Y11, Y2, Y1, Y1; \
	VXORPD       Y12, Y1, Y1; \
	VMOVUPD      PIO2, Y2; \
	VSUBPD       Y1, Y2, Y1; \
	VANDNPD      Y1, Y14, Y1

// The linear predictor A0 + A1*d + A2*d*d + B1*theta + B2*theta*theta in Y2.
#define LINEAR \
	VMULPD       P_A1, Y15, Y2; \
	VADDPD       P_A0, Y2, Y2; \
	VMULPD       P_A2, Y15, Y3; \
	VMULPD       Y15, Y3, Y3; \
	VADDPD       Y3, Y2, Y2; \
	VMULPD       P_B1, Y1, Y3; \
	VADDPD       Y3, Y2, Y2; \
	VMULPD       P_B2, Y1, Y3; \
	VMULPD       Y1, Y3, Y3; \
	VADDPD       Y3, Y2, Y2

// The sigmoid's exp argument a = x >= 0 ? -x : x in Y4 and x >= 0 in Y3; R13
// gets one bit per lane the body reproduces: a >= -700, or beyond MaxRange.
#define SIGMOID_ARG \
	VXORPD       Y0, Y0, Y0; \
	VCMPPD       $0x0D, Y0, Y2, Y3; \
	VXORPD       SIGN, Y2, Y4; \
	VBLENDVPD    Y3, Y4, Y2, Y4; \
	VCMPPD       $0x0D, EXPMIN, Y4, Y5; \
	VORPD        Y13, Y5, Y5; \
	VMOVMSKPD    Y5, R13

// exp(a) of Y4 in place, exp_amd64.s's avxfma branch: k = round(a*Log2e),
// two fused reductions, the fused Taylor series, four squarings (the last
// fused with the +1), then times 2**k.
#define EXP \
	VMULPD       LOG2E, Y4, Y5; \
	VCVTPD2DQY   Y5, X5; \
	VCVTDQ2PD    X5, Y6; \
	VFNMADD231PD LN2U, Y6, Y4; \
	VFNMADD231PD LN2L, Y6, Y4; \
	VMULPD       SIXTEENTH, Y4, Y4; \
	VMOVUPD      E64, Y6; \
	VFMADD213PD  E56, Y4, Y6; \
	VFMADD213PD  E48, Y4, Y6; \
	VFMADD213PD  E40, Y4, Y6; \
	VFMADD213PD  E32, Y4, Y6; \
	VFMADD213PD  E24, Y4, Y6; \
	VFMADD213PD  HALF, Y4, Y6; \
	VFMADD213PD  ONE, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       TWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       TWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       TWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       TWO, Y4, Y6; \
	VFMADD213PD  ONE, Y6, Y4; \
	VPMOVSXDQ    X5, Y5; \
	VPADDQ       EXPBIAS, Y5, Y5; \
	VPSLLQ       $52, Y5, Y5; \
	VMULPD       Y5, Y4, Y4

// pr = (x >= 0 ? 1 : e) / (1 + e), then observed ? pr : 1 - pr floored at
// 1e-9, in Y5.
#define LOG_ARG \
	VMOVUPD      ONE, Y5; \
	VADDPD       Y4, Y5, Y6; \
	VBLENDVPD    Y3, Y5, Y4, Y5; \
	VDIVPD       Y6, Y5, Y5; \
	VMOVUPD      ONE, Y6; \
	VSUBPD       Y5, Y6, Y6; \
	VMOVUPD      P_OBSERVED, Y7; \
	VBLENDVPD    Y7, Y5, Y6, Y5; \
	VMOVUPD      FLOOR, Y6; \
	VMAXPD       Y5, Y6, Y5

// log(Y5) into Y0, log_amd64.s: f1 and k from the bits (k is the exponent
// ORed into the bits of 2**52, minus 2**52, minus 1022: the same integer
// CVTSL2SD gives),
// (k-1, 2*f1) where f1 <= Sqrt2/2 (CMPSD's predicate 5), f = f1 - 1,
// s = f/(2+f), the two polynomials in the assembly's order, and
// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) with hfsq = 0.5*f*f.
#define LOG \
	VANDPD       MANT, Y5, Y6; \
	VORPD        HALF, Y6, Y6; \
	VPSRLQ       $52, Y5, Y7; \
	VPOR         TWO52, Y7, Y7; \
	VSUBPD       TWO52, Y7, Y7; \
	VSUBPD       C1022, Y7, Y7; \
	VCMPPD       $0x02, HSQRT2, Y6, Y8; \
	VANDPD       ONE, Y8, Y8; \
	VSUBPD       Y8, Y7, Y7; \
	VADDPD       ONE, Y8, Y8; \
	VMULPD       Y8, Y6, Y6; \
	VSUBPD       ONE, Y6, Y6; \
	VADDPD       TWO, Y6, Y8; \
	VDIVPD       Y8, Y6, Y8; \
	VMULPD       Y8, Y8, Y9; \
	VMULPD       Y9, Y9, Y10; \
	VMULPD       L7, Y10, Y11; \
	VADDPD       L5, Y11, Y11; \
	VMULPD       Y10, Y11, Y11; \
	VADDPD       L3, Y11, Y11; \
	VMULPD       Y10, Y11, Y11; \
	VADDPD       L1, Y11, Y11; \
	VMULPD       Y11, Y9, Y9; \
	VMULPD       L6, Y10, Y11; \
	VADDPD       L4, Y11, Y11; \
	VMULPD       Y10, Y11, Y11; \
	VADDPD       L2, Y11, Y11; \
	VMULPD       Y11, Y10, Y10; \
	VADDPD       Y10, Y9, Y9; \
	VMULPD       HALF, Y6, Y10; \
	VMULPD       Y6, Y10, Y10; \
	VADDPD       Y10, Y9, Y9; \
	VMULPD       Y9, Y8, Y8; \
	VMULPD       LN2LO, Y7, Y9; \
	VADDPD       Y9, Y8, Y8; \
	VSUBPD       Y8, Y10, Y10; \
	VSUBPD       Y6, Y10, Y10; \
	VMULPD       LN2HI, Y7, Y7; \
	VSUBPD       Y10, Y7, Y0

// Beyond MaxRange the result is observed ? log(1e-9) : 0; then logW[i] += r
// for the four entries at (SI).
#define FINISH \
	VMOVUPD      P_OUTOFRANGE, Y1; \
	VBLENDVPD    Y13, Y1, Y0, Y0; \
	VADDPD       (SI), Y0, Y0; \
	VMOVUPD      Y0, (SI)

// func accumLogObsAVX2(logW *float64, locs *geom.Vec3, reader *int32, frames *Frame, n int, p *simdParams) int
TEXT ·accumLogObsAVX2(SB), NOSPLIT, $0-56
	MOVQ logW+0(FP), SI
	MOVQ locs+8(FP), DI
	MOVQ reader+16(FP), BX
	MOVQ frames+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ p+40(FP), R12
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JAE  done

	// Frame k of 40 bytes is at DX + 8*(5*k).
	MOVLQSX 0(BX), R8
	MOVLQSX 4(BX), R9
	MOVLQSX 8(BX), R10
	MOVLQSX 12(BX), R11
	LEAQ    (R8)(R8*4), R8
	LEAQ    (R9)(R9*4), R9
	LEAQ    (R10)(R10*4), R10
	LEAQ    (R11)(R11*4), R11

	// dx, dy, dz = loc - frame.Pos; the locs are 24 bytes apart.
	LOAD4(0(DI), 24(DI), 48(DI), 72(DI), Y0, X0, X5)
	LOAD4(0(DX)(R8*8), 0(DX)(R9*8), 0(DX)(R10*8), 0(DX)(R11*8), Y6, X6, X5)
	VSUBPD Y6, Y0, Y0
	LOAD4(8(DI), 32(DI), 56(DI), 80(DI), Y1, X1, X5)
	LOAD4(8(DX)(R8*8), 8(DX)(R9*8), 8(DX)(R10*8), 8(DX)(R11*8), Y6, X6, X5)
	VSUBPD Y6, Y1, Y1
	LOAD4(16(DI), 40(DI), 64(DI), 88(DI), Y2, X2, X5)
	LOAD4(16(DX)(R8*8), 16(DX)(R9*8), 16(DX)(R10*8), 16(DX)(R11*8), Y6, X6, X5)
	VSUBPD Y6, Y2, Y2
	LOAD4(24(DX)(R8*8), 24(DX)(R9*8), 24(DX)(R10*8), 24(DX)(R11*8), Y3, X3, X5)
	LOAD4(32(DX)(R8*8), 32(DX)(R9*8), 32(DX)(R10*8), 32(DX)(R11*8), Y4, X4, X5)

	DISTANCE
	ASIN_ARG
	SATAN_ARG
	XATAN
	THETA
	LINEAR
	SIGMOID_ARG
	CMPQ R13, $15
	JNE  done
	EXP
	LOG_ARG
	LOG
	FINISH

	ADDQ $4, AX
	ADDQ $32, SI
	ADDQ $96, DI
	ADDQ $16, BX
	JMP  loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func accumLogObsFixedAVX2(logW *float64, frames *Frame, n int, loc *geom.Vec3, p *simdParams) int
TEXT ·accumLogObsFixedAVX2(SB), NOSPLIT, $0-48
	MOVQ logW+0(FP), SI
	MOVQ frames+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ loc+24(FP), DI
	MOVQ p+32(FP), R12
	XORQ AX, AX

fixedloop:
	CMPQ AX, CX
	JAE  fixeddone

	// dx, dy, dz = loc - frame.Pos; the frames are 40 bytes apart.
	VBROADCASTSD 0(DI), Y0
	LOAD4(0(DX), 40(DX), 80(DX), 120(DX), Y6, X6, X5)
	VSUBPD       Y6, Y0, Y0
	VBROADCASTSD 8(DI), Y1
	LOAD4(8(DX), 48(DX), 88(DX), 128(DX), Y6, X6, X5)
	VSUBPD       Y6, Y1, Y1
	VBROADCASTSD 16(DI), Y2
	LOAD4(16(DX), 56(DX), 96(DX), 136(DX), Y6, X6, X5)
	VSUBPD       Y6, Y2, Y2
	LOAD4(24(DX), 64(DX), 104(DX), 144(DX), Y3, X3, X5)
	LOAD4(32(DX), 72(DX), 112(DX), 152(DX), Y4, X4, X5)

	DISTANCE
	ASIN_ARG
	SATAN_ARG
	XATAN
	THETA
	LINEAR
	SIGMOID_ARG
	CMPQ R13, $15
	JNE  fixeddone
	EXP
	LOG_ARG
	LOG
	FINISH

	ADDQ $4, AX
	ADDQ $32, SI
	ADDQ $160, DX
	JMP  fixedloop

fixeddone:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func expShiftedAVX2(dst, src *float64, n int, c float64) int
TEXT ·expShiftedAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y7
	XORQ         AX, AX

exploop:
	CMPQ AX, CX
	JAE  expdone

	// a = src - c; the block stays here only if every lane has
	// -|a| >= -700, which no NaN has.
	VMOVUPD   (SI), Y4
	VSUBPD    Y7, Y4, Y4
	VORPD     SIGN, Y4, Y5
	VCMPPD    $0x0D, EXPMIN, Y5, Y5
	VMOVMSKPD Y5, R13
	CMPQ      R13, $15
	JNE       expdone
	EXP
	VMOVUPD   Y4, (DI)

	ADDQ $4, AX
	ADDQ $32, SI
	ADDQ $32, DI
	JMP  exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
