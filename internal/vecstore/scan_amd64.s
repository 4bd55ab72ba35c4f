//go:build amd64 && !purego

#include "textflag.h"

// func int8MaskAVX2(dots []int32, scale, half, norms []float64, euclidean bool, sq, hq, qn, off, c float64, mask *[4]uint64)
//
// Stage 1 of the exact scan for rows [0, len(dots)&^3), four rows per
// step, one bit per row into mask (row j is bit j%64 of word j/64).
// Each step widens four int32 dots d = Q·R to float64 (exact), forms
// the bound hi = sq·(scale·(d + hq) + half) with int8Query.bound's
// operations, and repeats drops' arithmetic on hi operation for
// operation in float64, so every bit is the scalar test's:
//
//	guard:           hi-hi == 0 (hi finite) and rn >= 2^-60
//	Cosine, Dot:     x = hi-off; x*|x| + c*rn < 0
//	Euclidean:       2hi - c*(qn+rn) < off
//
// (2hi is hi+hi: both exact.) Every comparison is ordered, so a NaN
// anywhere (a non-finite row's NaN scale among them) clears the bit,
// as it makes drops false. The caller has zeroed mask, armed the
// prefilter, and handles the last len(dots)%4 rows.
TEXT ·int8MaskAVX2(SB), NOSPLIT, $0-152
	MOVQ dots_base+0(FP), SI
	MOVQ dots_len+8(FP), BX
	MOVQ scale_base+24(FP), R8
	MOVQ half_base+48(FP), R9
	MOVQ norms_base+72(FP), DI
	MOVQ mask+144(FP), DX
	SHRQ $2, BX              // 4-row steps
	JZ   maskdone

	// Only VEX encodings from here to VZEROUPPER: a legacy SSE
	// instruction (a plain MOVQ to X10, say) with the upper halves of
	// the YMM registers dirty stalls for hundreds of cycles.
	MOVQ         $0x3c30000000000000, AX
	VMOVQ        AX, X10
	VBROADCASTSD X10, Y10           // minSqNorm = 2^-60
	VXORPD       Y8, Y8, Y8         // 0
	VPCMPEQQ     Y9, Y9, Y9
	VPSRLQ       $1, Y9, Y9         // 0x7fff...: clears the sign bit
	VBROADCASTSD off+128(FP), Y11
	VBROADCASTSD c+136(FP), Y12
	VBROADCASTSD qn+120(FP), Y13
	VBROADCASTSD hq+112(FP), Y14
	VBROADCASTSD sq+104(FP), Y15
	XORQ         R10, R10           // the mask word being filled
	XORQ         CX, CX             // its next bit
	CMPB         euclidean+96(FP), $0
	JNE          euclid

// BOUND leaves in Y0 the bound hi of the four rows at SI, R8 and R9,
// and in Y2 the guard: hi finite and rn (Y1, from DI) >= 2^-60.
#define BOUND \
	VCVTDQ2PD (SI), Y0; \
	VADDPD    Y14, Y0, Y0; \
	VMULPD    (R8), Y0, Y0; \
	VADDPD    (R9), Y0, Y0; \
	VMULPD    Y15, Y0, Y0; \
	VMOVUPD   (DI), Y1; \
	VSUBPD    Y0, Y0, Y2; \
	VCMPPD    $0x00, Y8, Y2, Y2; \
	VCMPPD    $0x1d, Y10, Y1, Y3; \
	VANDPD    Y3, Y2, Y2

// PUTBITS ORs the four sign bits of Y into the mask word, storing the
// word and starting the next after its 64th bit, and steps the row
// pointers past the four rows.
#define PUTBITS(Y, next) \
	VMOVMSKPD Y, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R10; \
	ADDQ      $16, SI; \
	ADDQ      $32, R8; \
	ADDQ      $32, R9; \
	ADDQ      $32, DI; \
	ADDQ      $4, CX; \
	CMPQ      CX, $64; \
	JNE       next; \
	MOVQ      R10, (DX); \
	ADDQ      $8, DX; \
	XORQ      R10, R10; \
	XORQ      CX, CX

cosdot:
	BOUND
	VSUBPD  Y11, Y0, Y4             // x = hi - off
	VANDPD  Y9, Y4, Y5              // |x|
	VMULPD  Y5, Y4, Y5              // x*|x|
	VMULPD  Y1, Y12, Y6             // c*rn
	VADDPD  Y6, Y5, Y5
	VCMPPD  $0x11, Y8, Y5, Y5       // < 0
	VANDPD  Y2, Y5, Y5
	PUTBITS(Y5, cosdotnext)

cosdotnext:
	DECQ BX
	JNZ  cosdot
	JMP  maskflush

euclid:
	BOUND
	VADDPD  Y0, Y0, Y4              // 2hi
	VADDPD  Y1, Y13, Y5             // qn + rn
	VMULPD  Y5, Y12, Y5             // c*(qn+rn)
	VSUBPD  Y5, Y4, Y4
	VCMPPD  $0x11, Y11, Y4, Y4      // < off
	VANDPD  Y2, Y4, Y4
	PUTBITS(Y4, euclidnext)

euclidnext:
	DECQ BX
	JNZ  euclid

maskflush:
	TESTQ CX, CX
	JZ    maskzeroupper
	MOVQ  R10, (DX)

maskzeroupper:
	VZEROUPPER

maskdone:
	RET
