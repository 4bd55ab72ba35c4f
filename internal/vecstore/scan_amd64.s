//go:build amd64 && !purego

#include "textflag.h"

// func dropMaskAVX2(dots []float32, norms []float64, euclidean bool, qn, off, c float64, mask *[4]uint64)
//
// prefilter.drops for rows [0, len(dots)&^3), four rows per step, one
// bit per row into mask (row j is bit j%64 of word j/64). Each step
// widens four float32 dots to float64 (exact) and repeats drops'
// arithmetic operation for operation in float64, so every bit is the
// scalar test's:
//
//	guard:           a-a == 0 (a finite) and rn >= 2^-60
//	Cosine, Dot:     x = a-off; x*|x| + c*rn < 0
//	Euclidean:       2a - c*(qn+rn) < off
//
// (2a is a+a: both exact.) Every comparison is ordered, so a NaN
// anywhere clears the bit, as it makes drops false. The caller has
// zeroed mask, armed the prefilter, and handles the last len(dots)%4
// rows.
TEXT ·dropMaskAVX2(SB), NOSPLIT, $0-88
	MOVQ dots_base+0(FP), SI
	MOVQ dots_len+8(FP), BX
	MOVQ norms_base+24(FP), DI
	MOVQ mask+80(FP), DX
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
	VBROADCASTSD off+64(FP), Y11
	VBROADCASTSD c+72(FP), Y12
	VBROADCASTSD qn+56(FP), Y13
	XORQ         R8, R8             // the mask word being filled
	XORQ         CX, CX             // its next bit
	CMPB         euclidean+48(FP), $0
	JNE          euclid

cosdot:
	VCVTPS2PD (SI), Y0              // a
	VMOVUPD   (DI), Y1              // rn
	VSUBPD    Y0, Y0, Y2
	VCMPPD    $0x00, Y8, Y2, Y2     // a-a == 0
	VCMPPD    $0x1d, Y10, Y1, Y3    // rn >= minSqNorm
	VANDPD    Y3, Y2, Y2
	VSUBPD    Y11, Y0, Y4           // x = a - off
	VANDPD    Y9, Y4, Y5            // |x|
	VMULPD    Y5, Y4, Y5            // x*|x|
	VMULPD    Y1, Y12, Y6           // c*rn
	VADDPD    Y6, Y5, Y5
	VCMPPD    $0x11, Y8, Y5, Y5     // < 0
	VANDPD    Y2, Y5, Y5
	VMOVMSKPD Y5, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $16, SI
	ADDQ      $32, DI
	ADDQ      $4, CX
	CMPQ      CX, $64
	JNE       cosdotnext
	MOVQ      R8, (DX)
	ADDQ      $8, DX
	XORQ      R8, R8
	XORQ      CX, CX

cosdotnext:
	DECQ BX
	JNZ  cosdot
	JMP  maskflush

euclid:
	VCVTPS2PD (SI), Y0              // a
	VMOVUPD   (DI), Y1              // rn
	VSUBPD    Y0, Y0, Y2
	VCMPPD    $0x00, Y8, Y2, Y2     // a-a == 0
	VCMPPD    $0x1d, Y10, Y1, Y3    // rn >= minSqNorm
	VANDPD    Y3, Y2, Y2
	VADDPD    Y0, Y0, Y4            // 2a
	VADDPD    Y1, Y13, Y5           // qn + rn
	VMULPD    Y5, Y12, Y5           // c*(qn+rn)
	VSUBPD    Y5, Y4, Y4
	VCMPPD    $0x11, Y11, Y4, Y4    // < off
	VANDPD    Y2, Y4, Y4
	VMOVMSKPD Y4, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $16, SI
	ADDQ      $32, DI
	ADDQ      $4, CX
	CMPQ      CX, $64
	JNE       euclidnext
	MOVQ      R8, (DX)
	ADDQ      $8, DX
	XORQ      R8, R8
	XORQ      CX, CX

euclidnext:
	DECQ BX
	JNZ  euclid

maskflush:
	TESTQ CX, CX
	JZ    maskzeroupper
	MOVQ  R8, (DX)

maskzeroupper:
	VZEROUPPER

maskdone:
	RET
