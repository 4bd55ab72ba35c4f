//go:build amd64 && !purego

#include "textflag.h"

// Plain SSE2 (the GOAMD64=v1 baseline), plus one AVX2 routine,
// dotRowsAVX2, which DotRows runs instead of dotRowsSSE2 where
// hasAVX2 (CPUID and XCR0, read once at init) says it may. The two
// encodings compute the same bits: one 8-float YMM accumulator holds
// exactly the eight partial sums of the SSE2 X0:X1 pair, and the
// multiplies, adds, fold and tail are the same operations in the same
// order (no FMA, which rounds once where these round twice). Loads and
// stores are unaligned (MOVUPS) because a row of a dim-50 matrix is
// not 16-byte aligned. Every routine reads and writes exactly the
// first len(first slice) elements of each slice argument; the Go
// declarations in kernels_amd64.go reslice the others to that length
// first (the DotRows routines trust len(q) and len(out), and read
// len(q)*len(out) floats of rows). kernels_generic.go repeats the
// arithmetic of each routine operation for operation.

// func dotSSE2(a, b []float32) float32
TEXT ·dotSSE2(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPS X0, X0             // partial sums, lanes 0-3
	XORPS X1, X1             // partial sums, lanes 4-7
	MOVQ  CX, DX
	SHRQ  $3, DX
	JZ    dotfold

dotloop:
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MULPS  X4, X2
	MULPS  X5, X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   DX
	JNZ    dotloop

dotfold:
	ADDPS   X1, X0           // s[j] = p[j] + p[j+4]
	MOVHLPS X0, X1           // X1[0], X1[1] = s2, s3
	ADDPS   X1, X0           // X0[0] = s0+s2, X0[1] = s1+s3
	MOVAPS  X0, X1
	SHUFPS  $0x55, X1, X1    // X1[0] = s1+s3
	ADDSS   X1, X0           // (s0+s2) + (s1+s3)
	ANDQ    $7, CX
	JZ      dotdone

dottail:
	MOVSS (SI), X2
	MULSS (DI), X2
	ADDSS X2, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   dottail

dotdone:
	MOVSS X0, ret+48(FP)
	RET

// func addSSE2(dst, src []float32)
TEXT ·addSSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   addrest

addloop:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	DECQ   DX
	JNZ    addloop

addrest:
	ANDQ $7, CX
	JZ   adddone

addtail:
	MOVSS (DI), X0
	ADDSS (SI), X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JNZ   addtail

adddone:
	RET

// func gradSSE2(step float32, h, out, e []float32)
TEXT ·gradSSE2(SB), NOSPLIT, $0-80
	MOVSS  step+0(FP), X7
	SHUFPS $0, X7, X7        // step in all four lanes
	MOVQ   h_base+8(FP), SI
	MOVQ   h_len+16(FP), CX
	MOVQ   out_base+32(FP), DI
	MOVQ   e_base+56(FP), BX
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     gradrest

gradloop:
	MOVUPS (DI), X0          // out
	MOVUPS 16(DI), X1
	MOVUPS (SI), X2          // h
	MOVUPS 16(SI), X3
	MOVUPS (BX), X4          // e
	MOVUPS 16(BX), X5
	MOVAPS X0, X6
	MULPS  X7, X6
	ADDPS  X6, X4            // e += step*out
	MOVAPS X1, X6
	MULPS  X7, X6
	ADDPS  X6, X5
	MULPS  X7, X2
	ADDPS  X2, X0            // out += step*h
	MULPS  X7, X3
	ADDPS  X3, X1
	MOVUPS X4, (BX)
	MOVUPS X5, 16(BX)
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	ADDQ   $32, BX
	DECQ   DX
	JNZ    gradloop

gradrest:
	ANDQ $7, CX
	JZ   graddone

gradtail:
	MOVSS  (DI), X0
	MOVSS  (SI), X2
	MOVSS  (BX), X4
	MOVAPS X0, X6
	MULSS  X7, X6
	ADDSS  X6, X4
	MULSS  X7, X2
	ADDSS  X2, X0
	MOVSS  X4, (BX)
	MOVSS  X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	ADDQ   $4, BX
	DECQ   CX
	JNZ    gradtail

graddone:
	RET

// func dotRowsSSE2(q, rows, out []float32)
//
// dotSSE2 once per row of rows, q as its first operand: the same
// eight partial sums, the same fold, the same tail.
TEXT ·dotRowsSSE2(SB), NOSPLIT, $0-72
	MOVQ  q_base+0(FP), R8
	MOVQ  q_len+8(FP), R9
	MOVQ  rows_base+24(FP), DI
	MOVQ  out_base+48(FP), BX
	MOVQ  out_len+56(FP), R10
	TESTQ R10, R10
	JZ    rowsdone
	MOVQ  R9, R11
	SHRQ  $3, R11            // 8-float blocks per row
	ANDQ  $7, R9             // tail floats per row

rowsnext:
	MOVQ  R8, SI
	XORPS X0, X0             // partial sums, lanes 0-3
	XORPS X1, X1             // partial sums, lanes 4-7
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    rowsfold

rowsloop:
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MULPS  X4, X2
	MULPS  X5, X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   DX
	JNZ    rowsloop

rowsfold:
	ADDPS   X1, X0           // s[j] = p[j] + p[j+4]
	MOVHLPS X0, X1           // X1[0], X1[1] = s2, s3
	ADDPS   X1, X0           // X0[0] = s0+s2, X0[1] = s1+s3
	MOVAPS  X0, X1
	SHUFPS  $0x55, X1, X1    // X1[0] = s1+s3
	ADDSS   X1, X0           // (s0+s2) + (s1+s3)
	MOVQ    R9, CX
	TESTQ   CX, CX
	JZ      rowsstore

rowstail:
	MOVSS (SI), X2
	MULSS (DI), X2
	ADDSS X2, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   rowstail

rowsstore:
	MOVSS X0, (BX)
	ADDQ  $4, BX
	DECQ  R10
	JNZ   rowsnext

rowsdone:
	RET

// FOLD8(Y, X) leaves in X's lane 0 the sum of Y's eight lanes, added
// as the SSE2 fold adds X0:X1: s[j] = p[j] + p[j+4] (VEXTRACTF128,
// VADDPS); X9[0], X9[1] = s2, s3 (VMOVHLPS); X[0] = s0+s2,
// X[1] = s1+s3 (VADDPS); X9[0] = s1+s3 (VSHUFPS 0x55); and
// (s0+s2) + (s1+s3) (VADDSS). X9 is scratch.
#define FOLD8(Y, X) \
	VEXTRACTF128 $1, Y, X9; \
	VADDPS       X9, X, X; \
	VMOVHLPS     X, X9, X9; \
	VADDPS       X9, X, X; \
	VSHUFPS      $0x55, X, X, X9; \
	VADDSS       X9, X, X

// func dotRowsAVX2(q, rows, out []float32)
//
// dotRowsSSE2 four rows per pass: the query's 8-float block is loaded
// once and multiplied into four rows, each row with a YMM accumulator
// whose lane j takes elements j, j+8, ... as the SSE2 pair does, q the
// first operand of every multiply and the accumulator the first of
// every add. A 1-row loop takes the last len(out)%4 rows.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), R9
	MOVQ rows_base+24(FP), DI
	MOVQ out_base+48(FP), BX
	MOVQ out_len+56(FP), R10
	MOVQ R9, R12
	SHLQ $2, R12             // row stride in bytes
	MOVQ R9, R11
	SHRQ $3, R11             // 8-float blocks per row
	ANDQ $7, R9              // tail floats per row

quadnext:
	CMPQ   R10, $4
	JB     onenext
	MOVQ   R8, SI
	LEAQ   (DI)(R12*2), R13  // row 2; rows 1 and 3 are R12 past 0 and 2
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   R11, DX
	TESTQ  DX, DX
	JZ     quadfold

quadloop:
	VMOVUPS (SI), Y4
	VMULPS  (DI), Y4, Y5
	VMULPS  (DI)(R12*1), Y4, Y6
	VMULPS  (R13), Y4, Y7
	VMULPS  (R13)(R12*1), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R13
	DECQ    DX
	JNZ     quadloop

quadfold:
	FOLD8(Y0, X0)
	FOLD8(Y1, X1)
	FOLD8(Y2, X2)
	FOLD8(Y3, X3)
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    quadstore

quadtail:
	VMOVSS (SI), X4
	VMULSS (DI), X4, X5
	VMULSS (DI)(R12*1), X4, X6
	VMULSS (R13), X4, X7
	VMULSS (R13)(R12*1), X4, X8
	VADDSS X5, X0, X0
	VADDSS X6, X1, X1
	VADDSS X7, X2, X2
	VADDSS X8, X3, X3
	ADDQ   $4, SI
	ADDQ   $4, DI
	ADDQ   $4, R13
	DECQ   CX
	JNZ    quadtail

quadstore:
	VMOVSS X0, (BX)
	VMOVSS X1, 4(BX)
	VMOVSS X2, 8(BX)
	VMOVSS X3, 12(BX)
	ADDQ   $16, BX
	LEAQ   (R13)(R12*1), DI  // R13 ends on row 3: the next pass's row 0
	SUBQ   $4, R10
	JMP    quadnext

onenext:
	TESTQ  R10, R10
	JZ     rowsavx2done
	MOVQ   R8, SI
	VXORPS Y0, Y0, Y0
	MOVQ   R11, DX
	TESTQ  DX, DX
	JZ     onefold

oneloop:
	VMOVUPS (SI), Y4
	VMULPS  (DI), Y4, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     oneloop

onefold:
	FOLD8(Y0, X0)
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    onestore

onetail:
	VMOVSS (SI), X4
	VMULSS (DI), X4, X5
	VADDSS X5, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    onetail

onestore:
	VMOVSS X0, (BX)
	ADDQ   $4, BX
	DECQ   R10
	JMP    onenext

rowsavx2done:
	VZEROUPPER
	RET
