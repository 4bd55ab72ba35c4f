//go:build amd64 && !purego

#include "textflag.h"

// Plain SSE2 (the GOAMD64=v1 baseline): no CPUID dispatch. Loads and
// stores are unaligned (MOVUPS) because a row of a dim-50 matrix is
// not 16-byte aligned. Every routine reads and writes exactly the
// first len(first slice) elements of each slice argument; the Go
// declarations in kernels_amd64.go reslice the others to that length
// first (dotRowsSSE2 trusts len(q) and len(out), and reads
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
