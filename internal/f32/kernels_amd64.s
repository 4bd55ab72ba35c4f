//go:build amd64 && !purego

#include "textflag.h"

// Plain SSE2 (the GOAMD64=v1 baseline) for the float32 kernels, plus
// the AVX2 routines dotRowsI8AVX2, dotGatherAVX2, dotF64QuadsAVX2 and
// sqDistF64QuadsAVX2, which run instead of their portable twins where
// hasAVX2 (CPUID and XCR0, read once at init) says they may. The
// floating-point kernels multiply and add in the portable kernels'
// order (no FMA, which rounds once where these round twice); the int8
// one sums integers, exactly, so its order does not matter. Loads and
// stores are unaligned (MOVUPS, VMOVDQU) because a row of a dim-50
// matrix is not 16-byte aligned. Every routine reads and writes exactly
// the first len(first slice) elements of each slice argument; the Go
// declarations in kernels_amd64.go reslice the others to that length
// first (dotRowsI8AVX2 trusts len(q) and len(out), and reads
// len(q)*len(out) bytes of rows; the gathered kernels trust len(q) and
// len(ids), and read the rows ids names, which checkGather bounds).
// kernels_generic.go and kernels_f64.go repeat the arithmetic of each
// routine.

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

// I8CHUNK(row, acc) adds the dot of the query chunk in Y4 (|Q| in Y5)
// with the 32 row bytes at row into acc's eight int32 lanes: the row's
// bytes take the query's signs (VPSIGNB: R·sign(Q), never overflowing
// because no row byte is -128), VPMADDUBSW multiplies them by |Q| as
// unsigned bytes and adds neighbours into int16 (at most 2·127² =
// 32258, so it never saturates), and VPMADDWD by ones (Y15) adds
// neighbouring int16s into int32. Y6 is scratch.
#define I8CHUNK(row, acc) \
	VMOVDQU    row, Y6; \
	VPSIGNB    Y4, Y6, Y6; \
	VPMADDUBSW Y6, Y5, Y6; \
	VPMADDWD   Y15, Y6, Y6; \
	VPADDD     Y6, acc, acc

// func dotRowsI8AVX2(q, rows []int8, out []int32)
//
// Four rows per pass over 32-byte chunks, each row with a YMM of eight
// int32 partial sums, folded at the end with VPHADDD; a 1-row loop
// takes the last len(out)%4 rows. len(q) is the row stride and a
// multiple of 32.
TEXT ·dotRowsI8AVX2(SB), NOSPLIT, $0-72
	MOVQ     q_base+0(FP), R8
	MOVQ     q_len+8(FP), R9    // row stride in bytes
	MOVQ     rows_base+24(FP), DI
	MOVQ     out_base+48(FP), BX
	MOVQ     out_len+56(FP), R10
	MOVQ     R9, R11
	SHRQ     $5, R11            // 32-byte chunks per row
	VPCMPEQW Y15, Y15, Y15
	VPSRLW   $15, Y15, Y15      // 1 in every int16 lane

i8quadnext:
	CMPQ  R10, $4
	JB    i8onenext
	MOVQ  R8, SI
	LEAQ  (DI)(R9*2), R13       // row 2; rows 1 and 3 are R9 past 0 and 2
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    i8quadfold

i8quadloop:
	VMOVDQU (SI), Y4
	VPABSB  Y4, Y5
	I8CHUNK((DI), Y0)
	I8CHUNK((DI)(R9*1), Y1)
	I8CHUNK((R13), Y2)
	I8CHUNK((R13)(R9*1), Y3)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R13
	DECQ    DX
	JNZ     i8quadloop

i8quadfold:
	VPHADDD      Y1, Y0, Y0     // row 0 pairs, row 1 pairs, per 128-bit half
	VPHADDD      Y3, Y2, Y2     // rows 2 and 3 likewise
	VPHADDD      Y2, Y0, Y0     // rows 0-3, one quarter of each per half
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0     // rows 0-3
	VMOVDQU      X0, (BX)
	ADDQ         $16, BX
	LEAQ         (R13)(R9*1), DI // R13 ends on row 3: the next pass's row 0
	SUBQ         $4, R10
	JMP          i8quadnext

i8onenext:
	TESTQ R10, R10
	JZ    i8done
	MOVQ  R8, SI
	VPXOR Y0, Y0, Y0
	MOVQ  R11, DX
	TESTQ DX, DX
	JZ    i8onefold

i8oneloop:
	VMOVDQU (SI), Y4
	VPABSB  Y4, Y5
	I8CHUNK((DI), Y0)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     i8oneloop

i8onefold:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      X0, X0, X0
	VPHADDD      X0, X0, X0
	VMOVD        X0, (BX)
	ADDQ         $4, BX
	DECQ         R10
	JMP          i8onenext

i8done:
	VZEROUPPER
	RET

// FOLD8(Y, X) leaves in X's lane 0 the sum of Y's eight lanes, added
// as dotSSE2's fold adds X0:X1: s[j] = p[j] + p[j+4] (VEXTRACTF128,
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

// ROW(i, r) points r at the row ids[i] names: data + ids[i]*stride,
// with BX the ids, R12 the row stride in bytes and DI data.
#define ROW(i, r) \
	MOVLQSX (i*4)(BX), r; \
	IMULQ   R12, r; \
	ADDQ    DI, r

// func dotGatherAVX2(q, data []float32, ids []int32, out []float32)
//
// dotSSE2 of q with the rows ids names, four rows per pass: the
// query's 8-float block is loaded once and multiplied into four rows,
// each row with a YMM accumulator whose lane j takes elements j, j+8,
// ... as dotSSE2's X0:X1 pair does, q the first operand of every
// multiply and the accumulator the first of every add, then dotSSE2's
// fold and its tail. A 1-row loop takes the last len(ids)%4 rows. CX
// is the byte offset into q and into every row.
TEXT ·dotGatherAVX2(SB), NOSPLIT, $0-96
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), R12
	MOVQ data_base+24(FP), DI
	MOVQ ids_base+48(FP), BX
	MOVQ ids_len+56(FP), R10
	MOVQ out_base+72(FP), DX
	MOVQ R12, R11
	ANDQ $-8, R11
	SHLQ $2, R11             // bytes of whole 8-float blocks
	SHLQ $2, R12             // row stride in bytes

gquadnext:
	CMPQ   R10, $4
	JB     gonenext
	ROW(0, AX)
	ROW(1, SI)
	ROW(2, R13)
	ROW(3, R9)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   CX, CX
	CMPQ   CX, R11
	JAE    gquadfold

gquadloop:
	VMOVUPS (R8)(CX*1), Y4
	VMULPS  (AX)(CX*1), Y4, Y5
	VMULPS  (SI)(CX*1), Y4, Y6
	VMULPS  (R13)(CX*1), Y4, Y7
	VMULPS  (R9)(CX*1), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    $32, CX
	CMPQ    CX, R11
	JB      gquadloop

gquadfold:
	FOLD8(Y0, X0)
	FOLD8(Y1, X1)
	FOLD8(Y2, X2)
	FOLD8(Y3, X3)

gquadtail:
	CMPQ   CX, R12
	JAE    gquadstore
	VMOVSS (R8)(CX*1), X4
	VMULSS (AX)(CX*1), X4, X5
	VMULSS (SI)(CX*1), X4, X6
	VMULSS (R13)(CX*1), X4, X7
	VMULSS (R9)(CX*1), X4, X8
	VADDSS X5, X0, X0
	VADDSS X6, X1, X1
	VADDSS X7, X2, X2
	VADDSS X8, X3, X3
	ADDQ   $4, CX
	JMP    gquadtail

gquadstore:
	VMOVSS X0, (DX)
	VMOVSS X1, 4(DX)
	VMOVSS X2, 8(DX)
	VMOVSS X3, 12(DX)
	ADDQ   $16, DX
	ADDQ   $16, BX
	SUBQ   $4, R10
	JMP    gquadnext

gonenext:
	TESTQ  R10, R10
	JZ     gdone
	ROW(0, AX)
	VXORPS Y0, Y0, Y0
	XORQ   CX, CX
	CMPQ   CX, R11
	JAE    gonefold

goneloop:
	VMOVUPS (R8)(CX*1), Y4
	VMULPS  (AX)(CX*1), Y4, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ    $32, CX
	CMPQ    CX, R11
	JB      goneloop

gonefold:
	FOLD8(Y0, X0)

gonetail:
	CMPQ   CX, R12
	JAE    gonestore
	VMOVSS (R8)(CX*1), X4
	VMULSS (AX)(CX*1), X4, X5
	VADDSS X5, X0, X0
	ADDQ   $4, CX
	JMP    gonetail

gonestore:
	VMOVSS X0, (DX)
	ADDQ   $4, DX
	ADDQ   $4, BX
	DECQ   R10
	JMP    gonenext

gdone:
	VZEROUPPER
	RET

// F64QUADS(name, TERM) is the float64 gathered kernel over whole
// quads of rows: lane j of Y0 is the float64 sum of row j of the quad,
// and TERM(r, q) turns Y r, element i of the four rows widened, into
// the four terms that sum adds, q being the query's element i
// broadcast. Per four elements the rows' float32s are transposed 4x4
// (VUNPCKLPS/HPS, VMOVLHPS/HLPS) so that register k holds element i+k
// of rows 0-3, widened (VCVTPS2PD) and added in element order; the
// len%4 tail gathers one element of each row at a time (VINSERTPS).
// Every lane thus performs the portable kernel's operations in its
// order on the same operands, never fused, so each sum is that
// kernel's bit for bit. R8 is the widened query, CX the byte offset
// into the float32 rows (the query's is twice it), R11 the bytes of
// whole 4-element groups, R12 the row stride in bytes.
#define F64QUADS(TERM) \
	MOVQ q_base+0(FP), R8; \
	MOVQ q_len+8(FP), R12; \
	MOVQ data_base+24(FP), DI; \
	MOVQ ids_base+48(FP), BX; \
	MOVQ ids_len+56(FP), R10; \
	MOVQ out_base+72(FP), DX; \
	MOVQ R12, R11; \
	ANDQ $-4, R11; \
	SHLQ $2, R11; \
	SHLQ $2, R12; \
	SHRQ $2, R10; \
	JZ   f64done; \
f64quad: \
	ROW(0, AX); \
	ROW(1, SI); \
	ROW(2, R13); \
	ROW(3, R9); \
	VXORPD Y0, Y0, Y0; \
	XORQ   CX, CX; \
	CMPQ   CX, R11; \
	JAE    f64tail; \
f64group: \
	VMOVUPS      (AX)(CX*1), X1; \
	VMOVUPS      (SI)(CX*1), X2; \
	VMOVUPS      (R13)(CX*1), X3; \
	VMOVUPS      (R9)(CX*1), X4; \
	VUNPCKLPS    X2, X1, X5; \
	VUNPCKHPS    X2, X1, X6; \
	VUNPCKLPS    X4, X3, X7; \
	VUNPCKHPS    X4, X3, X8; \
	VMOVLHPS     X7, X5, X1; \
	VMOVHLPS     X5, X7, X2; \
	VMOVLHPS     X8, X6, X3; \
	VMOVHLPS     X6, X8, X4; \
	VCVTPS2PD    X1, Y1; \
	VCVTPS2PD    X2, Y2; \
	VCVTPS2PD    X3, Y3; \
	VCVTPS2PD    X4, Y4; \
	VBROADCASTSD (R8)(CX*2), Y5; \
	VBROADCASTSD 8(R8)(CX*2), Y6; \
	VBROADCASTSD 16(R8)(CX*2), Y7; \
	VBROADCASTSD 24(R8)(CX*2), Y8; \
	TERM(Y1, Y5); \
	TERM(Y2, Y6); \
	TERM(Y3, Y7); \
	TERM(Y4, Y8); \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       Y2, Y0, Y0; \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y4, Y0, Y0; \
	ADDQ         $16, CX; \
	CMPQ         CX, R11; \
	JB           f64group; \
f64tail: \
	CMPQ         CX, R12; \
	JAE          f64store; \
	VMOVSS       (AX)(CX*1), X1; \
	VINSERTPS    $0x10, (SI)(CX*1), X1, X1; \
	VINSERTPS    $0x20, (R13)(CX*1), X1, X1; \
	VINSERTPS    $0x30, (R9)(CX*1), X1, X1; \
	VCVTPS2PD    X1, Y1; \
	VBROADCASTSD (R8)(CX*2), Y5; \
	TERM(Y1, Y5); \
	VADDPD       Y1, Y0, Y0; \
	ADDQ         $4, CX; \
	JMP          f64tail; \
f64store: \
	VMOVUPD Y0, (DX); \
	ADDQ    $32, DX; \
	ADDQ    $16, BX; \
	DECQ    R10; \
	JNZ     f64quad; \
f64done: \
	VZEROUPPER; \
	RET

// DOTTERM: r = q·r, exact (two float32s' product fits a float64).
#define DOTTERM(r, q) VMULPD r, q, r

// SQTERM: r = (q-r)², the difference and the square rounded apart.
#define SQTERM(r, q) \
	VSUBPD r, q, r; \
	VMULPD r, r, r

// func dotF64QuadsAVX2(q []float64, data []float32, ids []int32, out []float64)
//
// out[j] = DotF64 of the query (q, widened) with row ids[j], for
// len(ids) a multiple of 4.
TEXT ·dotF64QuadsAVX2(SB), NOSPLIT, $0-96
	F64QUADS(DOTTERM)

// func sqDistF64QuadsAVX2(q []float64, data []float32, ids []int32, out []float64)
//
// out[j] = SqDistF64 of the query (q, widened) and row ids[j], for
// len(ids) a multiple of 4.
TEXT ·sqDistF64QuadsAVX2(SB), NOSPLIT, $0-96
	F64QUADS(SQTERM)
