//go:build amd64 && !purego

#include "textflag.h"

// Plain SSE2 (the GOAMD64=v1 baseline) for the float32 kernels, plus
// one AVX2 routine, dotRowsI8AVX2, which DotRowsI8 runs instead of its
// portable twin where hasAVX2 (CPUID and XCR0, read once at init) says
// it may. The float32 kernels multiply and add in the portable kernels'
// order (no FMA, which rounds once where these round twice); the int8
// one sums integers, exactly, so its order does not matter. Loads and
// stores are unaligned (MOVUPS, VMOVDQU) because a row of a dim-50
// matrix is not 16-byte aligned. Every routine reads and writes exactly
// the first len(first slice) elements of each slice argument; the Go
// declarations in kernels_amd64.go reslice the others to that length
// first (dotRowsI8AVX2 trusts len(q) and len(out), and reads
// len(q)*len(out) bytes of rows). kernels_generic.go repeats the
// arithmetic of each routine.

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
