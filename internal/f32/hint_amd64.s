//go:build amd64 && !purego

#include "textflag.h"

// The hints live apart from kernels_amd64.s: they compute nothing,
// and HintWrite's two encodings differ in what they ask of the cache,
// not in any result.

// func HintWrite(row []float32)
//
// One prefetch per 64-byte line that holds a byte of row: at row's
// first byte and every 64 bytes after it while that is still inside
// the row, then at its last byte, which is on a line the stride
// skipped when the row does not start on a boundary. No address
// outside the row is formed. The instruction is PREFETCHW (0F 0D /1,
// spelled in bytes: the Go 1.24 assembler has no mnemonic for it)
// where ·hasPrefetchW is set and PREFETCHT0 where it is not.
TEXT ·HintWrite(SB), NOSPLIT, $0-24
	MOVQ  row_base+0(FP), SI
	MOVQ  row_len+8(FP), CX
	TESTQ CX, CX
	JZ    hintdone
	LEAQ  -1(SI)(CX*4), DI   // the row's last byte
	CMPB  ·hasPrefetchW(SB), $0
	JE    hintt0

hintw:
	BYTE $0x0F; BYTE $0x0D; BYTE $0x0E   // PREFETCHW (SI)
	ADDQ $64, SI
	CMPQ SI, DI
	JBE  hintw
	BYTE $0x0F; BYTE $0x0D; BYTE $0x0F   // PREFETCHW (DI)
	RET

hintt0:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, DI
	JBE        hintt0
	PREFETCHT0 (DI)

hintdone:
	RET

// func hintRows(data unsafe.Pointer, stride int, ids []int32)
//
// HintWrite's PREFETCHT0 loop over each row of stride bytes that ids
// names, in ID order: at the row's first byte, every 64 bytes after it
// inside the row, and its last byte. HintRows has checked every ID
// against the matrix's row count, so no address outside a row is
// formed.
TEXT ·hintRows(SB), NOSPLIT, $0-40
	MOVQ  data+0(FP), SI
	MOVQ  stride+8(FP), DX
	MOVQ  ids_base+16(FP), BX
	MOVQ  ids_len+24(FP), CX
	TESTQ DX, DX
	JLE   rowsdone
	TESTQ CX, CX
	JZ    rowsdone
	LEAQ  (BX)(CX*4), R8     // the end of ids

rowsnext:
	MOVLQZX (BX), AX
	IMULQ   DX, AX
	LEAQ    (SI)(AX*1), DI   // the row's first byte
	LEAQ    -1(DI)(DX*1), R9 // its last byte

rowsline:
	PREFETCHT0 (DI)
	ADDQ       $64, DI
	CMPQ       DI, R9
	JBE        rowsline
	PREFETCHT0 (R9)
	ADDQ       $4, BX
	CMPQ       BX, R8
	JB         rowsnext

rowsdone:
	RET
