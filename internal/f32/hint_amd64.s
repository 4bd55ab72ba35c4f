//go:build amd64 && !purego

#include "textflag.h"

// The write hint lives apart from kernels_amd64.s: it computes
// nothing, and its two encodings differ in what they ask of the
// cache, not in any result.

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
