//go:build amd64 && !purego

package f32

// The kernels of kernels_amd64.s. The assembly trusts len(first
// slice) for every argument (DotRowsI8: len(q) and len(out)), so the
// wrappers reslice the others to it: a short slice panics here
// instead of being overrun there.

//go:noescape
func dotSSE2(a, b []float32) float32

//go:noescape
func addSSE2(dst, src []float32)

//go:noescape
func gradSSE2(step float32, h, out, e []float32)

//go:noescape
func dotRowsI8AVX2(q, rows []int8, out []int32)

// Dot returns the inner product of a and b[:len(a)].
func Dot(a, b []float32) float32 { return dotSSE2(a, b[:len(a)]) }

// Add computes dst += src[:len(dst)].
func Add(dst, src []float32) { addSSE2(dst, src[:len(dst)]) }

// Grad computes e += g*out, then out += g*h, over len(h) elements in
// one pass. h, out and e must not overlap.
func Grad(g float32, h, out, e []float32) { gradSSE2(g, h, out[:len(h)], e[:len(h)]) }

// DotRowsI8 computes out[r] = Σ_i q[i]·rows[r*len(q)+i] for every
// r < len(out): one int8 query against a block of consecutive rows of
// a row-major int8 matrix whose stride is len(q). len(q) must be a
// multiple of 32 (pad both sides with zeros), and no element of rows
// may be -128. The sums are exact when len(q) <= MaxI8Len; longer
// queries wrap in int32, on both encodings alike.
func DotRowsI8(q, rows []int8, out []int32) {
	checkI8(q)
	rows = rows[:len(q)*len(out)]
	if hasAVX2 {
		dotRowsI8AVX2(q, rows, out)
		return
	}
	dotRowsI8Generic(q, rows, out)
}

// HasAVX2 reports whether this process runs the AVX2 encodings: the
// processor has AVX2 and the operating system saves the YMM registers.
func HasAVX2() bool { return hasAVX2 }

// hasAVX2 picks dotRowsI8AVX2 over dotRowsI8Generic. Both return the
// same sums (TestKernelsMatchGeneric runs under each), so the choice
// changes how fast a result comes, never which result.
var hasAVX2 = detectAVX2()

// detectAVX2 reads CPUID and XCR0: CPUID.7.0:EBX bit 5 (AVX2),
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), and XCR0 bits 1 and 2
// (the OS saves XMM and YMM state).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// hasPrefetchW is CPUID 8000_0001h ECX bit 8, read once at package
// init: whether HintWrite may issue PREFETCHW. It picks between two
// hints, never between two results.
var hasPrefetchW = cpuidExtECX()&(1<<8) != 0

// cpuidExtECX returns ECX of CPUID leaf 8000_0001h, or 0 where that
// leaf does not exist.
func cpuidExtECX() uint32 {
	if maxLeaf, _, _, _ := cpuid(0x80000000, 0); maxLeaf < 0x80000001 {
		return 0
	}
	_, _, ecx, _ := cpuid(0x80000001, 0)
	return ecx
}

// HintWrite tells the processor that row is about to be read and then
// written, so it can fetch row's cache lines in the exclusive state
// while the caller does something else: the Hogwild trainer calls it on
// the rows of its shared output matrix a few hundred cycles before it
// updates them, when the other core likely wrote them last. It reads
// and writes nothing the program can observe and never faults. Outside
// amd64, and under -tags purego, it does nothing.
//
//go:noescape
func HintWrite(row []float32)
