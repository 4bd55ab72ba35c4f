//go:build amd64 && !purego

package f32

// The kernels of kernels_amd64.s. The assembly trusts len(first
// slice) for every argument (DotRows: len(q) and len(out)), so the
// wrappers reslice the others to it: a short slice panics here
// instead of being overrun there.

//go:noescape
func dotSSE2(a, b []float32) float32

//go:noescape
func addSSE2(dst, src []float32)

//go:noescape
func gradSSE2(step float32, h, out, e []float32)

//go:noescape
func dotRowsSSE2(q, rows, out []float32)

// Dot returns the inner product of a and b[:len(a)].
func Dot(a, b []float32) float32 { return dotSSE2(a, b[:len(a)]) }

// Add computes dst += src[:len(dst)].
func Add(dst, src []float32) { addSSE2(dst, src[:len(dst)]) }

// Grad computes e += g*out, then out += g*h, over len(h) elements in
// one pass. h, out and e must not overlap.
func Grad(g float32, h, out, e []float32) { gradSSE2(g, h, out[:len(h)], e[:len(h)]) }

// DotRows computes out[r] = Dot(q, rows[r*len(q):(r+1)*len(q)]) for
// every r < len(out): one query against a block of consecutive rows
// of a row-major matrix.
func DotRows(q, rows, out []float32) { dotRowsSSE2(q, rows[:len(q)*len(out)], out) }

// hasPrefetchW is CPUID 8000_0001h ECX bit 8, read once at package
// init: whether HintWrite may issue PREFETCHW. It picks between two
// hints, never between two results, which is why this package's one
// CPUID dispatch is here and none is in the arithmetic.
var hasPrefetchW = cpuidExtECX()&(1<<8) != 0

func cpuidExtECX() uint32

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
