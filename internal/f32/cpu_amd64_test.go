//go:build amd64 && !purego

package f32

import (
	"fmt"
	"testing"
)

// TestHintWriteBothEncodings forces HintWrite through each of its two
// instructions in turn, whatever CPUID said: both are hints, and both
// must leave memory alone. (Forcing PREFETCHW is safe where the bit is
// clear: every 64-bit x86 decodes 0F 0D /1, as a no-op if nothing
// else, which is why the dispatch falls back to PREFETCHT0 there.)
func TestHintWriteBothEncodings(t *testing.T) {
	defer func(was bool) { hasPrefetchW = was }(hasPrefetchW)
	t.Logf("CPUID 8000_0001h ECX = %#x, PREFETCHW %v", cpuidExtECX(), hasPrefetchW)
	for _, w := range []bool{true, false} {
		hasPrefetchW = w
		hintLeavesMemoryAlone(t)
	}
}

// TestKernelsBothEncodings runs the kernel tests with hasAVX2 forced
// off and on in turn, whatever CPUID said: "sse2" (DotRowsI8's
// portable twin) always, "avx2" (its assembly) where this machine can
// run it. Both must return the portable kernels' bits.
func TestKernelsBothEncodings(t *testing.T) {
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	xcr0 := "not readable (no OSXSAVE)"
	if ecx1&(1<<27) != 0 {
		xcr0 = fmt.Sprintf("%#x", xgetbv0())
	}
	t.Logf("CPUID.7.0:EBX = %#x, CPUID.1:ECX = %#x, XGETBV(0) = %s: AVX2 %v", ebx7, ecx1, xcr0, detectAVX2())
	for _, e := range kernelEncodings() {
		t.Run(e.name, func(t *testing.T) {
			if !e.supported {
				t.Skip("this processor or operating system does not offer AVX2")
			}
			defer e.use()()
			TestKernelsMatchGeneric(t)
			TestDotRowsI8MatchesGeneric(t)
			TestDotNonFinite(t)
			TestKernelsRejectShortOperands(t)
		})
	}
}

// kernelEncodings is the two settings of hasAVX2 on amd64, AVX2
// marked unsupported where detectAVX2 says this machine lacks it.
func kernelEncodings() []encoding {
	var es []encoding
	for _, avx2 := range []bool{false, true} {
		name, i8 := "sse2", "generic"
		if avx2 {
			name, i8 = "avx2", "avx2"
		}
		es = append(es, encoding{name: name, i8: i8, supported: !avx2 || detectAVX2(), use: func() func() {
			was := hasAVX2
			hasAVX2 = avx2
			return func() { hasAVX2 = was }
		}})
	}
	return es
}
