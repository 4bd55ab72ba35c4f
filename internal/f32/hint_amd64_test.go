//go:build amd64 && !purego

package f32

import "testing"

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
