//go:build amd64 && !purego

package word2vec

// The kernels of kernels_amd64.s. The assembly trusts len(first
// slice) for every argument, so the wrappers reslice the others to it:
// a short slice panics here instead of being overrun there.

//go:noescape
func dotSSE2(a, b []float32) float32

//go:noescape
func addSSE2(dst, src []float32)

//go:noescape
func gradSSE2(step float32, h, out, e []float32)

// dot returns the inner product of a and b[:len(a)].
func dot(a, b []float32) float32 { return dotSSE2(a, b[:len(a)]) }

// add computes dst += src[:len(dst)].
func add(dst, src []float32) { addSSE2(dst, src[:len(dst)]) }

// grad computes e += g*out, then out += g*h, over len(h) elements in
// one pass. h, out and e must not overlap.
func grad(g float32, h, out, e []float32) { gradSSE2(g, h, out[:len(h)], e[:len(h)]) }
