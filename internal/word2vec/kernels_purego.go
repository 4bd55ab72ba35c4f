//go:build !amd64 || purego

package word2vec

// Without the assembly the training loop runs on the portable kernels
// of kernels_generic.go, which compute the same bits.

func dot(a, b []float32) float32          { return dotGeneric(a, b) }
func add(dst, src []float32)              { addGeneric(dst, src) }
func grad(g float32, h, out, e []float32) { gradGeneric(g, h, out, e) }
