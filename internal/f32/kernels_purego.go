//go:build !amd64 || purego

package f32

// Without the assembly the exported kernels are the portable ones of
// kernels_generic.go, which compute the same bits.

// Dot returns the inner product of a and b[:len(a)].
func Dot(a, b []float32) float32 { return dotGeneric(a, b) }

// Add computes dst += src[:len(dst)].
func Add(dst, src []float32) { addGeneric(dst, src) }

// Grad computes e += g*out, then out += g*h, over len(h) elements in
// one pass. h, out and e must not overlap.
func Grad(g float32, h, out, e []float32) { gradGeneric(g, h, out, e) }

// DotRowsI8 computes out[r] = Σ_i q[i]·rows[r*len(q)+i] for every
// r < len(out), exactly; the contract is kernels_amd64.go's.
func DotRowsI8(q, rows []int8, out []int32) {
	checkI8(q)
	dotRowsI8Generic(q, rows, out)
}

// DotGather sets out[j] = Dot(q, row ids[j] of data) for every
// j < len(ids); the contract is kernels_amd64.go's.
func DotGather(q, data []float32, ids []int32, out []float32) {
	dotGatherRows(q, data, ids, checkGather(q, data, ids, out))
}

// DotF64Gather sets out[j] = DotF64(q, row ids[j] of data) for every
// j < len(ids); the contract is kernels_amd64.go's (q64 goes unread
// here).
func DotF64Gather(q []float32, q64 []float64, data []float32, ids []int32, out []float64) {
	f64GatherGeneric(DotF64x4, q, data, ids, checkGather(q, data, ids, out))
}

// SqDistF64Gather sets out[j] = SqDistF64(q, row ids[j] of data) for
// every j < len(ids); the contract is kernels_amd64.go's.
func SqDistF64Gather(q []float32, q64 []float64, data []float32, ids []int32, out []float64) {
	f64GatherGeneric(SqDistF64x4, q, data, ids, checkGather(q, data, ids, out))
}

// HintWrite is a cache hint on amd64 (see kernels_amd64.go) and
// nothing here: it has no result to reproduce.
func HintWrite(row []float32) {}
