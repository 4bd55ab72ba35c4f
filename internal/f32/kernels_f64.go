package f32

// The float64 similarity kernels: every score a vecstore index reports
// comes from one of them. Each accumulates in float64 and visits the
// elements in index order, exactly like the seed's scalar loops, so
// scores are bit-identical to the seed's on every GOARCH. Every
// product and square is written float64(x * y): the conversion is a
// rounding point the compiler may not fuse into a multiply-add with
// the sum (arm64 otherwise does, and rounds s + d*d once where amd64
// rounds twice). A product of two float32 values is exact in float64
// anyway; the squares of sqDist's differences are not.
//
// Each kernel is one dependent chain of len(a) additions, so its time
// is the adder's latency, not its throughput. The x4 forms run four
// such chains — one a, four rows, four accumulators — in one loop:
// every sum sees the single kernel's operations in the single kernel's
// order, so each is that kernel's result bit for bit, in about the
// time of one (a NaN is that kernel's NaN up to its payload, which
// follows the operand order the compiler picks per accumulator). The
// gathered forms (DotF64Gather, SqDistF64Gather) score a list of rows
// of one matrix four at a time: in Go with the x4 forms, and on amd64
// with AVX2 one YMM lane per row (kernels_amd64.s), the same chains.

// DotF64 returns the float64-accumulated inner product of a and
// b[:len(a)].
func DotF64(a, b []float32) float64 {
	var s float64
	b = b[:len(a)]
	for i, x := range a {
		s += float64(float64(x) * float64(b[i]))
	}
	return s
}

// DotF64x4 returns DotF64(a, r0) … DotF64(a, r3).
func DotF64x4(a, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for i, x := range a {
		s0 += float64(float64(x) * float64(r0[i]))
		s1 += float64(float64(x) * float64(r1[i]))
		s2 += float64(float64(x) * float64(r2[i]))
		s3 += float64(float64(x) * float64(r3[i]))
	}
	return
}

// SqDistF64 returns the float64-accumulated squared Euclidean distance
// between a and b[:len(a)].
func SqDistF64(a, b []float32) float64 {
	var s float64
	b = b[:len(a)]
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += float64(d * d)
	}
	return s
}

// SqDistF64x4 returns SqDistF64(a, r0) … SqDistF64(a, r3).
func SqDistF64x4(a, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for i, x := range a {
		d0 := float64(x) - float64(r0[i])
		d1 := float64(x) - float64(r1[i])
		d2 := float64(x) - float64(r2[i])
		d3 := float64(x) - float64(r3[i])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	return
}

// Widen sets dst[i] = float64(src[i]) for every i < len(src): the
// query operand of DotF64Gather and SqDistF64Gather.
func Widen(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float64(x)
	}
}

// f64x4 is DotF64x4 or SqDistF64x4.
type f64x4 func(a, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64)

// f64GatherGeneric is the portable DotF64Gather or SqDistF64Gather:
// kernel over the rows four at a time, the last call's spare slots
// scoring the last row again.
func f64GatherGeneric(kernel f64x4, q, data []float32, ids []int32, out []float64) {
	dim := len(q)
	row := func(id int32) []float32 { return data[int(id)*dim : int(id)*dim+dim] }
	last := len(ids) - 1
	for i := 0; i <= last; i += 4 {
		var d [4]float64
		d[0], d[1], d[2], d[3] = kernel(q, row(ids[i]), row(ids[min(i+1, last)]), row(ids[min(i+2, last)]), row(ids[min(i+3, last)]))
		copy(out[i:], d[:min(4, last+1-i)])
	}
}

// checkGather panics unless every ID names a whole row of data, a
// row-major matrix of len(q)-element rows, and out has room for one
// result per ID: the assembly reads and writes unchecked. It returns
// out resliced to len(ids).
func checkGather[T float32 | float64](q, data []float32, ids []int32, out []T) []T {
	out = out[:len(ids)]
	if len(q) == 0 {
		return out
	}
	rows := uint(len(data) / len(q))
	for _, id := range ids {
		if uint(id) >= rows {
			panic("f32: gathered row ID out of range")
		}
	}
	return out
}
