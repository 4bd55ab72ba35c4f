// Package f32 holds the repository's vector kernels: Dot, Add and
// Grad, the three float32 level-1 operations of the word2vec training
// loop; DotRowsI8, the int8 dot of one query against a block of matrix
// rows, the first pass of the vecstore exact scan; and HintWrite, the
// trainer's prefetch-for-write over a row it is about to update. It
// imports nothing, so both can use it.
//
// On amd64 the kernels are assembly (kernels_amd64.s): Dot, Add and
// Grad in SSE2, the GOAMD64=v1 baseline, and DotRowsI8, the exact
// scan's hot loop, behind one CPUID dispatch. Where the processor has
// AVX2 and the operating system saves the YMM registers (hasAVX2, read
// once at init), DotRowsI8 runs four rows per pass over 32-byte
// chunks; elsewhere it runs its portable twin. Integer sums are exact,
// so the two agree by construction. This file has the kernels in
// portable Go: the implementation on every other GOARCH (and on amd64
// under -tags purego), and the reference the assembly is tested
// against. Each float32 kernel reproduces the assembly's arithmetic
// operation for operation, so all return identical bits: a model
// trained with Workers = 1 is the same on every architecture, and so
// is the set of rows a scan rejects, whichever encoding a machine
// picked.
//
// HintWrite (hint_amd64.s) picks PREFETCHW or PREFETCHT0 from a CPUID
// bit read at init. A prefetch has no architectural effect, so that
// choice cannot change a result either. It has no portable twin to
// match; elsewhere it is an empty function.
package f32

// Every product is written float32(x * y): the explicit conversion is
// a rounding point the compiler may not fuse into a multiply-add
// (arm64, ppc64le, s390x and riscv64 otherwise would, and change the
// last bit).

// dotGeneric returns the inner product of a and b[:len(a)]. The
// summation order is the assembly's: lane j of eight partial sums
// takes elements j, j+8, j+16, ...; the lanes are folded (j with j+4,
// then 0 with 2 and 1 with 3, then those two); the len%8 tail is added
// in order.
func dotGeneric(a, b []float32) float32 {
	b = b[:len(a)]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for len(a) >= 8 {
		x, y := (*[8]float32)(a), (*[8]float32)(b)
		p0 += float32(x[0] * y[0])
		p1 += float32(x[1] * y[1])
		p2 += float32(x[2] * y[2])
		p3 += float32(x[3] * y[3])
		p4 += float32(x[4] * y[4])
		p5 += float32(x[5] * y[5])
		p6 += float32(x[6] * y[6])
		p7 += float32(x[7] * y[7])
		a, b = a[8:], b[8:]
	}
	sum := ((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7))
	for i, x := range a {
		sum += float32(x * b[i])
	}
	return sum
}

// addGeneric computes dst += src[:len(dst)].
func addGeneric(dst, src []float32) {
	src = src[:len(dst)]
	for len(dst) >= 8 {
		d, s := (*[8]float32)(dst), (*[8]float32)(src)
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
		dst, src = dst[8:], src[8:]
	}
	for i, x := range src {
		dst[i] += x
	}
}

// gradGeneric is the fused output-layer step for one target row:
// e += g*out, then out += g*h, over len(h) elements in one pass. h,
// out and e must not overlap.
func gradGeneric(g float32, h, out, e []float32) {
	out, e = out[:len(h)], e[:len(h)]
	for i, x := range h {
		e[i] += float32(g * out[i])
		out[i] += float32(g * x)
	}
}

// dotRowsI8Generic computes out[r] = Σ_i q[i]·rows[r*len(q)+i] for
// every r < len(out), in int32. Integer addition is associative, so
// this order gives the assembly's bits, which sums in another.
func dotRowsI8Generic(q, rows []int8, out []int32) {
	rows = rows[:len(q)*len(out)]
	for r := range out {
		a, b := q, rows[r*len(q):(r+1)*len(q)]
		var s0, s1, s2, s3 int32
		for len(a) >= 8 {
			x, y := (*[8]int8)(a), (*[8]int8)(b)
			s0 += int32(x[0])*int32(y[0]) + int32(x[4])*int32(y[4])
			s1 += int32(x[1])*int32(y[1]) + int32(x[5])*int32(y[5])
			s2 += int32(x[2])*int32(y[2]) + int32(x[6])*int32(y[6])
			s3 += int32(x[3])*int32(y[3]) + int32(x[7])*int32(y[7])
			a, b = a[8:], b[8:]
		}
		for i, x := range a {
			s0 += int32(x) * int32(b[i])
		}
		out[r] = s0 + s1 + s2 + s3
	}
}

// MaxI8Len is the longest query DotRowsI8 sums exactly: 127²·MaxI8Len
// fits in an int32.
const MaxI8Len = 1 << 17

// checkI8 panics unless q is a query DotRowsI8 accepts: a whole number
// of 32-byte chunks.
func checkI8(q []int8) {
	if len(q)%32 != 0 {
		panic("f32: DotRowsI8 query length is not a multiple of 32")
	}
}
