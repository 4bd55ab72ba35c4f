package vecstore

// The float64 similarity kernels: every score an index reports comes
// from one of them. All accumulate in float64 and visit the elements
// in index order, exactly like the seed's scalar loops, so scores are
// bit-identical to the seed's on every GOARCH. The exact scan calls
// them only for the rows its int8 and float32 passes could not reject
// (scan.go).
//
// Each kernel is one dependent chain of len(a) additions, so its time
// is the adder's latency, not its throughput. The x4 forms run four
// such chains — one a, four rows, four accumulators — in one loop:
// every sum sees the single kernel's operations in the single kernel's
// order, so each is that kernel's result bit for bit, in about the
// time of one (a NaN is that kernel's NaN up to its payload, which
// follows the operand order the compiler picks per accumulator). HNSW
// scores its candidate lists with them (hnsw.go).

// dotF64 returns the float64-accumulated inner product of two
// float32 vectors.
func dotF64(a, b []float32) float64 {
	var s float64
	b = b[:len(a)]
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// dotF64x4 returns dotF64(a, r0) … dotF64(a, r3).
func dotF64x4(a, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for i, x := range a {
		s0 += float64(x) * float64(r0[i])
		s1 += float64(x) * float64(r1[i])
		s2 += float64(x) * float64(r2[i])
		s3 += float64(x) * float64(r3[i])
	}
	return
}

// sqDistF64 returns the float64-accumulated squared Euclidean
// distance between two float32 vectors.
func sqDistF64(a, b []float32) float64 {
	var s float64
	b = b[:len(a)]
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return s
}

// sqDistF64x4 returns sqDistF64(a, r0) … sqDistF64(a, r3).
func sqDistF64x4(a, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(a)], r1[:len(a)], r2[:len(a)], r3[:len(a)]
	for i, x := range a {
		d0 := float64(x) - float64(r0[i])
		d1 := float64(x) - float64(r1[i])
		d2 := float64(x) - float64(r2[i])
		d3 := float64(x) - float64(r3[i])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}
