package vecstore

// The float64 similarity kernels: every score an index reports comes
// from one of them. Both accumulate in float64 and visit the elements
// in index order, exactly like the seed's scalar loops, so scores are
// bit-identical to the seed's on every GOARCH. The exact scan calls
// them only for the rows its float32 pass could not reject (scan.go).

// dotF64 returns the float64-accumulated inner product of two
// float32 vectors.
func dotF64(a, b []float32) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// sqDistF64 returns the float64-accumulated squared Euclidean
// distance between two float32 vectors.
func sqDistF64(a, b []float32) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return s
}
