//go:build !amd64 || purego

package vecstore

// maskAVX2 is false here: int8Mask runs its portable loop alone.
var maskAVX2 = false

// int8MaskAVX2 has no assembly here, and int8Mask never calls it.
func int8MaskAVX2(dots []int32, scale, half, norms []float64, euclidean bool, sq, hq, qn, off, c float64, mask *[scanBlock / 64]uint64) {
	panic("vecstore: int8MaskAVX2 called without AVX2")
}
