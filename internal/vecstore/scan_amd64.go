//go:build amd64 && !purego

package vecstore

import "v2v/internal/f32"

// maskAVX2 is whether int8Mask runs its AVX2 assembly
// (int8MaskAVX2): where this machine runs the AVX2 encodings. Both
// encodings set the same bits; tests switch it to compare them.
var maskAVX2 = f32.HasAVX2()

//go:noescape
func int8MaskAVX2(dots []int32, scale, half, norms []float64, euclidean bool, sq, hq, qn, off, c float64, mask *[scanBlock / 64]uint64)
