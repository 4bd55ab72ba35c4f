//go:build amd64 && !purego

package vecstore

import "v2v/internal/f32"

// blockReject is whether scanRange runs the vector reject pass
// (dropMaskAVX2) over each block: where this machine runs the AVX2
// encodings. Tests turn it off to compare against the scalar loop.
var blockReject = f32.HasAVX2()

//go:noescape
func dropMaskAVX2(dots []float32, norms []float64, euclidean bool, qn, off, c float64, mask *[scanBlock / 64]uint64)

// dropMask sets bit j of mask (bit j%64 of word j/64) for each
// j < len(dots) where f.drops(dots[j], norms[j]) holds, and leaves the
// other bits as they are. mask must start zeroed. It does nothing when
// blockReject is off or f is not armed.
func (f *prefilter) dropMask(dots []float32, norms []float64, mask *[scanBlock / 64]uint64) {
	if !blockReject || !f.armed {
		return
	}
	norms = norms[:len(dots)]
	dropMaskAVX2(dots, norms, f.metric == Euclidean, f.qn, f.off, f.c, mask)
	for j := len(dots) &^ 3; j < len(dots); j++ {
		if f.drops(dots[j], norms[j]) {
			mask[j/64] |= 1 << (j % 64)
		}
	}
}
