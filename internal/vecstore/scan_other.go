//go:build !amd64 || purego

package vecstore

// blockReject is false here: there is no vector reject pass, and
// scanRange tests every row with drops, one at a time.
var blockReject = false

// dropMask leaves mask as it is: every row is scanRange's to test.
func (f *prefilter) dropMask(dots []float32, norms []float64, mask *[scanBlock / 64]uint64) {}
