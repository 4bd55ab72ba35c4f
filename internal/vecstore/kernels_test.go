package vecstore

import (
	"math"
	"testing"

	"v2v/internal/f32"
	"v2v/internal/xrand"
)

// The float64 kernels live in internal/f32; this package's tests call
// them by these names.
var (
	dotF64      = f32.DotF64
	dotF64x4    = f32.DotF64x4
	sqDistF64   = f32.SqDistF64
	sqDistF64x4 = f32.SqDistF64x4
)

// rawVec reads n float32s out of random bits, every fourth one an
// awkward value: NaN, ±Inf, the subnormals' ends, the largest finite
// magnitudes, zeros.
func rawVec(rng *xrand.RNG, n int) []float32 {
	awkward := []uint32{0x7fc00001, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x7f7fffff, 0xff7fffff, 0x7f000000, 0, 0x80000000}
	v := make([]float32, n)
	for i := range v {
		bits := rng.Uint32()
		if rng.Intn(4) == 0 {
			bits = awkward[rng.Intn(len(awkward))]
		}
		v[i] = math.Float32frombits(bits)
	}
	return v
}

// sameBits reports whether two sums are the same float64. A NaN equals
// any NaN: when two NaNs meet in an addition the survivor's payload
// follows the operand order the compiler chose for that accumulator
// (the race detector's build chooses differently), which no kernel
// promises.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestKernelsX4MatchSingle: each of the four sums of dotF64x4 and
// sqDistF64x4 is the single kernel's, in every bit, at every length
// 0-67, on ordinary vectors and on raw bits.
func TestKernelsX4MatchSingle(t *testing.T) {
	rng := xrand.New(29)
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 16; trial++ {
			var v [5][]float32
			for i := range v {
				if trial%2 == 0 {
					v[i] = rawVec(rng, n)
					continue
				}
				v[i] = make([]float32, n)
				for j := range v[i] {
					v[i][j] = float32(rng.NormFloat64())
				}
			}
			var dot, sq [4]float64
			dot[0], dot[1], dot[2], dot[3] = dotF64x4(v[0], v[1], v[2], v[3], v[4])
			sq[0], sq[1], sq[2], sq[3] = sqDistF64x4(v[0], v[1], v[2], v[3], v[4])
			for r := 0; r < 4; r++ {
				if got, want := dot[r], dotF64(v[0], v[r+1]); !sameBits(got, want) {
					t.Fatalf("len %d trial %d: dotF64x4 sum %d = %v (%#x), dotF64 = %v (%#x)", n, trial, r, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := sq[r], sqDistF64(v[0], v[r+1]); !sameBits(got, want) {
					t.Fatalf("len %d trial %d: sqDistF64x4 sum %d = %v (%#x), sqDistF64 = %v (%#x)", n, trial, r, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
