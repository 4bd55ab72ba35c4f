package word2vec

import (
	"fmt"
	"math"
	"testing"

	"v2v/internal/vecstore"
	"v2v/internal/xrand"
)

// kernelLens are the vector lengths the kernel tests cover: every
// length through two 8-float blocks plus each tail, and the dimensions
// the benchmarks and the CLI use.
func kernelLens() []int {
	lens := []int{100, 128}
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return lens
}

// guard is the canary written either side of a kernel operand.
const guard = float32(-12345.678)

// operandStart is where an operand begins in its buffer, before the
// offset: one cache line of guard words in.
const operandStart = 16

// operand carves a length-n slice out of a fresh 64-byte-aligned
// buffer, starting off floats past a 64-byte boundary, with guard
// words either side, filled from rng with values of mixed sign and
// magnitude (so summation order shows in the last bits).
func operand(rng *xrand.RNG, n, off int) (v, buf []float32) {
	buf = vecstore.AlignedSlice(operandStart + n + 8)
	for i := range buf {
		buf[i] = guard
	}
	lo := operandStart + off
	v = buf[lo : lo+n : lo+n]
	for i := range v {
		v[i] = (rng.Float32() - 0.5) * float32(math.Exp(float64(rng.Intn(9)-4)))
	}
	return v, buf
}

// checkGuards fails if a guard word of buf, whose operand has n
// elements at offset off, was written.
func checkGuards(t *testing.T, what string, buf []float32, n, off int) {
	t.Helper()
	lo := operandStart + off
	for i, x := range buf {
		if (i < lo || i >= lo+n) && math.Float32bits(x) != math.Float32bits(guard) {
			t.Fatalf("%s: wrote outside its operand at buffer index %d", what, i)
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x, portable kernel has %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestKernelsMatchGeneric pins the numeric contract of the kernel
// pair: the kernels the trainer calls (SSE2 assembly on amd64, the
// portable ones under -tags purego) and the portable ones return the
// same bits for every length and alignment, and none writes outside
// len(first operand).
func TestKernelsMatchGeneric(t *testing.T) {
	rng := xrand.New(99)
	for _, n := range kernelLens() {
		for off := 0; off < 4; off++ {
			name := fmt.Sprintf("n=%d/off=%d", n, off)

			a, _ := operand(rng, n, off)
			b, _ := operand(rng, n, (off+1)%4)
			if got, want := dot(a, b), dotGeneric(a, b); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("dot %s = %x (%v), portable kernel has %x (%v)", name, math.Float32bits(got), got, math.Float32bits(want), want)
			}

			dst, dstBuf := operand(rng, n, off)
			want := append([]float32(nil), dst...)
			add(dst, a)
			addGeneric(want, a)
			sameBits(t, "add "+name, dst, want)
			checkGuards(t, "add "+name, dstBuf, n, off)

			g := (rng.Float32() - 0.5) * 0.1
			outOff, eOff := (off+2)%4, (off+3)%4
			out, outBuf := operand(rng, n, outOff)
			e, eBuf := operand(rng, n, eOff)
			wantOut := append([]float32(nil), out...)
			wantE := append([]float32(nil), e...)
			grad(g, a, out, e)
			gradGeneric(g, a, wantOut, wantE)
			sameBits(t, "grad out "+name, out, wantOut)
			sameBits(t, "grad e "+name, e, wantE)
			checkGuards(t, "grad out "+name, outBuf, n, outOff)
			checkGuards(t, "grad e "+name, eBuf, n, eOff)
		}
	}
}

// TestGradAdjacentRows runs grad on three neighbouring rows of one
// matrix, the layout the trainer hands it (h a syn0 row in SkipGram,
// out a syn1 row): the rows before and after each operand must come
// back untouched, and the result must match the unfused definition.
func TestGradAdjacentRows(t *testing.T) {
	rng := xrand.New(7)
	for _, dim := range []int{1, 7, 8, 9, 50, 64} {
		m := make([]float32, 7*dim)
		for i := range m {
			m[i] = rng.Float32() - 0.5
		}
		before := append([]float32(nil), m...)
		row := func(s []float32, r int) []float32 { return s[r*dim : (r+1)*dim] }
		const g = float32(0.0125)
		grad(g, row(m, 1), row(m, 3), row(m, 5))
		for _, r := range []int{0, 1, 2, 4, 6} {
			sameBits(t, fmt.Sprintf("dim %d row %d", dim, r), row(m, r), row(before, r))
		}
		for i := 0; i < dim; i++ {
			h, out, e := row(before, 1)[i], row(before, 3)[i], row(before, 5)[i]
			if got, want := row(m, 5)[i], e+float32(g*out); got != want {
				t.Fatalf("dim %d: e[%d] = %v, want %v", dim, i, got, want)
			}
			if got, want := row(m, 3)[i], out+float32(g*h); got != want {
				t.Fatalf("dim %d: out[%d] = %v, want %v", dim, i, got, want)
			}
		}
	}
}

// TestKernelsRejectShortOperands: a second operand shorter than the
// first panics instead of being overrun.
func TestKernelsRejectShortOperands(t *testing.T) {
	long, short := make([]float32, 16), make([]float32, 15)
	for name, call := range map[string]func(){
		"dot":      func() { dot(long, short) },
		"add":      func() { add(long, short) },
		"grad out": func() { grad(1, long, short, long) },
		"grad e":   func() { grad(1, long, long, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a short operand", name)
				}
			}()
			call()
		}()
	}
}

// TestNLLTable: the tabulated -log σ the trainer reports its loss from
// stays within one bin's worth of the exact value (|d/dx log σ| <= 1,
// so one bin width), and is exact at and beyond the clamps.
func TestNLLTable(t *testing.T) {
	const binWidth = 1.0 / binsPerUnit
	for x := -(maxExp + 1.0); x <= maxExp+1; x += binWidth / 7 {
		got := float64(nll(float32(x)))
		want := -logSigmoid(float64(float32(x)))
		if math.Abs(got-want) > binWidth {
			t.Fatalf("nll(%v) = %v, exact %v: off by more than a bin (%v)", x, got, want, binWidth)
		}
	}
	for _, x := range []float32{maxExp, maxExp + 0.5, 100} {
		if got := nll(x); got != 0 {
			t.Errorf("nll(%v) = %v, want 0 at the upper clamp", x, got)
		}
		if got := nll(-x); got != x {
			t.Errorf("nll(%v) = %v, want %v at the lower clamp", -x, got, x)
		}
	}
}
