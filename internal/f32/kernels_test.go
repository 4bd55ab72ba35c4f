package f32

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

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
	buf = make([]float32, operandStart+n+8+16)
	for uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%64 != 0 {
		buf = buf[1:]
	}
	buf = buf[:operandStart+n+8]
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
// pair: the exported kernels (assembly on amd64, the DotRowsI8
// encoding CPUID picked or TestKernelsBothEncodings forces; the
// portable ones under -tags purego) and the portable ones return the
// same bits for every length and alignment, and none writes outside
// its destination.
func TestKernelsMatchGeneric(t *testing.T) {
	rng := xrand.New(99)
	for _, n := range kernelLens() {
		for off := 0; off < 4; off++ {
			name := fmt.Sprintf("n=%d/off=%d", n, off)

			a, _ := operand(rng, n, off)
			b, _ := operand(rng, n, (off+1)%4)
			if got, want := Dot(a, b), dotGeneric(a, b); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("dot %s = %x (%v), portable kernel has %x (%v)", name, math.Float32bits(got), got, math.Float32bits(want), want)
			}

			dst, dstBuf := operand(rng, n, off)
			want := append([]float32(nil), dst...)
			Add(dst, a)
			addGeneric(want, a)
			sameBits(t, "add "+name, dst, want)
			checkGuards(t, "add "+name, dstBuf, n, off)

			g := (rng.Float32() - 0.5) * 0.1
			outOff, eOff := (off+2)%4, (off+3)%4
			out, outBuf := operand(rng, n, outOff)
			e, eBuf := operand(rng, n, eOff)
			wantOut := append([]float32(nil), out...)
			wantE := append([]float32(nil), e...)
			Grad(g, a, out, e)
			gradGeneric(g, a, wantOut, wantE)
			sameBits(t, "grad out "+name, out, wantOut)
			sameBits(t, "grad e "+name, e, wantE)
			checkGuards(t, "grad out "+name, outBuf, n, outOff)
			checkGuards(t, "grad e "+name, eBuf, n, eOff)
		}
	}
}

// i8Guard is the canary written either side of a DotRowsI8 output.
const i8Guard = int32(-0x5a5a5a5a)

// i8Rows returns nrows rows of stride bytes, the first dim of each
// from fill and the rest zero, starting off bytes into their buffer.
func i8Rows(nrows, dim, stride, off int, fill func() int8) []int8 {
	v := make([]int8, off+nrows*stride)[off:]
	for r := 0; r < nrows; r++ {
		for i := 0; i < dim; i++ {
			v[r*stride+i] = fill()
		}
	}
	return v
}

// checkDotRowsI8 holds DotRowsI8 to its portable twin and to the sum
// taken in int64, row by row, and fails if it wrote outside out.
func checkDotRowsI8(t *testing.T, what string, q, rows []int8) {
	t.Helper()
	nrows := len(rows) / max(len(q), 1)
	buf := make([]int32, nrows+2)
	for i := range buf {
		buf[i] = i8Guard
	}
	got, want := buf[1:1+nrows], make([]int32, nrows)
	DotRowsI8(q, rows, got)
	dotRowsI8Generic(q, rows, want)
	for r := range want {
		var exact int64
		for i, x := range q {
			exact += int64(x) * int64(rows[r*len(q)+i])
		}
		if got[r] != want[r] || int64(want[r]) != exact {
			t.Fatalf("%s row %d: DotRowsI8 %d, portable kernel %d, exact %d", what, r, got[r], want[r], exact)
		}
	}
	if buf[0] != i8Guard || buf[nrows+1] != i8Guard {
		t.Fatalf("%s: wrote outside its output", what)
	}
}

// TestDotRowsI8MatchesGeneric: DotRowsI8 (the encoding CPUID picked
// or TestKernelsBothEncodings forces) returns its portable twin's sums,
// which are the exact ones, at dims 1, 8, 9, 64 and 65 padded to whole
// 32-byte chunks, at every row count mod 4 and past a 256-row block,
// at four alignments, and on rows and queries of extreme bytes only.
func TestDotRowsI8MatchesGeneric(t *testing.T) {
	rng := xrand.New(11)
	random := func() int8 { return int8(rng.Intn(255) - 127) }
	extreme := func() int8 { return int8(127 - 254*rng.Intn(2)) }
	for _, dim := range []int{1, 8, 9, 64, 65} {
		stride := (dim + 31) &^ 31
		for off := 0; off < 4; off++ {
			for _, nrows := range []int{0, 1, 2, 3, 4, 5, 255, 256, 257} {
				name := fmt.Sprintf("dim=%d/off=%d/rows=%d", dim, off, nrows)
				q := i8Rows(1, dim, stride, (off+1)%4, random)
				checkDotRowsI8(t, name, q, i8Rows(nrows, dim, stride, off, random))
				checkDotRowsI8(t, name+"/extreme", i8Rows(1, dim, stride, off, extreme), i8Rows(nrows, dim, stride, off, extreme))
				// Every product at its largest: -128 is allowed in the
				// query, where VPSIGNB never negates it.
				lowest := i8Rows(1, dim, stride, off, func() int8 { return -128 })
				checkDotRowsI8(t, name+"/lowest", lowest, i8Rows(nrows, dim, stride, off, func() int8 { return -127 }))
			}
		}
	}
}

// TestDotNonFinite: overflow, infinities and NaN come out of the
// assembly as they come out of the portable kernels. The exact scan
// relies on it: a non-finite float32 dot sends the row to the float64
// kernel instead of being judged.
func TestDotNonFinite(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, n := range []int{1, 7, 8, 9, 16, 19} {
		for _, bad := range []float32{inf, -inf, nan, math.MaxFloat32, -math.MaxFloat32} {
			for at := 0; at < n; at++ {
				a, b := make([]float32, n), make([]float32, n)
				for i := range a {
					a[i], b[i] = float32(i+1), math.MaxFloat32/4
				}
				b[at] = bad
				got, want := Dot(a, b), dotGeneric(a, b)
				if math.IsNaN(float64(want)) != math.IsNaN(float64(got)) || (want == want && got != want) {
					t.Fatalf("n=%d bad=%v at %d: %v, portable kernel has %v", n, bad, at, got, want)
				}
			}
		}
	}
}

// TestGradAdjacentRows runs Grad on three neighbouring rows of one
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
		Grad(g, row(m, 1), row(m, 3), row(m, 5))
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

// hintLeavesMemoryAlone runs HintWrite over rows of every kernel
// length plus a dim-600 one, at each alignment, and fails if a bit of
// the row or a guard word either side of it changed. The last rows end
// on the last element of their allocation (64 KiB is a span of its own
// to the Go allocator), the position of the last row of a matrix.
func hintLeavesMemoryAlone(t *testing.T) {
	t.Helper()
	rng := xrand.New(5)
	for _, n := range append(kernelLens(), 600) {
		for off := 0; off < 4; off++ {
			name := fmt.Sprintf("hint n=%d/off=%d", n, off)
			row, buf := operand(rng, n, off)
			want := append([]float32(nil), row...)
			HintWrite(row)
			sameBits(t, name, row, want)
			checkGuards(t, name, buf, n, off)
		}
	}
	span := make([]float32, 64<<10/4)
	for i := range span {
		span[i] = guard
	}
	for _, n := range []int{1, 15, 16, 17, 50, 600} {
		HintWrite(span[len(span)-n:])
	}
	HintWrite(span)
	HintWrite(span[len(span):])
	HintWrite(nil)
	for i, x := range span {
		if math.Float32bits(x) != math.Float32bits(guard) {
			t.Fatalf("hint at the end of an allocation: element %d changed", i)
		}
	}
}

// TestHintWriteLeavesMemoryAlone: HintWrite has no effect a program
// can see, whichever instruction this machine's CPUID picked for it;
// under -tags purego, and off amd64, this is its no-op twin.
func TestHintWriteLeavesMemoryAlone(t *testing.T) { hintLeavesMemoryAlone(t) }

// TestKernelsRejectShortOperands: a second operand shorter than the
// first panics instead of being overrun.
func TestKernelsRejectShortOperands(t *testing.T) {
	long, short := make([]float32, 16), make([]float32, 15)
	q8, rows8, out8 := make([]int8, 32), make([]int8, 63), make([]int32, 2)
	for name, call := range map[string]func(){
		"dot":             func() { Dot(long, short) },
		"add":             func() { Add(long, short) },
		"grad out":        func() { Grad(1, long, short, long) },
		"grad e":          func() { Grad(1, long, long, short) },
		"dotrowsi8 rows":  func() { DotRowsI8(q8, rows8, out8) },
		"dotrowsi8 chunk": func() { DotRowsI8(q8[:31], rows8, out8) },
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

// kernelSink keeps the compiler from discarding the Dot calls.
var kernelSink float32

// encoding is one set of kernels a build can run, by the name of its
// float32 encoding; i8 names the DotRowsI8 it runs. use selects it and
// returns the function that restores the previous choice; supported is
// false where this machine cannot run it.
type encoding struct {
	name, i8  string
	supported bool
	use       func() (restore func())
}

// BenchmarkKernels times the kernels on operands that stay in L1, at
// the dimensions the CLI (50) and the serving benchmark (64, 128) use.
// DotRowsI8 runs at dim 64 (a 64-byte stride) under each encoding of
// kernelEncodings and reports the time per row: over 256 rows, the
// exact scan's block, and over a 20 000-row store a block at a time,
// as the scan streams the repository benchmark's serve_exact store
// (1.3 MB of int8 rows), where memory bandwidth may set the pace.
func BenchmarkKernels(b *testing.B) {
	for _, dim := range []int{50, 64, 128} {
		h, out, e := make([]float32, dim), make([]float32, dim), make([]float32, dim)
		for i := range h {
			h[i], out[i] = float32(i%7)-3, float32(i%5)-2
		}
		b.Run(fmt.Sprintf("dot/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelSink += Dot(h, out)
			}
		})
		b.Run(fmt.Sprintf("add/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Add(e, h)
			}
		})
		b.Run(fmt.Sprintf("grad/dim=%d", dim), func(b *testing.B) {
			// A step this small keeps out and e finite over b.N calls.
			for i := 0; i < b.N; i++ {
				Grad(1e-9, h, out, e)
			}
		})
	}
	const dim = 64
	q := i8Rows(1, dim, dim, 0, func() int8 { return 37 })
	for _, nrows := range []int{256, 20_000} {
		k := 0
		rows, dots := i8Rows(nrows, dim, dim, 0, func() int8 { k++; return int8(k%255 - 127) }), make([]int32, 256)
		for _, enc := range kernelEncodings() {
			b.Run(fmt.Sprintf("DotRowsI8/dim=%d/rows=%d/%s", dim, nrows, enc.i8), func(b *testing.B) {
				if !enc.supported {
					b.Skip("not supported here")
				}
				defer enc.use()()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < nrows; lo += len(dots) {
						n := min(nrows-lo, len(dots))
						DotRowsI8(q, rows[lo*dim:(lo+n)*dim], dots[:n])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nrows), "ns/row")
			})
		}
	}
}
