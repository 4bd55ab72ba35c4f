package vecstore

import (
	"math"
	"testing"
	"unsafe"

	"v2v/internal/xrand"
)

func randStore(n, dim int, seed uint64) *Store {
	rng := xrand.New(seed)
	s := New(n, dim)
	for i := range s.data {
		s.data[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestAlignedSlice(t *testing.T) {
	for _, n := range []int{1, 7, 16, 1000} {
		v := AlignedSlice(n)
		if len(v) != n {
			t.Fatalf("len = %d, want %d", len(v), n)
		}
		addr := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		if addr%cacheLine != 0 {
			t.Fatalf("n=%d: base address %#x not %d-byte aligned", n, addr, cacheLine)
		}
	}
	if AlignedSlice(0) != nil {
		t.Fatal("AlignedSlice(0) should be nil")
	}
}

func TestStoreShapeAndRows(t *testing.T) {
	s := New(3, 4)
	if s.Len() != 3 || s.Dim() != 4 || len(s.Data()) != 12 {
		t.Fatalf("shape %dx%d data %d", s.Len(), s.Dim(), len(s.Data()))
	}
	s.SetRow(1, []float32{1, 2, 3, 4})
	if got := s.Row(1); got[0] != 1 || got[3] != 4 {
		t.Fatalf("Row(1) = %v", got)
	}
	// Row aliases storage.
	s.Row(1)[0] = 9
	if s.Data()[4] != 9 {
		t.Fatal("Row does not alias store data")
	}
}

func TestWrapSharesAlignedStorage(t *testing.T) {
	// Aligned input (every model weight matrix): zero-copy view.
	data := AlignedSlice(4)
	copy(data, []float32{1, 0, 0, 1})
	s := Wrap(data, 2, 2)
	data[0] = 5
	if s.Row(0)[0] != 5 {
		t.Fatal("Wrap copied an aligned slice instead of sharing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Wrap accepted")
		}
	}()
	Wrap(data, 3, 2)
}

// rowAligned reports whether a store row starts on the cache-line
// boundary AlignedSlice documents.
func rowAligned(v []float32) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(v)))%cacheLine == 0
}

// TestWrapRealignsMisalignedSlice is the regression test for the
// silent alignment drop: Wrap over a slice at an odd offset used to
// produce a store whose base violated the AlignedSlice guarantee.
func TestWrapRealignsMisalignedSlice(t *testing.T) {
	if !rowAligned(New(3, 4).Row(0)) {
		t.Fatal("New store base is not aligned")
	}
	// An offset sub-slice of an aligned buffer is misaligned by
	// construction (one float32 = 4 bytes into a 64-byte line).
	backing := AlignedSlice(13)
	for i := range backing {
		backing[i] = float32(i)
	}
	s := Wrap(backing[1:13], 3, 4)
	if !rowAligned(s.Row(0)) {
		t.Fatal("Wrap over an offset slice left Row(0) misaligned")
	}
	// The copy preserved the data...
	for i := 0; i < 12; i++ {
		if s.Data()[i] != float32(i+1) {
			t.Fatalf("realigned copy corrupted value %d: %v", i, s.Data()[i])
		}
	}
	// ...and detached from the original storage (documented trade-off:
	// alignment for the kernels over aliasing for misaligned inputs).
	backing[1] = -99
	if s.Row(0)[0] == -99 {
		t.Fatal("misaligned Wrap still aliases the input")
	}
}

func TestFromRows64RoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {-0.5, 0.25}}
	s := FromRows64(rows)
	for i, r := range rows {
		for j, x := range r {
			if s.Row(i)[j] != float32(x) {
				t.Fatalf("row %d col %d: %v", i, j, s.Row(i)[j])
			}
		}
	}
	if e := FromRows64(nil); e.Len() != 0 {
		t.Fatal("empty FromRows64")
	}
}

func TestSqNormsCacheAndInvalidate(t *testing.T) {
	s := New(2, 2)
	s.SetRow(0, []float32{3, 4})
	if n := s.SqNorms()[0]; n != 25 {
		t.Fatalf("sqnorm = %v, want 25", n)
	}
	// SetRow keeps the cache coherent.
	s.SetRow(0, []float32{1, 0})
	if n := s.SqNorms()[0]; n != 1 {
		t.Fatalf("sqnorm after SetRow = %v", n)
	}
	// Direct row mutation requires invalidation.
	s.Row(0)[0] = 2
	s.InvalidateNorms()
	if n := s.SqNorms()[0]; n != 4 {
		t.Fatalf("sqnorm after invalidate = %v", n)
	}
}

func TestGather(t *testing.T) {
	s := randStore(5, 3, 1)
	s.SqNorms()
	g := s.Gather([]int{4, 0, 4})
	if g.Len() != 3 {
		t.Fatalf("gathered %d rows", g.Len())
	}
	for j := 0; j < 3; j++ {
		if g.Row(0)[j] != s.Row(4)[j] || g.Row(1)[j] != s.Row(0)[j] {
			t.Fatal("gather copied wrong rows")
		}
	}
	if g.SqNorms()[2] != s.SqNorms()[4] {
		t.Fatal("gather dropped norms")
	}
}

func TestDotAndCosineMatchSeedFormula(t *testing.T) {
	s := randStore(10, 17, 2)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			// Seed formula: one float64 pass computing dot and both
			// norms, then dot / sqrt(na*nb).
			var dot, na, nb float64
			a, b := s.Row(i), s.Row(j)
			for k := range a {
				dot += float64(a[k]) * float64(b[k])
				na += float64(a[k]) * float64(a[k])
				nb += float64(b[k]) * float64(b[k])
			}
			if got := s.Dot(i, j); got != dot {
				t.Fatalf("Dot(%d,%d) = %v, want %v", i, j, got, dot)
			}
			want := dot / math.Sqrt(na*nb)
			if got := s.Cosine(i, j); got != want {
				t.Fatalf("Cosine(%d,%d) = %v, want %v (bit-for-bit)", i, j, got, want)
			}
		}
	}
	// Zero vector convention.
	z := New(2, 3)
	z.SetRow(1, []float32{1, 2, 3})
	if z.Cosine(0, 1) != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

// TestBlockedKernelsBitIdentical: the float64 kernels under the
// blocked scan return the bits of the seed's inline loops (one float64
// accumulator, elements in index order).
func TestBlockedKernelsBitIdentical(t *testing.T) {
	rng := xrand.New(3)
	for _, dim := range []int{1, 3, 8, 31, 128} {
		q, r := make([]float32, dim), make([]float32, dim)
		for i := range q {
			q[i], r[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		var dot, dist float64
		for i := range q {
			dot += float64(q[i]) * float64(r[i])
			d := float64(q[i]) - float64(r[i])
			dist += d * d
		}
		if got := dotF64(q, r); got != dot {
			t.Fatalf("dim %d: dotF64 %v vs seed loop %v", dim, got, dot)
		}
		if got := sqDistF64(q, r); got != dist {
			t.Fatalf("dim %d: sqDistF64 %v vs seed loop %v", dim, got, dist)
		}
	}
}

func TestTopKSelectsBest(t *testing.T) {
	var tk TopK
	tk.Reset(3)
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2, 0.7}
	for i, s := range scores {
		tk.Push(i, s)
	}
	got := tk.Append(nil)
	// Best three: 0.9@1, 0.9@3 (tie to smaller id first), 0.7@5.
	want := []Result{{1, 0.9}, {3, 0.9}, {5, 0.7}}
	if len(got) != 3 {
		t.Fatalf("kept %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Fewer candidates than k.
	tk.Reset(5)
	tk.Push(2, 1)
	if r := tk.Append(nil); len(r) != 1 || r[0].ID != 2 {
		t.Fatalf("partial heap results %+v", r)
	}
	// k = 0 never retains.
	tk.Reset(0)
	tk.Push(0, 1)
	if tk.Len() != 0 {
		t.Fatal("k=0 retained a result")
	}
}

func TestTopKMatchesFullSortProperty(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(10)) // force ties
		}
		var tk TopK
		tk.Reset(k)
		for i, s := range scores {
			tk.Push(i, s)
		}
		got := tk.Append(nil)

		all := make([]Result, n)
		for i, s := range scores {
			all[i] = Result{ID: i, Score: s}
		}
		sortResults(all)
		wantN := k
		if wantN > n {
			wantN = n
		}
		if len(got) != wantN {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if got[i] != all[i] {
				t.Fatalf("trial %d rank %d: %+v vs full sort %+v", trial, i, got[i], all[i])
			}
		}
	}
}
