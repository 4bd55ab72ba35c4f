package vecstore

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"v2v/internal/xrand"
)

// smallCells is the rule under which an exact index cuts every finite
// store of 16 rows or more and keeps the cut whatever its trial
// queries say.
var smallCells = cellRule{floor: 16}

// specialQueries are a NaN, an infinite and a zero query of dim
// elements.
func specialQueries(dim int) [][]float32 {
	nan, inf := make([]float32, dim), make([]float32, dim)
	nan[dim/2], inf[0] = float32(math.NaN()), float32(math.Inf(-1))
	return [][]float32{nan, inf, make([]float32, dim)}
}

// cellStores adds to adversarialStores a clustered store, where cells
// are skipped.
func cellStores(n, dim int, seed uint64) map[string]adversarialStore {
	out := adversarialStores(n, dim, seed)
	s := clusteredStore(n, dim, max(2, n/40), seed)
	out["clustered"] = adversarialStore{s, [][]float32{s.Row(n / 3)}}
	return out
}

// TestCellScanParity: stores cut into cells answer exactly as the seed
// does, for every adversarial store and a clustered one at 40 and 515
// rows in six dims and at 1 500 rows in two, every metric (each with
// its own cut), with and without an excluded row and tombstones, k in
// {1, 10, n+5} (n+5 below 1 000 rows), and NaN, infinite and zero
// queries; then through 300 mixed writes after the cut. The clustered store
// must skip cells, or the test proves nothing.
func TestCellScanParity(t *testing.T) {
	skipped := 0
	for _, n := range []int{40, 515, 1500} {
		for _, dim := range []int{1, 3, 8, 9, 33, 64} {
			if n > 1000 && dim != 9 && dim != 64 {
				continue // the largest stores at two dims: a stride's worth and less
			}
			for kind, e := range cellStores(n, dim, uint64(n+dim)) {
				for _, metric := range []Metric{Cosine, Dot, Euclidean} {
					for _, tombstones := range []bool{false, true} {
						s := e.s.Gather(e.s.LiveIDs()) // a fresh shadow, cut for metric
						newExact(s, metric, 1, smallCells)
						if sh := s.int8Rows(); (sh.cells != nil) != finite(s.Data()) {
							t.Fatalf("n %d dim %d %s %v: cut=%v", n, dim, kind, metric, sh.cells != nil)
						}
						if tombstones {
							for i := 0; i < n; i += 3 {
								if err := s.Delete(i); err != nil {
									t.Fatal(err)
								}
							}
						}
						// k = n+5: the heap never fills, every cell is
						// visited. At 1 500 rows its sorted results
						// would cost more than the rest of the test.
						ks := []int{1, 10, n + 5}
						if n > 1000 {
							ks = ks[:2]
						}
						queries := append(append([][]float32{}, e.qs...), specialQueries(dim)...)
						for qi, q := range queries {
							for _, k := range ks {
								checkScanParity(t, fmt.Sprintf("n %d dim %d %s %v tombstones=%v query %d k=%d", n, dim, kind, metric, tombstones, qi, k), s, metric, q, k, -1)
							}
						}
						for _, i := range []int{1, n / 2, n - 1} {
							for _, k := range ks {
								checkScanParity(t, fmt.Sprintf("n %d dim %d %s %v tombstones=%v row %d k=%d", n, dim, kind, metric, tombstones, i, k), s, metric, s.Row(i), k, i)
							}
							if sh := s.int8Rows(); kind == "clustered" && sh.cells != nil && !tombstones {
								var heap TopK
								heap.Reset(10)
								if c := scan(s, metric, s.Row(i), i, &heap); c.cells < len(sh.cells) {
									skipped++
								}
							}
						}
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no query on a clustered store skipped a cell")
	}

	// Mixed writes on a cut clustered store: SetRow anywhere (far
	// away, onto another row, to zero), Insert, Delete and Append,
	// with the answers checked as they go; then a non-finite write,
	// which puts the shadow back in row order.
	const n, dim = 515, 9
	rng := xrand.New(77)
	vec := func(scale float64) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64() * scale)
		}
		return v
	}
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		s := clusteredStore(n, dim, 12, 79)
		e := newExact(s, metric, 1, smallCells)
		if s.int8Rows().cells == nil {
			t.Fatalf("%v: the store was not cut", metric)
		}
		for w := range 300 {
			switch i := rng.Intn(s.Len()); rng.Intn(6) {
			case 0:
				s.SetRow(i, vec(20))
			case 1:
				s.SetRow(i, append([]float32(nil), s.Row(rng.Intn(s.Len()))...))
			case 2:
				s.SetRow(i, make([]float32, dim))
			case 3:
				if _, err := e.Insert(vec(5)); err != nil {
					t.Fatal(err)
				}
			case 4:
				if !s.Deleted(i) && s.Live() > 20 {
					if err := e.Delete(i); err != nil {
						t.Fatal(err)
					}
				}
			default:
				s.Append(append(vec(5), vec(5)...))
			}
			i := rng.Intn(s.Len())
			checkScanParity(t, fmt.Sprintf("%v after write %d, row %d", metric, w, i), s, metric, s.Row(i), 10, i)
			checkScanParity(t, fmt.Sprintf("%v after write %d, a query", metric, w), s, metric, vec(5), 10, -1)
		}
		bad := vec(1)
		bad[3] = float32(math.Inf(1))
		s.SetRow(7, bad)
		if s.int8Rows().cells != nil {
			t.Fatalf("%v: a non-finite row left the shadow cut", metric)
		}
		for qi, q := range append(specialQueries(dim), s.Row(8), vec(5)) {
			checkScanParity(t, fmt.Sprintf("%v after a non-finite SetRow, query %d", metric, qi), s, metric, q, 10, -1)
		}
	}
}

// TestCellCutDeterministic: the cut depends on the rows and the
// metric, not on how many goroutines build it — the same positions,
// cells, centres and radii, bit for bit, at 1, 2, 3 and 8 workers.
func TestCellCutDeterministic(t *testing.T) {
	src := clusteredStore(3000, 20, 30, 5)
	for _, metric := range []Metric{Cosine, Euclidean} {
		var want *int8Rows
		for _, workers := range []int{1, 2, 3, 8} {
			s := src.Gather(src.LiveIDs())
			newExact(s, metric, workers, smallCells)
			got := s.int8Rows()
			if want == nil {
				want = got
				if len(got.cells) < 10 {
					t.Fatalf("%v: %d cells", metric, len(got.cells))
				}
				continue
			}
			f32bits := func(v []float32) []uint32 {
				out := make([]uint32, len(v))
				for i, x := range v {
					out[i] = math.Float32bits(x)
				}
				return out
			}
			if !slices.Equal(got.ids, want.ids) || !slices.Equal(got.cells, want.cells) || !slices.Equal(f32bits(got.cen), f32bits(want.cen)) || !slices.Equal(f32bits(got.unit), f32bits(want.unit)) {
				t.Fatalf("%v: the cut at %d workers differs from the cut at 1", metric, workers)
			}
		}
	}
}

// checkCellBounds holds every cell of s's cut to its bound for the
// query q: each live row's float64 score is at most B.
func checkCellBounds(t testing.TB, what string, s *Store, metric Metric, q []float32) {
	t.Helper()
	sh := s.int8Rows()
	qn := sqNorm(q)
	nq := math.Sqrt(qn)
	for j, c := range sh.cells {
		b := sh.bound(j, metric, q, qn, nq, 2/nq, dotErrorBound(s.Dim()), cellSlack(s.Dim()))
		if b != b {
			t.Fatalf("%s cell %d: B is NaN", what, j)
		}
		for p := c.lo; p < c.hi; p++ {
			i := int(sh.ids[p])
			if s.Deleted(i) {
				continue
			}
			if S := scoreRow(s, metric, q, qn, i); S > b {
				t.Fatalf("%s cell %d row %d: score %v above the cell's bound %v (ρ=%v ρ̂=%v)", what, j, i, S, b, c.rho, c.rhoU)
			}
		}
	}
}

// TestCellBoundSound: on cut stores — the adversarial ones with finite
// rows, int8BoundStores' extremes (1e±38, subnormals) and ties, and a
// clustered one — every live row's float64 score is at most its cell's
// bound B, for every metric, for queries that are rows, negated and
// scaled rows, and the stores' own; and again after SetRow has moved
// rows across the space and grown their cells.
func TestCellBoundSound(t *testing.T) {
	const n = 200
	for _, dim := range []int{1, 2, 8, 9, 33, 64} {
		stores := int8BoundStores(n, dim, uint64(dim))
		c := clusteredStore(n, dim, 8, uint64(dim))
		stores["clustered"] = adversarialStore{c, [][]float32{c.Row(0)}}
		for kind, e := range stores {
			if !finite(e.s.Data()) {
				continue // never cut
			}
			for _, metric := range []Metric{Cosine, Dot, Euclidean} {
				s := e.s.Gather(e.s.LiveIDs())
				newExact(s, metric, 1, smallCells)
				if s.int8Rows().cells == nil {
					t.Fatalf("dim %d %s %v: the store was not cut", dim, kind, metric)
				}
				queries := func() [][]float32 {
					qs := append([][]float32{}, e.qs...)
					for _, i := range []int{0, n / 2, n - 1} {
						neg, big, small := make([]float32, dim), make([]float32, dim), make([]float32, dim)
						for j, x := range s.Row(i) {
							neg[j], big[j], small[j] = -x, x*1e30, x*1e-30
						}
						qs = append(qs, s.Row(i), neg, big, small)
					}
					return qs
				}
				for qi, q := range queries() {
					checkCellBounds(t, fmt.Sprintf("dim %d %s %v query %d", dim, kind, metric, qi), s, metric, q)
				}
				rng := xrand.New(uint64(dim) + 3)
				for w := range 20 {
					v := make([]float32, dim)
					for j := range v {
						v[j] = float32(rng.NormFloat64() * 100)
					}
					if w%5 == 0 {
						clear(v)
					}
					s.SetRow(rng.Intn(n), v)
				}
				for qi, q := range queries() {
					checkCellBounds(t, fmt.Sprintf("dim %d %s %v after SetRow, query %d", dim, kind, metric, qi), s, metric, q)
				}
			}
		}
	}
}

// FuzzCellScanParity reads a store and a query out of raw float32
// bits, like FuzzScanFilterParity, cuts the store into cells, moves one
// row onto the query, and checks the scan against the seed's answer.
// The seeds include NaN, infinite and zero queries on a cut store.
func FuzzCellScanParity(f *testing.F) {
	for _, dim := range []int{1, 8, 19} {
		stores := cellStores(40, dim, 5)
		for _, q := range specialQueries(dim) {
			stores[fmt.Sprintf("clustered, query %v", q)] = adversarialStore{stores["clustered"].s, [][]float32{q}}
		}
		for _, e := range stores {
			data := rawBytes(e)
			for metric := uint8(0); metric < 3; metric++ {
				f.Add(data, uint8(dim-1), metric, uint8(10), uint8(0), uint16(0), uint8(0))
				f.Add(data, uint8(dim-1), metric, uint8(1), uint8(4), uint16(0b1001), uint8(7))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, dimByte, metricByte, kByte, excludeByte uint8, dead uint16, moved uint8) {
		q, s := rawStore(data, dimByte, 2048)
		if s == nil {
			return
		}
		n, dim := s.Len(), s.Dim()
		metric := Metric(metricByte % 3)
		newExact(s, metric, 1, smallCells)
		if moved != 0 {
			s.SetRow(int(moved)%n, q)
		}
		for i := 0; i < n && i < 16; i++ {
			if dead>>i&1 == 1 {
				if err := s.Delete(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		exclude := int(excludeByte)%(n+1) - 1
		checkScanParity(t, fmt.Sprintf("dim %d n %d %v", dim, n, metric), s, metric, q, int(kByte), exclude)
	})
}
