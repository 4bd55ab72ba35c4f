package vecstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"v2v/internal/f32"
	"v2v/internal/xrand"
)

// checkScanParity runs one exact query through the filtered scan and
// holds it, ID and score bits at every rank, to the seed's answer:
// every live row scored by seedSearch's float64 loops, then (a) offered
// to a TopK in row order, which is the scan without its prefilter and
// is defined even when scores are NaN, and (b) sorted, when none is.
func checkScanParity(t testing.TB, what string, s *Store, metric Metric, q []float32, k, exclude int) {
	t.Helper()
	got := NewExact(s, metric, 1).search(q, k, exclude, nil)

	all := seedSearch(s, metric, q, s.Len(), exclude)
	scores := make([]float64, s.Len())
	anyNaN := false
	for _, r := range all {
		scores[r.ID] = r.Score
		anyNaN = anyNaN || r.Score != r.Score
	}
	var heap TopK
	heap.Reset(clampK(max(k, 0), s.Len()))
	for i := 0; i < s.Len(); i++ {
		if i != exclude && !s.Deleted(i) {
			heap.Push(i, scores[i])
		}
	}
	refs := map[string][]Result{"unfiltered heap": heap.Append(nil)}
	if !anyNaN {
		var sorted []Result
		for _, r := range all {
			if !s.Deleted(r.ID) && len(sorted) < k {
				sorted = append(sorted, r)
			}
		}
		refs["full sort"] = sorted
	}
	for name, want := range refs {
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, %s has %d", what, len(got), name, len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%s rank %d: %+v, %s has %+v", what, i, got[i], name, want[i])
			}
		}
	}
}

// adversarialStore is a store and the queries that go with it.
type adversarialStore struct {
	s  *Store
	qs [][]float32
}

// adversarialStores builds, for one dimension, the stores the
// prefilter's bound is least comfortable on, by name. The tests also
// query every store with its own rows.
func adversarialStores(n, dim int, seed uint64) map[string]adversarialStore {
	rng := xrand.New(seed)
	vec := func(scale float64) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64() * scale)
		}
		return v
	}
	scaled := func(v []float32, by float32) []float32 {
		out := make([]float32, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	out := map[string]adversarialStore{}

	// Neighbours one float32 ulp apart in one component.
	base := vec(1)
	s := New(n, dim)
	for i := 0; i < n; i++ {
		copy(s.Row(i), base)
		j := i % dim
		for step := 0; step < 1+i/dim; step++ {
			s.Row(i)[j] = math.Nextafter32(s.Row(i)[j], float32(math.Inf(1)))
		}
	}
	out["last bit"] = adversarialStore{s, [][]float32{base, vec(1)}}

	// Three distinct rows, repeated: ties go to the smaller ID.
	s = New(n, dim)
	distinct := [][]float32{vec(1), vec(1), vec(1)}
	for i := 0; i < n; i++ {
		copy(s.Row(i), distinct[rng.Intn(3)])
	}
	out["duplicates"] = adversarialStore{s, [][]float32{distinct[0], vec(1)}}

	// Magnitudes whose float32 products overflow or underflow while
	// the float64 ones do not.
	s = New(n, dim)
	scales := []float32{1e18, 1e19, 1e-18, 1e-23, 1, 1e38}
	for i := 0; i < n; i++ {
		copy(s.Row(i), scaled(vec(1), scales[rng.Intn(len(scales))]))
	}
	q := vec(1)
	out["scaled"] = adversarialStore{s, [][]float32{q, scaled(q, 1e18), scaled(q, 1e-18), scaled(q, 1e-30), scaled(q, 1e20)}}

	// Zero rows among ordinary ones, an anchor the rest cluster around,
	// and queries that make every score negative, or zero.
	anchor := vec(5)
	s = New(n, dim)
	for i := 0; i < n; i++ {
		if i%4 != 1 {
			noise := vec(0.5)
			for j := range noise {
				s.Row(i)[j] = anchor[j] + noise[j]
			}
		}
	}
	out["zeros and negatives"] = adversarialStore{s, [][]float32{anchor, scaled(anchor, -1), make([]float32, dim)}}

	// NaN and infinite components, in rows and in queries.
	s = New(n, dim)
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < n; i++ {
		copy(s.Row(i), vec(1))
		if i%5 == 2 {
			s.Row(i)[rng.Intn(dim)] = bad[rng.Intn(3)]
		}
	}
	qNaN, qInf := vec(1), vec(1)
	qNaN[rng.Intn(dim)], qInf[rng.Intn(dim)] = bad[0], bad[1]
	out["non-finite"] = adversarialStore{s, [][]float32{vec(1), qNaN, qInf}}
	return out
}

// TestScanFilterParity: on every adversarial store, for every metric,
// dimension, k, with and without an excluded row and tombstones, the
// filtered scan answers exactly as the seed does.
func TestScanFilterParity(t *testing.T) {
	dims := []int{100, 128}
	for d := 1; d <= 67; d++ {
		dims = append(dims, d)
	}
	for _, dim := range dims {
		n := 41
		switch dim {
		case 1, 7, 8, 9, 64, 100: // and across the scan's block boundary
			n = 2*scanBlock + 3
		}
		for kind, e := range adversarialStores(n, dim, uint64(dim)) {
			for _, tombstones := range []bool{false, true} {
				s := e.s
				if tombstones {
					s = s.Gather(s.LiveIDs())
					for i := 0; i < n; i += 3 {
						if err := s.Delete(i); err != nil {
							t.Fatal(err)
						}
					}
				}
				type query struct {
					q       []float32
					exclude int
				}
				var queries []query
				for _, q := range e.qs {
					queries = append(queries, query{q, -1})
				}
				for _, i := range []int{0, 1, n / 2, n - 1} {
					queries = append(queries, query{s.Row(i), -1}, query{s.Row(i), i})
				}
				for _, metric := range []Metric{Cosine, Dot, Euclidean} {
					for qi, qu := range queries {
						for _, k := range []int{1, 10, n, n + 5} {
							what := fmt.Sprintf("dim %d %s tombstones=%v %v query %d exclude %d k=%d", dim, kind, tombstones, metric, qi, qu.exclude, k)
							checkScanParity(t, what, s, metric, qu.q, k, qu.exclude)
						}
					}
				}
			}
		}
	}
}

// rawBytes is the fuzz seed for one adversarial store: its last query,
// then its rows, as little-endian float32 bits.
func rawBytes(e adversarialStore) []byte {
	var data []byte
	for _, x := range append(append([]float32(nil), e.qs[len(e.qs)-1]...), e.s.Data()...) {
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(x))
	}
	return data
}

// rawStore reads a query and a store of at most maxRows rows, dimension
// 1-67, out of raw float32 bits, so the fuzz engine reaches NaNs,
// infinities, subnormals and near-overflow magnitudes on its own. The
// store is nil when data holds no row.
func rawStore(data []byte, dimByte uint8, maxRows int) (q []float32, s *Store) {
	dim := 1 + int(dimByte)%67
	floats := make([]float32, len(data)/4)
	for i := range floats {
		floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	n := min(len(floats)/dim-1, maxRows)
	if n < 1 {
		return nil, nil
	}
	s = New(n, dim)
	copy(s.Data(), floats[dim:])
	return floats[:dim], s
}

// FuzzScanFilterParity reads a store and a query out of raw float32
// bits, so the engine reaches NaNs, infinities, subnormals and
// near-overflow magnitudes on its own, and checks the same parity.
func FuzzScanFilterParity(f *testing.F) {
	for _, dim := range []int{1, 8, 19} {
		for _, e := range adversarialStores(12, dim, 5) {
			data := rawBytes(e)
			f.Add(data, uint8(dim-1), uint8(0), uint8(3), uint8(0), uint16(0))
			f.Add(data, uint8(dim-1), uint8(1), uint8(1), uint8(4), uint16(0b1001))
			f.Add(data, uint8(dim-1), uint8(2), uint8(200), uint8(0), uint16(0b10))
		}
	}
	// Stores past two full blocks, so the engine starts from inputs
	// that arm the prefilter inside a block and reach the reject pass.
	for _, dim := range []int{1, 8} {
		for _, e := range adversarialStores(2*scanBlock+3, dim, 5) {
			data := rawBytes(e)
			for metric := uint8(0); metric < 3; metric++ {
				f.Add(data, uint8(dim-1), metric, uint8(10), uint8(7), uint16(0b100101))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, dimByte, metricByte, kByte, excludeByte uint8, dead uint16) {
		q, s := rawStore(data, dimByte, math.MaxInt)
		if s == nil {
			return
		}
		n, dim := s.Len(), s.Dim()
		for i := 0; i < n && i < 16; i++ {
			if dead>>i&1 == 1 {
				if err := s.Delete(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		metric := Metric(metricByte % 3)
		exclude := int(excludeByte)%(n+1) - 1
		checkScanParity(t, fmt.Sprintf("dim %d n %d %v", dim, n, metric), s, metric, q, int(kByte), exclude)
	})
}

// checkPrefilterSides holds the prefilter's two tests to the score the
// float64 kernel returns: for the query q, every row of s and every
// threshold in taus (plus, per row, thresholds within a few error
// bounds of its own score, where the tests must start to abstain),
// drops implies S < τ, beats implies S > τ, and never both.
func checkPrefilterSides(t testing.TB, what string, s *Store, metric Metric, q []float32, taus []float64) {
	t.Helper()
	f := prefilter{metric: metric, gamma: dotErrorBound(s.Dim()), qn: sqNorm(q)}
	for i := 0; i < s.Len(); i++ {
		rn := s.SqNorms()[i]
		a32 := f32.Dot(q, s.Row(i))
		S := scoreRow(s, metric, q, f.qn, i)
		// The bound in the score's units: 1 for a cosine, ‖q‖‖r‖ for a
		// dot, qn+rn for a squared distance.
		unit := 1.0
		switch metric {
		case Dot:
			unit = math.Sqrt(f.qn * rn)
		case Euclidean:
			unit = f.qn + rn
		}
		near := []float64{S, math.Nextafter(S, math.Inf(1)), math.Nextafter(S, math.Inf(-1))}
		for _, k := range []float64{0.25, 0.5, 1, 2, 8} {
			near = append(near, S+k*f.gamma*unit, S-k*f.gamma*unit)
		}
		for _, tau := range append(near, taus...) {
			f.arm(tau)
			drops, beats := f.drops(a32, rn), f.beats(a32, rn)
			if drops && beats {
				t.Fatalf("%s row %d τ=%v: drops and beats (a=%v S=%v qn=%v rn=%v)", what, i, tau, a32, S, f.qn, rn)
			}
			if drops && !(S < tau) {
				t.Fatalf("%s row %d τ=%v: drops, but S=%v is not below (a=%v qn=%v rn=%v)", what, i, tau, S, a32, f.qn, rn)
			}
			if beats && !(S > tau) {
				t.Fatalf("%s row %d τ=%v: beats, but S=%v is not above (a=%v qn=%v rn=%v)", what, i, tau, S, a32, f.qn, rn)
			}
		}
	}
}

// awkwardTaus are thresholds no score need be near.
var awkwardTaus = []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// TestPrefilterSides: on every adversarial store, for every metric and
// dimension, with every other row's score as the threshold — which is
// how HNSW's neighbour selection arms it — neither test claims what
// the float64 score denies.
func TestPrefilterSides(t *testing.T) {
	const n = 41
	for _, dim := range []int{1, 2, 3, 7, 8, 9, 31, 50, 64, 67, 128} {
		for kind, e := range adversarialStores(n, dim, uint64(dim)) {
			for _, metric := range []Metric{Cosine, Dot, Euclidean} {
				queries := append([][]float32{e.s.Row(0), e.s.Row(1), e.s.Row(n / 2), e.s.Row(n - 1)}, e.qs...)
				for qi, q := range queries {
					taus := append([]float64(nil), awkwardTaus...)
					for i := 0; i < n; i++ {
						taus = append(taus, scoreRow(e.s, metric, q, sqNorm(q), i))
					}
					checkPrefilterSides(t, fmt.Sprintf("dim %d %s %v query %d", dim, kind, metric, qi), e.s, metric, q, taus)
				}
			}
		}
	}
}

// FuzzPrefilterSides reads the store, the query and one threshold out
// of raw bits, like FuzzScanFilterParity.
func FuzzPrefilterSides(f *testing.F) {
	for _, dim := range []int{1, 8, 19} {
		for _, e := range adversarialStores(12, dim, 5) {
			data := rawBytes(e)
			for metric := uint8(0); metric < 3; metric++ {
				f.Add(data, uint8(dim-1), metric, math.Float64bits(0.5))
				f.Add(data, uint8(dim-1), metric, math.Float64bits(math.NaN()))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, dimByte, metricByte uint8, tauBits uint64) {
		q, s := rawStore(data, dimByte, math.MaxInt)
		if s == nil {
			return
		}
		n, dim := s.Len(), s.Dim()
		metric := Metric(metricByte % 3)
		taus := []float64{math.Float64frombits(tauBits)}
		for i := 0; i < n && i < 8; i++ {
			taus = append(taus, scoreRow(s, metric, q, sqNorm(q), i))
		}
		checkPrefilterSides(t, fmt.Sprintf("dim %d n %d %v", dim, n, metric), s, metric, q, taus)
	})
}

// checkDropMask holds dropMask to drops: for the prefilter f, armed or
// not, bit j of the mask over dots and norms is set exactly when
// f.drops(dots[j], norms[j]) holds. It returns the number of bits set.
func checkDropMask(t testing.TB, what string, f *prefilter, dots []float32, norms []float64) (dropped int) {
	t.Helper()
	var mask [scanBlock / 64]uint64
	f.dropMask(dots, norms, &mask)
	for j := range scanBlock {
		want := j < len(dots) && f.drops(dots[j], norms[j])
		if got := mask[j/64]>>(j%64)&1 == 1; got != want {
			a, rn := float32(0), 0.0
			if j < len(dots) {
				a, rn = dots[j], norms[j]
			}
			t.Fatalf("%s row %d: mask says drop=%v, drops says %v (a=%v rn=%v armed=%v off=%v c=%v qn=%v)", what, j, got, want, a, rn, f.armed, f.off, f.c, f.qn)
		}
		if want {
			dropped++
		}
	}
	return dropped
}

// TestRejectMaskMatchesDrops: on every adversarial store, for every
// metric, a block's reject mask is drops row by row, at every
// threshold of awkwardTaus and at every row's own score, with blocks
// of every length mod 4.
func TestRejectMaskMatchesDrops(t *testing.T) {
	if !blockReject {
		t.Skip("no reject pass in this build or on this processor")
	}
	dropped, rows := 0, 0
	for _, dim := range []int{1, 3, 8, 9, 64, 67} {
		for kind, e := range adversarialStores(scanBlock+3, dim, uint64(dim)) {
			s := e.s
			for _, metric := range []Metric{Cosine, Dot, Euclidean} {
				for qi, q := range append([][]float32{s.Row(0), s.Row(scanBlock / 2)}, e.qs...) {
					dots := make([]float32, s.Len())
					f32.DotRows(q, s.Data(), dots)
					taus := append([]float64(nil), awkwardTaus...)
					for i := 0; i < s.Len(); i += 7 {
						taus = append(taus, scoreRow(s, metric, q, sqNorm(q), i))
						if metric == Euclidean {
							// The threshold at which drops turns for row
							// i, and its two neighbours.
							edge := 2*float64(dots[i]) - float64((1-dotErrorBound(dim))*(sqNorm(q)+s.SqNorms()[i]))
							taus = append(taus, edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1)))
						}
					}
					for ti, tau := range taus {
						f := prefilter{metric: metric, gamma: dotErrorBound(dim), qn: sqNorm(q)}
						f.arm(tau)
						for _, blk := range [][2]int{{0, scanBlock}, {scanBlock, s.Len()}, {5, 6}, {1, 11}, {2, 64 + 7}} {
							what := fmt.Sprintf("dim %d %s %v query %d τ#%d=%v rows [%d,%d)", dim, kind, metric, qi, ti, tau, blk[0], blk[1])
							dropped += checkDropMask(t, what, &f, dots[blk[0]:blk[1]], s.SqNorms()[blk[0]:blk[1]])
							rows += blk[1] - blk[0]
						}
					}
				}
			}
		}
	}
	// Both answers must be common for the comparison to mean anything.
	t.Logf("%d of %d rows dropped", dropped, rows)
	if dropped < rows/10 || dropped > rows*9/10 {
		t.Errorf("%d of %d rows dropped: the thresholds no longer split the rows", dropped, rows)
	}
}

// FuzzRejectMask reads a block of float32 dots and float64 squared
// norms, the query's squared norm and a threshold out of raw bits.
func FuzzRejectMask(f *testing.F) {
	row := func(a float32, rn float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, math.Float32bits(a))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(rn))
	}
	var seed []byte
	for i, a := range []float32{0.5, -0.5, 1, 0, float32(math.Inf(1)), float32(math.NaN()), 1e-30, -3} {
		seed = append(seed, row(a, float64(i)/4)...)
	}
	for metric := uint8(0); metric < 3; metric++ {
		f.Add(seed, metric, uint8(63), math.Float64bits(1), math.Float64bits(0.25))
		f.Add(seed, metric, uint8(0), math.Float64bits(1e-19), math.Float64bits(-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, metricByte, dimByte uint8, qnBits, tauBits uint64) {
		n := min(len(data)/12, scanBlock)
		dots, norms := make([]float32, n), make([]float64, n)
		for j := range n {
			dots[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[12*j:]))
			norms[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[12*j+4:]))
		}
		p := prefilter{metric: Metric(metricByte % 3), gamma: dotErrorBound(1 + int(dimByte)), qn: math.Float64frombits(qnBits)}
		p.arm(math.Float64frombits(tauBits))
		if !blockReject {
			t.Skip("no reject pass in this build or on this processor")
		}
		checkDropMask(t, fmt.Sprintf("%v n %d", p.metric, n), &p, dots, norms)
	})
}

// TestScanRescoresSameRows: the reject pass changes no answer and no
// rescored row. scanRange's result and its count of float64-scored
// rows are the same with the pass on and off, on every adversarial
// store (tombstones and an excluded row included) and on the
// benchmark's fixture.
func TestScanRescoresSameRows(t *testing.T) {
	if !blockReject {
		t.Skip("no reject pass in this build or on this processor")
	}
	defer func() { blockReject = true }()
	scan := func(pass bool, s *Store, metric Metric, q []float32, k, exclude int) ([]Result, int) {
		blockReject = pass
		var heap TopK
		heap.Reset(k)
		rescored := scanRange(s, metric, q, 0, s.Len(), exclude, &heap)
		return heap.Append(nil), rescored
	}
	check := func(what string, s *Store, metric Metric, q []float32, k, exclude int) {
		t.Helper()
		got, gotN := scan(true, s, metric, q, k, exclude)
		want, wantN := scan(false, s, metric, q, k, exclude)
		if gotN != wantN || len(got) != len(want) {
			t.Fatalf("%s: %d results from %d rescored rows, %d from %d without the pass", what, len(got), gotN, len(want), wantN)
		}
		for r := range want {
			if got[r].ID != want[r].ID || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
				t.Fatalf("%s rank %d: %+v, %+v without the pass", what, r, got[r], want[r])
			}
		}
	}
	n := 2*scanBlock + 3
	for _, dim := range []int{1, 8, 9, 64} {
		for kind, e := range adversarialStores(n, dim, uint64(dim)) {
			for _, tombstones := range []bool{false, true} {
				s := e.s
				if tombstones {
					s = s.Gather(s.LiveIDs())
					for i := 0; i < n; i += 3 {
						if err := s.Delete(i); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, metric := range []Metric{Cosine, Dot, Euclidean} {
					for qi, q := range append([][]float32{s.Row(1), s.Row(n / 2)}, e.qs...) {
						for _, exclude := range []int{-1, 1, n / 2} {
							for _, k := range []int{1, 10, 300} {
								check(fmt.Sprintf("dim %d %s tombstones=%v %v query %d exclude %d k=%d", dim, kind, tombstones, metric, qi, exclude, k), s, metric, q, k, exclude)
							}
						}
					}
				}
			}
		}
	}
	s := scanFixture()
	rng := xrand.New(107)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		for range 8 {
			row := rng.Intn(s.Len())
			check(fmt.Sprintf("fixture %v row %d", metric, row), s, metric, s.Row(row), 10, row)
		}
	}
}

// scanFixture is the shape of the repository benchmark's serve_exact
// store: 20 000 points of dim 64 around 200 anchors.
var scanFixture = sync.OnceValue(func() *Store { return clusteredStore(20_000, 64, 200, 101) })

// TestScanFilterRejectsMostRows holds the prefilter to its purpose: on
// the benchmark's fixture fewer than 2% of rows may reach the float64
// kernel, for every metric, so a bound that degrades to "rescore
// everything" fails here and not only in a benchmark. The answers are
// checked on the way, through the partitioned scan too.
func TestScanFilterRejectsMostRows(t *testing.T) {
	s := scanFixture()
	n, queries := s.Len(), 32
	if testing.Short() {
		queries = 8
	}
	rng := xrand.New(103)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		parallel := NewExact(s, metric, 3)
		rescored := 0
		for i := 0; i < queries; i++ {
			row := rng.Intn(n)
			var heap TopK
			heap.Reset(10)
			rescored += scanRange(s, metric, s.Row(row), 0, n, row, &heap)
			want := seedSearch(s, metric, s.Row(row), 10, row)
			for name, got := range map[string][]Result{"scanRange": heap.Append(nil), "SearchRow": parallel.SearchRow(row, 10)} {
				for r := range want {
					if got[r] != want[r] {
						t.Fatalf("%v row %d rank %d: %s has %+v, seed %+v", metric, row, r, name, got[r], want[r])
					}
				}
			}
		}
		share := float64(rescored) / float64(queries*n)
		t.Logf("%v: %.1f of %d rows per query reach the float64 kernel (%.2f%%)", metric, float64(rescored)/float64(queries), n, 100*share)
		if share >= 0.02 {
			t.Errorf("%v: %.2f%% of rows reach the float64 kernel, want < 2%%", metric, 100*share)
		}
	}
}

// BenchmarkScanRange is one cosine top-10 scan of the whole fixture
// per op and per goroutine, GOMAXPROCS of them at once: ns/row is wall
// time over rows scanned, rescored/query the rows that reached the
// float64 kernel. Run with -cpu 1,2 to see what a second core adds.
func BenchmarkScanRange(b *testing.B) {
	s := scanFixture()
	s.SqNorms()
	n := s.Len()
	var rescored, next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var heap TopK
		for pb.Next() {
			row := int(next.Add(1)) * 7919 % n
			heap.Reset(10)
			rescored.Add(int64(scanRange(s, Cosine, s.Row(row), 0, n, row, &heap)))
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	b.ReportMetric(float64(rescored.Load())/float64(b.N), "rescored/query")
}
