package vecstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	// that arm the prefilter inside a block and reach stage 1: at dims
	// 1 and 8, then at 9 and 64, one short of a 32-byte int8 stride and
	// exactly two of them.
	for _, dims := range [][]int{{1, 8}, {9, 64}} {
		for _, dim := range dims {
			for _, e := range adversarialStores(2*scanBlock+3, dim, 5) {
				data := rawBytes(e)
				for metric := uint8(0); metric < 3; metric++ {
					f.Add(data, uint8(dim-1), metric, uint8(10), uint8(7), uint16(0b100101))
				}
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
		a := float64(f32.Dot(q, s.Row(i)))
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
			drops, beats := f.drops(a, rn), f.beats(a, rn)
			if drops && beats {
				t.Fatalf("%s row %d τ=%v: drops and beats (a=%v S=%v qn=%v rn=%v)", what, i, tau, a, S, f.qn, rn)
			}
			if drops && !(S < tau) {
				t.Fatalf("%s row %d τ=%v: drops, but S=%v is not below (a=%v qn=%v rn=%v)", what, i, tau, S, a, f.qn, rn)
			}
			if beats && !(S > tau) {
				t.Fatalf("%s row %d τ=%v: beats, but S=%v is not above (a=%v qn=%v rn=%v)", what, i, tau, S, a, f.qn, rn)
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

// int8BoundStores adds to adversarialStores the rows the int8 bound is
// least comfortable on, by name.
func int8BoundStores(n, dim int, seed uint64) map[string]adversarialStore {
	out := adversarialStores(n, dim, seed)
	rng := xrand.New(seed + 1)
	vec := func(scale float64) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32((2*rng.Float64() - 1) * scale)
		}
		return v
	}

	// Magnitudes at float32's ends: 1e±38, and subnormals whose scale
	// is near the smallest a row can have.
	s := New(n, dim)
	scales := []float64{3e38, 1e38, 1e-38, 1e-40, 1e-45, 1}
	for i := 0; i < n; i++ {
		copy(s.Row(i), vec(scales[i%len(scales)]))
	}
	out["extremes"] = adversarialStore{s, [][]float32{vec(3e38), vec(1e-38), vec(1e-44)}}

	// Every element a half-integer and the largest 127, so s_r = 1 and
	// every r/s_r is a rounding tie; the query has the opposite signs,
	// where both error terms of the bound are at their largest.
	s = New(n, dim)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for j := range row {
			row[j] = float32(rng.Intn(254)-127) + 0.5
		}
		row[rng.Intn(dim)] = 127
	}
	q := make([]float32, dim)
	for j, x := range s.Row(0) {
		q[j] = -x
	}
	out["ties"] = adversarialStore{s, [][]float32{q}}
	return out
}

// maxAbs returns max|v[i]| in float64.
func maxAbs(v []float32) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(float64(x)))
	}
	return m
}

// checkInt8Bound holds the int8 bound to what scan.go proves of it,
// for the query q and every row of s: no code is -128; a row or query
// with a NaN or infinite element gets hi = NaN; otherwise
// q·r <= hi + (6·dim + dim²/254)·2^-53·max|q|·max|r|, with q·r summed
// exactly in big.Float, that slack is below 2^-14 of the float32
// bound's g·max|q|·max|r|, and drops on hi implies S < τ for the
// float64 score S of every metric, at thresholds at and around S.
func checkInt8Bound(t testing.TB, what string, s *Store, q []float32) {
	t.Helper()
	sh := newInt8Rows(s, 1)
	b := newInt8Query(q, sh.stride, nil)
	if slices.Contains(b.codes, -128) || slices.Contains(sh.codes, -128) {
		t.Fatalf("%s: a code is -128", what)
	}
	dots := make([]int32, s.Len())
	f32.DotRowsI8(b.codes, sh.codes, dots)
	dim, qn := s.Dim(), sqNorm(q)
	gamma := dotErrorBound(dim)
	const prec = 700 // float32 products span under 600 binary orders
	for i := 0; i < s.Len(); i++ {
		r, rn := s.Row(i), s.SqNorms()[i]
		hi := b.bound(dots[i], sh.scale[i], sh.half[i])
		if !finite(q) || !finite(r) {
			if hi == hi {
				t.Fatalf("%s row %d: hi = %v for a non-finite row or query, want NaN", what, i, hi)
			}
			continue
		}
		m := maxAbs(q) * maxAbs(r)
		slack := (6*float64(dim) + float64(dim*dim)/254) * 0x1p-53 * m
		if slack > gamma/2*m/(1<<14) {
			t.Fatalf("%s row %d: slack %v is not below 2^-14 of g·M = %v", what, i, slack, gamma/2*m)
		}
		exact := new(big.Float).SetPrec(prec)
		for j := range q {
			p := new(big.Float).SetPrec(prec).SetFloat64(float64(q[j]))
			exact.Add(exact, p.Mul(p, big.NewFloat(float64(r[j]))))
		}
		bound := new(big.Float).SetPrec(prec).SetFloat64(hi)
		if bound.Add(bound, big.NewFloat(slack)).Cmp(exact) < 0 {
			t.Fatalf("%s row %d: hi %v + slack %v is below q·r = %v", what, i, hi, slack, exact)
		}
		for _, metric := range []Metric{Cosine, Dot, Euclidean} {
			S := scoreRow(s, metric, q, qn, i)
			unit := 1.0
			switch metric {
			case Dot:
				unit = math.Sqrt(qn * rn)
			case Euclidean:
				unit = qn + rn
			}
			taus := append([]float64{S, math.Nextafter(S, math.Inf(1)), math.Nextafter(S, math.Inf(-1))}, awkwardTaus...)
			for _, k := range []float64{0.25, 0.5, 1, 2, 8} {
				taus = append(taus, S+k*gamma*unit, S-k*gamma*unit)
			}
			for _, tau := range taus {
				f := prefilter{metric: metric, gamma: gamma, qn: qn}
				f.arm(tau)
				if f.drops(hi, rn) && !(S < tau) {
					t.Fatalf("%s row %d %v τ=%v: drops on hi=%v, but S=%v is not below", what, i, metric, tau, hi, S)
				}
			}
		}
	}
}

// TestInt8BoundSound: on the adversarial stores and int8BoundStores'
// extremes and ties, queried with their own rows and queries, the int8
// bound is what scan.go's proof says it is (checkInt8Bound), at dims
// around the 32-byte stride.
func TestInt8BoundSound(t *testing.T) {
	const n = 41
	for _, dim := range []int{1, 2, 7, 8, 9, 31, 32, 33, 64, 65, 128} {
		for kind, e := range int8BoundStores(n, dim, uint64(dim)) {
			queries := append([][]float32{e.s.Row(0), e.s.Row(1), e.s.Row(n / 2), e.s.Row(n - 1), make([]float32, dim)}, e.qs...)
			for qi, q := range queries {
				checkInt8Bound(t, fmt.Sprintf("dim %d %s query %d", dim, kind, qi), e.s, q)
			}
		}
	}
}

// FuzzInt8Bound reads a store and a query out of raw float32 bits,
// like FuzzScanFilterParity, and holds the int8 bound to its proof.
func FuzzInt8Bound(f *testing.F) {
	for _, dim := range []int{1, 8, 33} {
		for _, e := range int8BoundStores(6, dim, 5) {
			f.Add(rawBytes(e), uint8(dim-1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, dimByte uint8) {
		q, s := rawStore(data, dimByte, 64)
		if s == nil {
			return
		}
		checkInt8Bound(t, fmt.Sprintf("dim %d n %d", s.Dim(), s.Len()), s, q)
	})
}

// checkShadowFresh fails unless s has an int8 shadow that holds every
// row, at the row's position, as newInt8Rows quantises it now, and,
// when the shadow is cut, unless every cell's bound holds for queries
// at both ends of the store (checkCellBounds).
func checkShadowFresh(t *testing.T, what string, s *Store) {
	t.Helper()
	got, want := s.i8.Load(), newInt8Rows(s, 1)
	if got == nil {
		t.Fatalf("%s: the store has no int8 shadow", what)
	}
	if got.stride != want.stride || len(got.scale) != s.Len() {
		t.Fatalf("%s: the int8 shadow has %d rows of stride %d, the store %d of stride %d", what, len(got.scale), got.stride, s.Len(), want.stride)
	}
	same := func(x, y float64) bool { return x == y || (x != x && y != y) }
	st := got.stride
	for i := 0; i < s.Len(); i++ {
		p := got.position(i)
		if got.ids != nil && int(got.ids[p]) != i {
			t.Fatalf("%s: row %d is at position %d, which holds row %d", what, i, p, got.ids[p])
		}
		if !slices.Equal(got.codes[p*st:(p+1)*st], want.codes[i*st:(i+1)*st]) || !same(got.scale[p], want.scale[i]) || !same(got.half[p], want.half[i]) || !same(got.norm[p], want.norm[i]) {
			t.Fatalf("%s: the int8 shadow of row %d (position %d) is not the row's", what, i, p)
		}
	}
	if got.cells != nil {
		for _, metric := range []Metric{Cosine, Dot, Euclidean} {
			for _, i := range []int{0, s.Len() - 1} {
				checkCellBounds(t, fmt.Sprintf("%s %v row %d", what, metric, i), s, metric, s.Row(i))
			}
		}
	}
}

// TestInt8ShadowFollowsWrites: every write path keeps the exact scan's
// int8 shadow in step with the rows, in row order and cut into cells,
// and a query whose best answer is the written row gets seedSearch's
// answer. A stale shadow would bound that row by its old values, and
// stage 1 would reject it; a stale cell would be skipped on a bound
// that no longer holds. Cut, the store is clustered, so a SetRow moves
// its row out of its cell's ball; a non-finite SetRow or Append puts
// the shadow back in row order.
func TestInt8ShadowFollowsWrites(t *testing.T) {
	t.Run("rows", func(t *testing.T) { shadowFollowsWrites(t, false) })
	t.Run("cells", func(t *testing.T) {
		withCells(t)
		shadowFollowsWrites(t, true)
	})
}

func shadowFollowsWrites(t *testing.T, cut bool) {
	const n, dim, k = 3*scanBlock + 5, 16, 10
	rng := xrand.New(62)
	fresh := func() []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	check := func(what string, got []Result, s *Store, q []float32, exclude, best int) {
		t.Helper()
		checkShadowFresh(t, what, s)
		if cut != (s.i8.Load().cells != nil) {
			t.Fatalf("%s: cut=%v, want %v", what, !cut, cut)
		}
		want := seedSearch(s, Cosine, q, k, exclude)
		if len(got) != len(want) || (best >= 0 && want[0].ID != best) {
			t.Fatalf("%s: %d results, seedSearch %d, its best %+v (want row %d)", what, len(got), len(want), want[0], best)
		}
		for r := range want {
			if got[r].ID != want[r].ID || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
				t.Fatalf("%s rank %d: %+v, seedSearch %+v", what, r, got[r], want[r])
			}
		}
	}
	store := func(seed uint64) *Store {
		if cut {
			return clusteredStore(n, dim, 24, seed)
		}
		return randStore(n, dim, seed)
	}

	s := store(61)
	e := NewExact(s, Cosine, 1)
	v := fresh()
	id, err := e.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	check("Insert, SearchRow", e.SearchRow(id, k), s, v, id, -1)
	check("Insert, Search", e.Search(v, k), s, v, -1, id)

	w := fresh()
	s.SetRow(n-7, w)
	check("SetRow", e.Search(w, k), s, w, -1, n-7)

	x := fresh()
	first := s.Append(append(fresh(), x...))
	check("Append", e.Search(x, k), s, x, -1, first+1)

	y := fresh()
	copy(s.Row(2*scanBlock+1), y)
	s.InvalidateNorms()
	e = NewExact(s, Cosine, 1)
	check("Row write, InvalidateNorms", e.Search(y, k), s, y, -1, 2*scanBlock+1)

	var ids []int
	for i := 1; i < s.Len(); i += 2 {
		ids = append(ids, i)
	}
	g := s.Gather(ids) // 2*scanBlock+1 is odd: its image is row scanBlock
	if g.i8.Load().cells != nil {
		t.Fatal("Gather kept the cells")
	}
	check("Gather", NewExact(g, Cosine, 1).Search(y, k), g, y, -1, scanBlock)

	// In-process sharded exact: each shard's compaction gathers its
	// live rows into a new store and opens an index over it.
	sh, err := OpenSharded(store(63), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id += 3 {
		if err := sh.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	sh.SetCompactFraction(0.2)
	for sid := range sh.shards {
		if err := sh.compactLoop(sid, OpenMutable, func(time.Duration) {}); err != nil {
			t.Fatal(err)
		}
		if st := sh.ShardStats()[sid]; st.Compactions != 1 {
			t.Fatalf("shard %d: %d compactions, want 1", sid, st.Compactions)
		}
	}
	z := fresh()
	zid, err := sh.Insert(z)
	if err != nil {
		t.Fatal(err)
	}
	for sid, vs := range sh.shards {
		checkShadowFresh(t, fmt.Sprintf("shard %d after compaction and Insert", sid), vs.store)
		if cut != (vs.store.i8.Load().cells != nil) {
			t.Fatalf("shard %d after compaction: cut=%v, want %v", sid, !cut, cut)
		}
	}
	live, globals := sh.GatherLive()
	want := seedSearch(live, Cosine, z, k, -1)
	got := sh.Search(z, k)
	if len(got) != len(want) || globals[want[0].ID] != zid {
		t.Fatalf("sharded: %d results, seedSearch %d, its best row %d (want %d)", len(got), len(want), globals[want[0].ID], zid)
	}
	for r := range want {
		if got[r].ID != globals[want[r].ID] || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
			t.Fatalf("sharded rank %d: %+v, seedSearch row %d score %v", r, got[r], globals[want[r].ID], want[r].Score)
		}
	}

	// Delete and non-finite writes, last: seedSearch scores tombstoned
	// rows and cannot sort NaN scores, so checkScanParity checks them.
	if err := e.Delete(first + 1); err != nil {
		t.Fatal(err)
	}
	checkShadowFresh(t, "Delete", s)
	checkScanParity(t, "Delete", s, Cosine, x, k, -1)
	bad := fresh()
	bad[5] = float32(math.NaN())
	s.SetRow(3, bad)
	checkShadowFresh(t, "non-finite SetRow", s)
	if s.i8.Load().cells != nil {
		t.Fatal("non-finite SetRow: the shadow is still cut")
	}
	checkScanParity(t, "non-finite SetRow", s, Cosine, s.Row(4), k, 4)
	a := store(65)
	NewExact(a, Cosine, 1)
	bad[5] = float32(math.Inf(-1))
	a.Append(append(fresh(), bad...))
	checkShadowFresh(t, "non-finite Append", a)
	if a.i8.Load().cells != nil {
		t.Fatal("non-finite Append: the shadow is still cut")
	}
	checkScanParity(t, "non-finite Append", a, Cosine, a.Row(4), k, 4)
}

// maskEncodings runs check under each int8Mask encoding this machine
// has: the portable loop, and the AVX2 assembly where it runs.
func maskEncodings(check func(name string)) {
	was := maskAVX2
	defer func() { maskAVX2 = was }()
	for _, avx2 := range []bool{false, true} {
		if avx2 && !was {
			continue
		}
		maskAVX2 = avx2
		name := "portable"
		if avx2 {
			name = "avx2"
		}
		check(name)
	}
}

// checkInt8Mask holds int8Mask to the scalar bound: for the armed
// prefilter f and the query b, bit j of the mask over the block's int8
// dots, scales, half L1 norms and squared norms is set exactly when
// f.drops(b.bound(dots[j], scale[j], half[j]), norms[j]) holds. It
// returns the number of bits set.
func checkInt8Mask(t testing.TB, what string, f *prefilter, b *int8Query, dots []int32, scale, half, norms []float64) (dropped int) {
	t.Helper()
	var mask [scanBlock / 64]uint64
	f.int8Mask(b, dots, scale, half, norms, &mask)
	for j := range scanBlock {
		want := j < len(dots) && f.drops(b.bound(dots[j], scale[j], half[j]), norms[j])
		if got := mask[j/64]>>(j%64)&1 == 1; got != want {
			t.Fatalf("%s row %d: mask says drop=%v, the scalar bound says %v (d=%v sr=%v hr=%v rn=%v; sq=%v hq=%v off=%v c=%v qn=%v)",
				what, j, got, want, dots[j], scale[j], half[j], norms[j], b.scale, b.half, f.off, f.c, f.qn)
		}
		if want {
			dropped++
		}
	}
	return dropped
}

// TestRejectMaskMatchesDrops: on every adversarial store, for every
// metric, under each int8Mask encoding, a block's stage-1 mask is drops
// on the int8 bound row by row, at every threshold of awkwardTaus, at
// every seventh row's own score and at the thresholds where drops
// turns, with blocks of every length mod 4.
func TestRejectMaskMatchesDrops(t *testing.T) {
	maskEncodings(func(enc string) {
		dropped, rows := 0, 0
		for _, dim := range []int{1, 3, 8, 9, 64, 67} {
			for kind, e := range adversarialStores(scanBlock+3, dim, uint64(dim)) {
				s := e.s
				sh := newInt8Rows(s, 1)
				norms := s.SqNorms()
				for _, metric := range []Metric{Cosine, Dot, Euclidean} {
					for qi, q := range append([][]float32{s.Row(0), s.Row(scanBlock / 2)}, e.qs...) {
						b := newInt8Query(q, sh.stride, nil)
						dots := make([]int32, s.Len())
						f32.DotRowsI8(b.codes, sh.codes, dots)
						qn := sqNorm(q)
						taus := append([]float64(nil), awkwardTaus...)
						for i := 0; i < s.Len(); i += 7 {
							taus = append(taus, scoreRow(s, metric, q, qn, i))
							hi := b.bound(dots[i], sh.scale[i], sh.half[i])
							// The threshold at which drops turns for row i,
							// and its two neighbours.
							edge := 2*hi - float64((1-dotErrorBound(dim))*(qn+norms[i]))
							if metric != Euclidean {
								edge = hi
							}
							taus = append(taus, edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1)))
						}
						for ti, tau := range taus {
							f := prefilter{metric: metric, gamma: dotErrorBound(dim), qn: qn}
							f.arm(tau)
							if !f.armed {
								continue
							}
							for _, blk := range [][2]int{{0, scanBlock}, {scanBlock, s.Len()}, {5, 6}, {1, 11}, {2, 64 + 7}} {
								lo, hi := blk[0], blk[1]
								what := fmt.Sprintf("%s dim %d %s %v query %d τ#%d=%v rows [%d,%d)", enc, dim, kind, metric, qi, ti, tau, lo, hi)
								dropped += checkInt8Mask(t, what, &f, &b, dots[lo:hi], sh.scale[lo:hi], sh.half[lo:hi], norms[lo:hi])
								rows += hi - lo
							}
						}
					}
				}
			}
		}
		// Both answers must be common for the comparison to mean anything.
		t.Logf("%s: %d of %d rows dropped", enc, dropped, rows)
		if dropped < rows/10 || dropped > rows*9/10 {
			t.Errorf("%s: %d of %d rows dropped: the thresholds no longer split the rows", enc, dropped, rows)
		}
	})
}

// FuzzRejectMask reads a block of int32 dots and float64 scales, half
// L1 norms and squared norms, the query's scale, half L1 norm and
// squared norm, and a threshold out of raw bits, and holds the stage-1
// mask to the scalar bound under each encoding.
func FuzzRejectMask(f *testing.F) {
	row := func(d int32, sr, hr, rn float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(d))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sr))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(hr))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(rn))
	}
	var seed []byte
	for i, d := range []int32{16129, -16129, 5000, 0, math.MaxInt32, math.MinInt32, 1, -3} {
		seed = append(seed, row(d, float64(i+1)/1000, float64(i)/4, float64(i)/4)...)
	}
	seed = append(seed, row(7, math.NaN(), 1, 1)...)
	for metric := uint8(0); metric < 3; metric++ {
		f.Add(seed, metric, uint8(63), math.Float64bits(1), math.Float64bits(0.25), math.Float64bits(0.01), math.Float64bits(50))
		f.Add(seed, metric, uint8(0), math.Float64bits(1e-19), math.Float64bits(-1), math.Float64bits(1e-12), math.Float64bits(0.5))
	}
	f.Fuzz(func(t *testing.T, data []byte, metricByte, dimByte uint8, qnBits, tauBits, sqBits, hqBits uint64) {
		n := min(len(data)/28, scanBlock)
		dots, scale, half, norms := make([]int32, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for j := range n {
			r := data[28*j:]
			dots[j] = int32(binary.LittleEndian.Uint32(r))
			scale[j] = math.Float64frombits(binary.LittleEndian.Uint64(r[4:]))
			half[j] = math.Float64frombits(binary.LittleEndian.Uint64(r[12:]))
			norms[j] = math.Float64frombits(binary.LittleEndian.Uint64(r[20:]))
		}
		p := prefilter{metric: Metric(metricByte % 3), gamma: dotErrorBound(1 + int(dimByte)), qn: math.Float64frombits(qnBits)}
		p.arm(math.Float64frombits(tauBits))
		if !p.armed {
			return
		}
		b := int8Query{scale: math.Float64frombits(sqBits), half: math.Float64frombits(hqBits)}
		maskEncodings(func(enc string) {
			checkInt8Mask(t, fmt.Sprintf("%s %v n %d", enc, p.metric, n), &p, &b, dots, scale, half, norms)
		})
	})
}

// TestScanRescoresSameRows: the int8 kernels' encoding changes no
// answer and no rescored row. scan's result and its count of
// float64-scored rows are the same with the AVX2 stage-1 mask and with
// the portable one, on every adversarial store (tombstones and an
// excluded row included) and on the benchmark's fixture.
func TestScanRescoresSameRows(t *testing.T) {
	if !maskAVX2 {
		t.Skip("no AVX2 stage-1 mask in this build or on this processor")
	}
	defer func() { maskAVX2 = true }()
	scan := func(pass bool, s *Store, metric Metric, q []float32, k, exclude int) ([]Result, int) {
		maskAVX2 = pass
		var heap TopK
		heap.Reset(k)
		rescored := scan(s, metric, q, exclude, &heap).rescored
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
// checked on the way, through SearchRow too.
func TestScanFilterRejectsMostRows(t *testing.T) {
	s := scanFixture()
	n, queries := s.Len(), 32
	if testing.Short() {
		queries = 8
	}
	rng := xrand.New(103)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		idx := NewExact(s, metric, 3)
		rescored := 0
		for i := 0; i < queries; i++ {
			row := rng.Intn(n)
			var heap TopK
			heap.Reset(10)
			rescored += scan(s, metric, s.Row(row), row, &heap).rescored
			want := seedSearch(s, metric, s.Row(row), 10, row)
			for name, got := range map[string][]Result{"scan": heap.Append(nil), "SearchRow": idx.SearchRow(row, 10)} {
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
// time over rows scanned, int8-survivors/query the rows stage 1 left
// for the float32 test, rescored/query the rows that reached the
// float64 kernel. Run with -cpu 1,2 to see what a second core adds.
func BenchmarkScanRange(b *testing.B) {
	s := clusteredStore(20_000, 64, 200, 101) // scanFixture's rows, never cut
	s.SqNorms()
	s.int8Rows()
	n := s.Len()
	var survivors, rescored, next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var heap TopK
		for pb.Next() {
			row := int(next.Add(1)) * 7919 % n
			heap.Reset(10)
			c := scan(s, Cosine, s.Row(row), row, &heap)
			survivors.Add(int64(c.survivors))
			rescored.Add(int64(c.rescored))
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	b.ReportMetric(float64(survivors.Load())/float64(b.N), "int8-survivors/query")
	b.ReportMetric(float64(rescored.Load())/float64(b.N), "rescored/query")
}

// TestScanCounts pins, per metric, what the exact scan does with eight
// fixed queries (four stored rows searched without themselves, four
// points off the store) on a seeded clustered store that NewExact cuts:
// the cells and rows it visits, the rows stage 1 leaves (survivors)
// and those the float64 kernel scores (rescored). TestHNSWBeamCounts'
// twin: a change to how stages 1 and 2 are batched moves these counts
// even where it leaves every answer alone.
func TestScanCounts(t *testing.T) {
	want := map[Metric][8]scanCounts{
		Cosine:    {{2, 98, 98, 35}, {1, 95, 95, 31}, {2, 78, 78, 28}, {1, 98, 98, 26}, {22, 1732, 155, 52}, {20, 1473, 101, 28}, {14, 1105, 93, 33}, {7, 491, 95, 31}},
		Dot:       {{1, 98, 98, 30}, {1, 96, 96, 37}, {2, 78, 72, 26}, {1, 98, 98, 28}, {11, 860, 98, 35}, {14, 1192, 132, 28}, {11, 773, 132, 37}, {3, 308, 96, 33}},
		Euclidean: {{1, 98, 98, 35}, {1, 96, 96, 29}, {2, 78, 78, 25}, {1, 98, 98, 27}, {10, 802, 77, 33}, {9, 687, 116, 33}, {8, 517, 94, 25}, {9, 694, 92, 37}},
	}
	const n, dim = 4000, 64
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		s := clusteredStore(n, dim, 40, 227)
		NewExact(s, metric, 2)
		if len(s.int8Rows().cells) == 0 {
			t.Fatalf("%v: NewExact left the store in row order", metric)
		}
		rng := xrand.New(229)
		var got [8]scanCounts
		for i := range got {
			q, exclude := make([]float32, dim), -1
			if i < 4 {
				exclude = rng.Intn(n)
				copy(q, s.Row(exclude))
			} else {
				for j := range q {
					q[j] = float32(rng.NormFloat64() * 5)
				}
			}
			var heap TopK
			heap.Reset(10)
			got[i] = scan(s, metric, q, exclude, &heap)
		}
		for i, w := range want[metric] {
			if got[i] != w {
				t.Errorf("%v query %d: %+v, want %+v", metric, i, got[i], w)
			}
		}
	}
}
