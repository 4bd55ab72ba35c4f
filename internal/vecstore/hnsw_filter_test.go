package vecstore

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"v2v/internal/xrand"
)

// The HNSW prefilter may only reject candidates the float64 comparison
// would reject, so an index with the real bound and one whose bound is
// +Inf (nothing is ever rejected: every candidate reaches the float64
// kernel, which is the index as it was before the filter) must be the
// same graph and give the same answers, bit for bit.

// filterCfg keeps the beams narrower than the test stores, so that
// they fill and the filter arms during builds and queries alike.
var filterCfg = HNSWConfig{M: 6, EfConstruction: 24, EfSearch: 16, Seed: 17}

// tightCfg caps lists at 4 links (2 above level 0), so that nearly
// every insert pushes a neighbour's list over its cap and the graph is
// mostly shrink's work: re-scored four rows at a time, re-selected in
// float32.
var tightCfg = HNSWConfig{M: 2, EfConstruction: 12, EfSearch: 16, Seed: 17}

// unfilteredHNSW builds the reference: the rows of s inserted one by
// one, in order, into an index over an empty store whose bound was
// forced to +Inf first. Insert continues the build's level stream, so
// this is NewHNSW's graph when nothing depends on the filter.
func unfilteredHNSW(t testing.TB, s *Store, metric Metric, cfg HNSWConfig) *HNSW {
	t.Helper()
	h, err := NewHNSW(New(0, s.Dim()), metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.gamma = math.Inf(1)
	for i := 0; i < s.Len(); i++ {
		if _, err := h.Insert(s.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// filteredHNSW batch-builds the first built rows of s with the real
// bound and inserts the rest.
func filteredHNSW(t testing.TB, s *Store, metric Metric, cfg HNSWConfig, built int) *HNSW {
	t.Helper()
	ids := make([]int, built)
	for i := range ids {
		ids[i] = i
	}
	h, err := NewHNSW(s.Gather(ids), metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := built; i < s.Len(); i++ {
		if _, err := h.Insert(s.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func checkSameGraph(t testing.TB, what string, got, want *HNSW) {
	t.Helper()
	g, w := got.Graph(), want.Graph()
	if g.Entry != w.Entry || got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("%s: entry %d at level %d, unfiltered has %d at %d", what, g.Entry, got.MaxLevel(), w.Entry, want.MaxLevel())
	}
	for i := range w.Friends {
		if !reflect.DeepEqual(g.Friends[i], w.Friends[i]) {
			t.Fatalf("%s: node %d links %v, unfiltered has %v", what, i, g.Friends[i], w.Friends[i])
		}
	}
}

func checkSameResults(t testing.TB, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, unfiltered has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: %+v, unfiltered has %+v", what, i, got[i], want[i])
		}
	}
}

// TestHNSWFilterParity: on scan_test.go's adversarial stores, for
// every metric, at both configurations, batch-built or grown by
// Insert, with and without tombstones, the filtered index has the
// unfiltered one's adjacency at every node and level and its IDs and
// score bits at every rank.
func TestHNSWFilterParity(t *testing.T) {
	for name, cfg := range map[string]HNSWConfig{"M=6": filterCfg, "M=2": tightCfg} {
		t.Run(name, func(t *testing.T) { testHNSWFilterParity(t, cfg) })
	}
}

func testHNSWFilterParity(t *testing.T, cfg HNSWConfig) {
	const n = 150
	for _, dim := range []int{1, 7, 50, 64, 67, 128} {
		for kind, e := range adversarialStores(n, dim, uint64(dim)) {
			for _, metric := range []Metric{Cosine, Dot, Euclidean} {
				want := unfilteredHNSW(t, e.s, metric, cfg)
				for _, built := range []int{n, 2 * n / 3} {
					what := fmt.Sprintf("dim %d %s %v built=%d", dim, kind, metric, built)
					got := filteredHNSW(t, e.s, metric, cfg, built)
					checkSameGraph(t, what, got, want)
					for _, tombstones := range []bool{false, true} {
						if tombstones {
							for i := 0; i < n; i += 3 {
								if got.Delete(i) != nil || want.Delete(i) != nil {
									t.Fatalf("%s: Delete(%d) failed", what, i)
								}
							}
						}
						for _, k := range []int{1, 10, n} {
							for qi, q := range e.qs {
								checkSameResults(t, fmt.Sprintf("%s tombstones=%v query %d k=%d", what, tombstones, qi, k),
									got.Search(q, k), want.Search(q, k))
							}
							for _, i := range []int{0, 1, n / 2, n - 1} {
								checkSameResults(t, fmt.Sprintf("%s tombstones=%v row %d k=%d", what, tombstones, i, k),
									got.SearchRow(i, k), want.SearchRow(i, k))
							}
						}
					}
					// Tombstones are per index; the next round deletes
					// want's rows again, which Delete refuses, so rebuild.
					want = unfilteredHNSW(t, e.s, metric, cfg)
				}
			}
		}
	}
}

// FuzzHNSWFilterParity reads the store and the query out of raw
// float32 bits, like FuzzScanFilterParity, and holds a small filtered
// index to the unfiltered one.
func FuzzHNSWFilterParity(f *testing.F) {
	for _, dim := range []int{1, 8, 19} {
		for _, e := range adversarialStores(24, dim, 5) {
			data := rawBytes(e)
			f.Add(data, uint8(dim-1), uint8(0), uint8(3), uint16(0))
			f.Add(data, uint8(dim-1), uint8(1), uint8(1), uint16(0b1001))
			f.Add(data, uint8(dim-1), uint8(2), uint8(200), uint16(0b10))
		}
	}
	cfg := HNSWConfig{M: 3, EfConstruction: 6, EfSearch: 4, Seed: 17}
	f.Fuzz(func(t *testing.T, data []byte, dimByte, metricByte, kByte uint8, dead uint16) {
		q, s := rawStore(data, dimByte, 64)
		if s == nil {
			return
		}
		n, dim := s.Len(), s.Dim()
		metric := Metric(metricByte % 3)
		what := fmt.Sprintf("dim %d n %d %v", dim, n, metric)
		got, want := filteredHNSW(t, s, metric, cfg, n-n/4), unfilteredHNSW(t, s, metric, cfg)
		checkSameGraph(t, what, got, want)
		for i := 0; i < n && i < 16; i++ {
			if dead>>i&1 == 1 && (got.Delete(i) != nil || want.Delete(i) != nil) {
				t.Fatalf("%s: Delete(%d) failed", what, i)
			}
		}
		checkSameResults(t, what, got.Search(q, int(kByte)), want.Search(q, int(kByte)))
		row := int(kByte) % n
		checkSameResults(t, what+" by row", got.SearchRow(row, 1+int(kByte)%8), want.SearchRow(row, 1+int(kByte)%8))
	})
}

// unfilteredWaves is unfilteredHNSW for a store past serialRows: NewHNSW's
// wave build of s, in an index whose bound was forced to +Inf before
// the first row was linked.
func unfilteredWaves(t testing.TB, s *Store, metric Metric, cfg HNSWConfig) *HNSW {
	t.Helper()
	h, err := NewHNSW(New(0, s.Dim()), metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.gamma = math.Inf(1)
	h.s.Append(s.Data())
	h.grow(s.Len())
	h.build(0, s.Len())
	return h
}

// TestHNSWWaveFilterParity is TestHNSWFilterParity for stores large
// enough that NewHNSW links rows in waves of several: on scan_test.go's
// adversarial stores, for every metric, at both configurations, the
// filtered wave build has the unfiltered one's adjacency and answers.
func TestHNSWWaveFilterParity(t *testing.T) {
	n := serialRows + 10*waveSize(serialRows) + 5 // ten waves of several, the last cut short
	for name, cfg := range map[string]HNSWConfig{"M=6": filterCfg, "M=2": tightCfg} {
		for _, dim := range []int{1, 7, 64, 67} {
			for kind, e := range adversarialStores(n, dim, uint64(dim)) {
				for _, metric := range []Metric{Cosine, Dot, Euclidean} {
					what := fmt.Sprintf("%s dim %d %s %v", name, dim, kind, metric)
					got, err := NewHNSW(e.s, metric, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := unfilteredWaves(t, e.s, metric, cfg)
					checkSameGraph(t, what, got, want)
					for qi, q := range e.qs {
						checkSameResults(t, fmt.Sprintf("%s query %d", what, qi), got.Search(q, 10), want.Search(q, 10))
					}
					for _, i := range []int{0, n / 2, n - 1} {
						checkSameResults(t, fmt.Sprintf("%s row %d", what, i), got.SearchRow(i, 10), want.SearchRow(i, 10))
					}
				}
			}
		}
	}
}

// TestHNSWFilterRejectsCandidates holds the filter to its purpose: on
// a clustered store at the default beam widths at least 30% of the
// candidates a query considers are dropped on the float32 pass, so a
// bound that degrades to "score everything" fails here and not only in
// a benchmark.
func TestHNSWFilterRejectsCandidates(t *testing.T) {
	const n = 2000
	s := clusteredStore(n, 64, 20, 101)
	rng := xrand.New(103)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		h, err := NewHNSW(s, metric, HNSWConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		const queries = 64
		sc := h.newScratch()
		for i := 0; i < queries; i++ {
			row := rng.Intn(n)
			h.search(s.Row(row), 10, row, nil, sc)
		}
		share := float64(sc.rejected) / float64(sc.evals)
		t.Logf("%v: %.0f candidates per query, %.1f%% rejected in float32", metric, float64(sc.evals)/queries, 100*share)
		if share < 0.30 {
			t.Errorf("%v: %.1f%% of candidates rejected in float32, want >= 30%%", metric, 100*share)
		}
	}
}
