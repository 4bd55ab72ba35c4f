package vecstore

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"v2v/internal/xrand"
)

// seedSearch is the historical brute-force path: score every row in
// float64, collect all results, sort fully. Exact search must
// reproduce it bit-for-bit.
func seedSearch(s *Store, metric Metric, q []float32, k, exclude int) []Result {
	var res []Result
	qn := sqNorm(q)
	for i := 0; i < s.Len(); i++ {
		if i == exclude {
			continue
		}
		row := s.Row(i)
		var score float64
		switch metric {
		case Cosine:
			var dot, rn float64
			for j := range row {
				dot += float64(q[j]) * float64(row[j])
				rn += float64(row[j]) * float64(row[j])
			}
			if qn == 0 || rn == 0 {
				score = 0
			} else {
				score = dot / math.Sqrt(qn*rn)
			}
		case Euclidean:
			var d float64
			for j := range row {
				diff := float64(q[j]) - float64(row[j])
				d += diff * diff
			}
			score = -d
		default:
			for j := range row {
				score += float64(q[j]) * float64(row[j])
			}
		}
		res = append(res, Result{ID: i, Score: score})
	}
	sort.Slice(res, func(i, j int) bool { return better(res[i], res[j]) })
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

func TestExactMatchesSeedBruteForceBitForBit(t *testing.T) {
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		for _, workers := range []int{1, 4} {
			s := randStore(257, 19, 11) // odd sizes exercise block tails
			idx := NewExact(s, metric, workers)
			rng := xrand.New(5)
			for trial := 0; trial < 20; trial++ {
				q := make([]float32, 19)
				for i := range q {
					q[i] = float32(rng.NormFloat64())
				}
				k := 1 + rng.Intn(12)
				got := idx.Search(q, k)
				want := seedSearch(s, metric, q, k, -1)
				if len(got) != len(want) {
					t.Fatalf("%v/w%d: %d results, want %d", metric, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v/w%d trial %d rank %d: %+v, want %+v (bit-for-bit)",
							metric, workers, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestExactSearchRowExcludesSelf(t *testing.T) {
	s := randStore(100, 8, 13)
	idx := NewExact(s, Cosine, 2)
	for _, row := range []int{0, 50, 99} {
		got := idx.SearchRow(row, 5)
		want := seedSearch(s, Cosine, s.Row(row), 5, row)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d rank %d: %+v, want %+v", row, i, got[i], want[i])
			}
			if got[i].ID == row {
				t.Fatalf("row %d returned itself", row)
			}
		}
	}
}

func TestExactSearchBatchMatchesSingle(t *testing.T) {
	s := randStore(500, 12, 19)
	idx := NewExact(s, Cosine, 3)
	rng := xrand.New(29)
	qs := make([][]float32, 33)
	for i := range qs {
		qs[i] = make([]float32, 12)
		for j := range qs[i] {
			qs[i][j] = float32(rng.NormFloat64())
		}
	}
	batch := idx.SearchBatch(qs, 7)
	for i, q := range qs {
		single := idx.Search(q, 7)
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", i, j, batch[i][j], single[j])
			}
		}
	}
}

func TestExactEdgeCases(t *testing.T) {
	s := randStore(5, 4, 31)
	idx := NewExact(s, Cosine, 2)
	if r := idx.Search(make([]float32, 4), 0); len(r) != 0 {
		t.Fatal("k=0 returned results")
	}
	if r := idx.Search(s.Row(0), 100); len(r) != 5 {
		t.Fatalf("k>n returned %d", len(r))
	}
	if r := idx.SearchRow(0, 100); len(r) != 4 {
		t.Fatalf("k>n SearchRow returned %d", len(r))
	}
	empty := New(0, 4)
	eidx := NewExact(empty, Cosine, 2)
	if r := eidx.Search(make([]float32, 4), 3); len(r) != 0 {
		t.Fatal("empty store returned results")
	}
	if b := eidx.SearchBatch(nil, 3); len(b) != 0 {
		t.Fatal("empty batch")
	}
}

func TestOpenFactory(t *testing.T) {
	s := randStore(50, 6, 37)
	if idx, err := Open(s, Config{Kind: KindExact, Metric: Dot}); err != nil {
		t.Fatal(err)
	} else if _, ok := idx.(*Exact); !ok || idx.Metric() != Dot {
		t.Fatalf("Open exact gave %T metric %v", idx, idx.Metric())
	}
	if idx, err := Open(s, Config{Kind: KindIVF, NLists: 4, NProbe: 2}); err != nil {
		t.Fatal(err)
	} else if _, ok := idx.(*IVF); !ok {
		t.Fatalf("Open ivf gave %T", idx)
	}
	if _, err := Open(s, Config{Kind: Kind(9)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Open(New(0, 3), Config{Kind: KindIVF}); err == nil {
		t.Fatal("IVF over empty store accepted")
	}
}

func TestStringers(t *testing.T) {
	if Cosine.String() != "cosine" || Dot.String() != "dot" || Euclidean.String() != "euclidean" {
		t.Fatal("Metric.String wrong")
	}
	if KindExact.String() != "exact" || KindIVF.String() != "ivf" {
		t.Fatal("Kind.String wrong")
	}
	if Metric(7).String() == "" || Kind(7).String() == "" {
		t.Fatal("unknown values should stringify")
	}
}

// clusteredStore builds n vectors around nclusters well-separated
// anchors — embedding-like data where IVF cells are meaningful.
func clusteredStore(n, dim, nclusters int, seed uint64) *Store {
	rng := xrand.New(seed)
	anchors := make([][]float64, nclusters)
	for c := range anchors {
		anchors[c] = make([]float64, dim)
		for j := range anchors[c] {
			anchors[c][j] = rng.NormFloat64() * 5
		}
	}
	s := New(n, dim)
	for i := 0; i < n; i++ {
		a := anchors[rng.Intn(nclusters)]
		row := s.Row(i)
		for j := range row {
			row[j] = float32(a[j] + rng.NormFloat64()*0.5)
		}
	}
	return s
}

func TestIVFRecallAtLeast95(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	s := clusteredStore(n, 32, 50, 41)
	exact := NewExact(s, Cosine, 0)
	ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 7}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(43)
	const k = 10
	queries, hits := 0, 0
	for trial := 0; trial < 100; trial++ {
		q := s.Row(rng.Intn(n))
		truth := exact.Search(q, k)
		approx := ivf.Search(q, k)
		in := map[int]bool{}
		for _, r := range approx {
			in[r.ID] = true
		}
		for _, r := range truth {
			queries++
			if in[r.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(queries)
	t.Logf("IVF recall@%d over %d queries: %.4f (nlists=%d nprobe=%d)",
		k, 100, recall, ivf.NLists(), ivf.NProbe())
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.4f, want >= 0.95 at nprobe defaults", recall)
	}
}

func TestIVFDeterministicAcrossWorkerCounts(t *testing.T) {
	s := clusteredStore(3000, 16, 20, 47)
	build := func(workers int) *IVF {
		ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 3, Workers: workers, NLists: 25, NProbe: 6})
		if err != nil {
			t.Fatal(err)
		}
		return ivf
	}
	a, b := build(1), build(8)
	q := s.Row(123)
	ra, rb := a.Search(q, 10), b.Search(q, 10)
	if len(ra) != len(rb) {
		t.Fatalf("result counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("rank %d differs across build workers: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestIVFSearchBatchAndSearchRow(t *testing.T) {
	s := clusteredStore(2000, 16, 10, 53)
	ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 5, NLists: 16, NProbe: 16}) // nprobe=all: exhaustive
	if err != nil {
		t.Fatal(err)
	}
	// With nprobe == nlists every row is scanned, so results must
	// match the exact index.
	exact := NewExact(s, Cosine, 0)
	qs := [][]float32{s.Row(0), s.Row(999), s.Row(1500)}
	batch := ivf.SearchBatch(qs, 5)
	for i, q := range qs {
		want := exact.Search(q, 5)
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d rank %d: %+v, want %+v", i, j, batch[i][j], want[j])
			}
		}
	}
	// SearchRow excludes the row itself.
	for _, r := range ivf.SearchRow(42, 5) {
		if r.ID == 42 {
			t.Fatal("SearchRow returned the query row")
		}
	}
}

// TestIVFEdgeCases drives degenerate stores through the k-means
// quantizer: each builds, answers every query path, and gives the
// same answers at every worker count (compared as text, so NaN scores
// from zero rows compare equal).
func TestIVFEdgeCases(t *testing.T) {
	identical := New(8, 4)
	for i := 0; i < identical.Len(); i++ {
		copy(identical.Row(i), []float32{1, 2, 3, 4})
	}
	cases := []struct {
		name   string
		s      *Store
		metric Metric
		nlists int
	}{
		{"one row", randStore(1, 4, 71), Euclidean, 0},
		{"n below nlists", randStore(5, 4, 73), Cosine, 20},
		{"identical rows", identical, Cosine, 4},
		{"zero rows cosine", New(6, 4), Cosine, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				ivf, err := NewIVF(tc.s, tc.metric, IVFConfig{NLists: tc.nlists, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if ivf.NLists() < 1 || ivf.NLists() > tc.s.Len() {
					t.Fatalf("NLists = %d for %d rows", ivf.NLists(), tc.s.Len())
				}
				q := tc.s.Row(0)
				got := fmt.Sprint(ivf.Search(q, 3), ivf.SearchRow(0, 3), ivf.SearchBatch([][]float32{q, q}, 3))
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d: %s, want %s", workers, got, want)
				}
			}
		})
	}
}

func TestIVFNProbeImprovesRecall(t *testing.T) {
	s := clusteredStore(3000, 16, 30, 59)
	exact := NewExact(s, Cosine, 0)
	recallAt := func(nprobe int) float64 {
		ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 9, NLists: 50, NProbe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(61)
		hits, total := 0, 0
		for trial := 0; trial < 40; trial++ {
			q := s.Row(rng.Intn(s.Len()))
			in := map[int]bool{}
			for _, r := range ivf.Search(q, 10) {
				in[r.ID] = true
			}
			for _, r := range exact.Search(q, 10) {
				total++
				if in[r.ID] {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	lo, hi := recallAt(1), recallAt(50)
	if hi < lo {
		t.Fatalf("recall fell as nprobe rose: %.3f -> %.3f", lo, hi)
	}
	if hi < 0.999 {
		t.Fatalf("nprobe=nlists recall %.4f, want ~1", hi)
	}
}
