package vecstore

import (
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
	if idx, err := Open(s, Config{Kind: KindHNSW, M: 4}); err != nil {
		t.Fatal(err)
	} else if _, ok := idx.(*HNSW); !ok {
		t.Fatalf("Open hnsw gave %T", idx)
	}
	if _, err := Open(s, Config{Kind: Kind(9)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestStringers(t *testing.T) {
	if Cosine.String() != "cosine" || Dot.String() != "dot" || Euclidean.String() != "euclidean" {
		t.Fatal("Metric.String wrong")
	}
	if KindExact.String() != "exact" || KindHNSW.String() != "hnsw" {
		t.Fatal("Kind.String wrong")
	}
	if Metric(7).String() == "" || Kind(7).String() == "" {
		t.Fatal("unknown values should stringify")
	}
}

// clusteredStore builds n vectors around nclusters well-separated
// anchors — embedding-like data, where the exact scan's cells and
// HNSW's neighbourhoods have structure to exploit.
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
