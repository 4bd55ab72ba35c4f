package word2vec

import (
	"math"
	"sort"
	"sync"
	"testing"

	"v2v/internal/xrand"
)

// seedMostSimilar is the pre-vecstore implementation kept verbatim as
// the parity reference: recompute cosine per pair, collect every
// vertex, sort the full slice.
func seedMostSimilar(m *Model, w, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	cosine := func(a, b int) float64 {
		va, vb := m.Vector(a), m.Vector(b)
		var dot, na, nb float64
		for i := range va {
			dot += float64(va[i]) * float64(vb[i])
			na += float64(va[i]) * float64(va[i])
			nb += float64(vb[i]) * float64(vb[i])
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return dot / math.Sqrt(na*nb)
	}
	res := make([]Neighbor, 0, m.Vocab-1)
	for u := 0; u < m.Vocab; u++ {
		if u == w {
			continue
		}
		res = append(res, Neighbor{Word: u, Similarity: cosine(w, u)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Similarity != res[j].Similarity {
			return res[i].Similarity > res[j].Similarity
		}
		return res[i].Word < res[j].Word
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// TestNeighborsMatchesSeedBitForBit pins the acceptance criterion:
// the vecstore-backed Neighbors reproduces the seed's brute-force
// MostSimilar exactly — same vertices, same order, identical float64
// similarities.
func TestNeighborsMatchesSeedBitForBit(t *testing.T) {
	rng := xrand.New(71)
	m := NewModel(311, 23) // odd sizes exercise kernel block tails
	for i := range m.Vectors {
		m.Vectors[i] = float32(rng.NormFloat64())
	}
	// A zero vector exercises the similarity-0 convention.
	for i := range m.Vector(17) {
		m.Vector(17)[i] = 0
	}
	for _, w := range []int{0, 17, 155, 310} {
		for _, k := range []int{1, 5, 310, 1000} {
			got := m.Neighbors(w, k)
			want := seedMostSimilar(m, w, k)
			if len(got) != len(want) {
				t.Fatalf("w=%d k=%d: %d neighbors, want %d", w, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d k=%d rank %d: %+v, want %+v (bit-for-bit)", w, k, i, got[i], want[i])
				}
			}
		}
	}
	if m.Neighbors(0, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	// MostSimilar is an alias of Neighbors.
	a, b := m.MostSimilar(3, 4), m.Neighbors(3, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MostSimilar diverged from Neighbors")
		}
	}
}

// TestConcurrentNeighborsOnFreshModel: the lazy store/index build
// must be safe when the first queries arrive concurrently (regression
// test for unsynchronized lazy init; meaningful under -race).
func TestConcurrentNeighborsOnFreshModel(t *testing.T) {
	rng := xrand.New(121)
	m := NewModel(200, 8)
	for i := range m.Vectors {
		m.Vectors[i] = float32(rng.NormFloat64())
	}
	want := seedMostSimilar(m2Copy(m), 0, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := m.Neighbors(0, 5)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("concurrent rank %d: %+v, want %+v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// m2Copy clones a model so the reference computation cannot warm the
// cache under test.
func m2Copy(m *Model) *Model {
	c := NewModel(m.Vocab, m.Dim)
	copy(c.Vectors, m.Vectors)
	return c
}

// TestInvalidateIndexAfterMutation documents the mutation contract:
// queries after in-place vector edits need InvalidateIndex.
func TestInvalidateIndexAfterMutation(t *testing.T) {
	m := NewModel(3, 2)
	copy(m.Vector(0), []float32{1, 0})
	copy(m.Vector(1), []float32{0.9, 0.1})
	copy(m.Vector(2), []float32{0, 1})
	if nn := m.Neighbors(0, 1); nn[0].Word != 1 {
		t.Fatalf("neighbors before mutation: %+v", nn)
	}
	// Swing vertex 2 next to vertex 0; stale norms would misrank.
	copy(m.Vector(2), []float32{5, 0})
	m.InvalidateIndex()
	nn := m.Neighbors(0, 1)
	if nn[0].Word != 2 || math.Abs(nn[0].Similarity-1) > 1e-12 {
		t.Fatalf("neighbors after mutation: %+v", nn)
	}
}

// TestInvalidateIndexRefreshesScanShadow: the exact index's scan keeps
// an int8 copy of the vectors to reject rows with, and on a large
// clustered model cuts it into cells it skips whole. After Vectors are
// mutated and InvalidateIndex runs, a vertex swung next to the query,
// in a later scan block than the heap fills in (or, cut, into another
// cell), must be found, and the answer must be the seed's: a stale int8
// copy would bound it by its old vector and reject it unscored, and a
// stale cell would be skipped.
func TestInvalidateIndexRefreshesScanShadow(t *testing.T) {
	for _, c := range []struct {
		name              string
		vocab, dim, blobs int
		w, moved          int
	}{
		{"gaussian", 1000, 16, 0, 3, 900},
		{"clustered", 6000, 16, 60, 3, 5900},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := xrand.New(5)
			m := NewModel(c.vocab, c.dim)
			anchors := make([]float64, max(c.blobs, 1)*c.dim)
			for i := range anchors {
				anchors[i] = 5 * rng.NormFloat64()
			}
			for v := 0; v < c.vocab; v++ {
				a := anchors[rng.Intn(max(c.blobs, 1))*c.dim:]
				for i := range m.Vector(v) {
					x := rng.NormFloat64()
					if c.blobs > 0 {
						x = a[i] + 0.5*x
					}
					m.Vector(v)[i] = float32(x)
				}
			}
			check := func(what string) []Neighbor {
				t.Helper()
				got, want := m.Neighbors(c.w, 10), seedMostSimilar(m2Copy(m), c.w, 10)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s rank %d: %+v, want %+v (bit-for-bit)", what, i, got[i], want[i])
					}
				}
				return got
			}
			check("before mutation")
			for i, x := range m.Vector(c.w) {
				m.Vector(c.moved)[i] = 2 * x
			}
			m.InvalidateIndex()
			if nn := check("after mutation"); nn[0].Word != c.moved {
				t.Fatalf("after mutation the nearest vertex is %+v, want %d", nn[0], c.moved)
			}
		})
	}
}

// TestNormalizeInvalidatesIndex ensures Normalize refreshes cached
// norms automatically.
func TestNormalizeInvalidatesIndex(t *testing.T) {
	m := NewModel(2, 2)
	copy(m.Vector(0), []float32{3, 0})
	copy(m.Vector(1), []float32{0, 4})
	m.Neighbors(0, 1) // build the cache
	m.Normalize()
	norms := m.Store().SqNorms()
	for i, n := range norms {
		if math.Abs(n-1) > 1e-5 {
			t.Fatalf("row %d sqnorm %v after Normalize", i, n)
		}
	}
}
