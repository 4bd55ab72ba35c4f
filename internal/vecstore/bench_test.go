package vecstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"v2v/internal/xrand"
)

// The acceptance benchmark pair: batched cosine top-10 over a
// 100k x 128 store versus the seed's per-query path (allocate a
// result per row, sort all of them). -short scales the store down for
// CI.
var queryBench struct {
	once sync.Once
	s    *Store
	qs   [][]float32
}

func queryBenchSetup(b *testing.B) (*Store, [][]float32) {
	b.Helper()
	queryBench.once.Do(func() {
		n, dim := 100_000, 128
		if testing.Short() {
			n, dim = 10_000, 64
		}
		queryBench.s = randStore(n, dim, 101)
		rng := xrand.New(103)
		qs := make([][]float32, 64)
		for i := range qs {
			qs[i] = queryBench.s.Row(rng.Intn(n))
		}
		queryBench.qs = qs
	})
	return queryBench.s, queryBench.qs
}

// seedNeighbor mirrors the seed's word2vec.Neighbor/MostSimilar
// shape: one allocation-heavy full sort per query.
type seedNeighbor struct {
	Word       int
	Similarity float64
}

func seedMostSimilar(s *Store, q []float32, k int) []seedNeighbor {
	res := make([]seedNeighbor, 0, s.Len())
	qn := sqNorm(q)
	for u := 0; u < s.Len(); u++ {
		row := s.Row(u)
		var dot, rn float64
		for i := range row {
			dot += float64(q[i]) * float64(row[i])
			rn += float64(row[i]) * float64(row[i])
		}
		sim := 0.0
		if qn != 0 && rn != 0 {
			sim = dot / math.Sqrt(qn*rn)
		}
		res = append(res, seedNeighbor{Word: u, Similarity: sim})
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

// BenchmarkSearchSeedBaseline is the pre-vecstore query path: per-row
// float64 norm recomputation, an n-element result slice and a full
// sort, once per query.
func BenchmarkSearchSeedBaseline(b *testing.B) {
	s, qs := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedMostSimilar(s, qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchExactSerial is one exact cosine top-10 per op on
// one goroutine at 100 000 x 128 (-short: 10 000 x 64): on the gaussian
// store, which NewExact leaves in row order (no cell would be skipped),
// and on the clustered one, which it cuts into cells.
func BenchmarkSearchExactSerial(b *testing.B) {
	for _, bc := range []struct {
		name  string
		setup func(*testing.B) (*Store, [][]float32)
	}{{"gaussian", queryBenchSetup}, {"clustered", clusteredBenchSetup}} {
		b.Run(bc.name, func(b *testing.B) {
			s, qs := bc.setup(b)
			idx := NewExact(s, Cosine, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Search(qs[i%len(qs)], 10)
			}
		})
	}
}

// BenchmarkSearchExact is one exact cosine top-10 SearchRow per op and
// per goroutine, GOMAXPROCS of them at once (run with -cpu 1,2), on
// the repository benchmark's clustered store (scanFixture) and on a
// gaussian store of the same shape, where no cell can be skipped:
// what the cut saves and what it costs. rows-visited/query and
// cells-visited/query are counted over the first 256 queries.
func BenchmarkSearchExact(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    func() *Store
	}{
		{"fixture", scanFixture},
		{"gaussian", func() *Store { return randStore(20_000, 64, 101) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := bc.s()
			idx := NewExact(s, Cosine, 0)
			n := s.Len()
			var visited, cells int
			for i := range 256 {
				var heap TopK
				heap.Reset(10)
				c := scan(s, Cosine, s.Row(i*7919%n), i*7919%n, &heap)
				visited += c.visited
				cells += c.cells
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					idx.SearchRow(int(next.Add(1))*7919%n, 10)
				}
			})
			b.ReportMetric(float64(visited)/256, "rows-visited/query")
			b.ReportMetric(float64(cells)/256, "cells-visited/query")
		})
	}
}

// BenchmarkExactBuild is one NewExact per op over a fresh copy of a
// gaussian store: the norms, the int8 shadow and the cut, on
// GOMAXPROCS workers. -short runs the small shape only.
func BenchmarkExactBuild(b *testing.B) {
	for _, shape := range [][2]int{{20_000, 64}, {100_000, 128}} {
		if testing.Short() && shape[0] > 20_000 {
			continue
		}
		b.Run(fmt.Sprintf("rows=%d/dim=%d", shape[0], shape[1]), func(b *testing.B) {
			src := randStore(shape[0], shape[1], 101)
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				s := Wrap(append([]float32(nil), src.Data()...), shape[0], shape[1])
				b.StartTimer()
				NewExact(s, Cosine, 0)
			}
		})
	}
}

// BenchmarkCellFloor is the measurement behind cellFloor: one exact
// cosine top-10 query per op on clustered dim-64 stores from 512 to 16k
// rows, scanned in row order (uncut) and cell by cell (cut, whatever
// the floor and the trial queries say). The floor belongs where cut
// starts to win.
func BenchmarkCellFloor(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384} {
		for _, cut := range []bool{false, true} {
			rule := cellRule{floor: math.MaxInt}
			if cut {
				rule.floor = 1
			}
			s := clusteredStore(n, 64, 64, 101)
			idx := newExact(s, Cosine, 1, rule)
			name := fmt.Sprintf("rows=%d/uncut", n)
			if cut {
				name = fmt.Sprintf("rows=%d/cut", n)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					idx.SearchRow(i*7919%n, 10)
				}
			})
		}
	}
}

// BenchmarkSearchExactBatch is the batched fast path: 64 queries per
// op sharded across workers with reused heaps and a single result
// allocation, so allocations per query are amortized to ~0.
// Compare ns/query against BenchmarkSearchSeedBaseline's ns/op (the
// acceptance bar is >= 3x).
func BenchmarkSearchExactBatch(b *testing.B) {
	s, qs := queryBenchSetup(b)
	idx := NewExact(s, Cosine, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchBatch(qs, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}

// clusteredBench caches a clustered (embedding-like) store of the
// same shape as the gaussian query-bench store. The distribution
// matters for the approximate indexes — trained embeddings are
// clustered, and that is the workload the serving stack sees;
// TestHNSWRecallAtLeast95's gaussian case tracks the structureless
// worst case.
var clusteredBench struct {
	once sync.Once
	s    *Store
	qs   [][]float32
}

func clusteredBenchSetup(b *testing.B) (*Store, [][]float32) {
	b.Helper()
	clusteredBench.once.Do(func() {
		n, dim, clusters := 100_000, 128, 1000
		if testing.Short() {
			n, dim, clusters = 10_000, 64, 100
		}
		clusteredBench.s = clusteredStore(n, dim, clusters, 101)
		rng := xrand.New(103)
		qs := make([][]float32, 64)
		for i := range qs {
			qs[i] = clusteredBench.s.Row(rng.Intn(n))
		}
		clusteredBench.qs = qs
	})
	return clusteredBench.s, clusteredBench.qs
}

// hnswBench caches the HNSW index over the clustered store: the
// 100k x 128 build takes minutes and must not repeat per benchmark.
var hnswBench struct {
	once sync.Once
	idx  *HNSW
}

func hnswBenchSetup(b *testing.B) (*HNSW, [][]float32) {
	b.Helper()
	s, qs := clusteredBenchSetup(b)
	hnswBench.once.Do(func() {
		h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		hnswBench.idx = h
	})
	return hnswBench.idx, qs
}

// beamRecall searches h for each query's top 10 through sc, which
// counts the candidates the beam considers, and returns recall@10
// against exact (over the live rows: exact skips tombstones).
func beamRecall(h *HNSW, exact *Exact, qs [][]float32, sc *hnswScratch) float64 {
	hits, total := 0, 0
	for _, q := range qs {
		in := map[int]bool{}
		for _, r := range h.search(q, 10, -1, nil, sc) {
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

// BenchmarkSearchHNSW is the sublinear approximate path at M/efSearch
// defaults: one cosine top-10 per op. The recall@10 metric compares
// the bench queries' answers against the exact index, so the
// output line records quality next to latency. Compare ns/op
// against BenchmarkSearchExactSerial/clustered, the exact scan of the
// same store. evals/op and
// rejected/op are the candidates a query considers and those the
// float32 pass drops, over the same queries.
func BenchmarkSearchHNSW(b *testing.B) {
	h, qs := hnswBenchSetup(b)
	sc := h.newScratch()
	recall := beamRecall(h, NewExact(h.Store(), Cosine, 1), qs, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Search(qs[i%len(qs)], 10)
	}
	b.ReportMetric(recall, "recall@10")
	b.ReportMetric(float64(sc.evals)/float64(len(qs)), "evals/op")
	b.ReportMetric(float64(sc.rejected)/float64(len(qs)), "rejected/op")
}

// BenchmarkSearchHNSWTombstoned is BenchmarkSearchHNSW on a copy of
// the bench store and graph with 2% and 25% of the rows, drawn by a
// seeded RNG, tombstoned: one cosine top-10 per op. recall@10 is
// against the exact index over the live rows, and evals/op counts the
// candidates a query considers, which a tombstone raises only by the
// nodes it routes the beam through (compare BenchmarkSearchHNSW's).
func BenchmarkSearchHNSWTombstoned(b *testing.B) {
	base, qs := hnswBenchSetup(b)
	n := base.Store().Len()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for _, pct := range []int{2, 25} {
		h, err := HNSWFromGraph(base.Store().Gather(ids), base.Graph(), 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range xrand.New(107).Perm(n)[:n*pct/100] {
			if err := h.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
		sc := h.newScratch()
		recall := beamRecall(h, NewExact(h.Store(), Cosine, 1), qs, sc)
		b.Run(fmt.Sprintf("dead=%d%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Search(qs[i%len(qs)], 10)
			}
			b.ReportMetric(recall, "recall@10")
			b.ReportMetric(float64(sc.evals)/float64(len(qs)), "evals/op")
		})
	}
}

// BenchmarkHNSWBuild is one default-parameter cosine build of a
// clustered 10 000 x 64 store per op (the repository benchmark's HNSW
// shape), at every size of -short too: a build is seconds, not minutes.
// The counters are read from the scratch NewHNSW leaves in the index's
// pool, into which it folds every build worker's, so they are the same
// at every -cpu: evals/op and rejected/op are the beam's and the
// descent's candidates and those the float32 pass dropped, sel/op the
// comparisons of neighbour selection and selrefined/op those the
// float64 kernel had to decide (about 0.5%; a two-sided test that
// stops firing shows here as a number, not only as time).
func BenchmarkHNSWBuild(b *testing.B) {
	s := clusteredStore(10_000, 64, 100, 101)
	s.SqNorms()
	var sum hnswScratch
	counted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if sc, ok := h.scratch.Get().(*hnswScratch); ok {
			sum.evals, sum.rejected = sum.evals+sc.evals, sum.rejected+sc.rejected
			sum.selCmps, sum.selRefined = sum.selCmps+sc.selCmps, sum.selRefined+sc.selRefined
			counted++
		}
	}
	b.ReportMetric(float64(b.N*s.Len())/b.Elapsed().Seconds(), "rows/s")
	if counted > 0 {
		b.ReportMetric(float64(sum.evals)/float64(counted), "evals/op")
		b.ReportMetric(float64(sum.rejected)/float64(counted), "rejected/op")
		b.ReportMetric(float64(sum.selCmps)/float64(counted), "sel/op")
		b.ReportMetric(float64(sum.selRefined)/float64(counted), "selrefined/op")
	}
}

// BenchmarkSearchHNSWBatch is the batched path: 64 queries per op
// sharded across workers with per-worker scratch.
func BenchmarkSearchHNSWBatch(b *testing.B) {
	h, qs := hnswBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SearchBatch(qs, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}

// BenchmarkHNSWInsert is one steady-state Insert per op into the
// default-parameter cosine graph over the clustered 10 000 x 64 store
// (BenchmarkHNSWBuild's), new rows drawn from the same clusters: the
// upsert's apply stage and a WAL replay record. allocs/op and B/op are
// the new node's lists, the store's amortised growth and nothing per
// search or per shrink.
func BenchmarkHNSWInsert(b *testing.B) {
	const built = 10_000
	all := clusteredStore(2*built, 64, 100, 101) // a prefix is BenchmarkHNSWBuild's store
	ids := make([]int, built)
	for i := range ids {
		ids[i] = i
	}
	h, err := NewHNSW(all.Gather(ids), Cosine, HNSWConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(all.Row(built + i%built)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchExactCycle is one exact cosine top-10 SearchRow per op
// on one goroutine, the query rows taken in a seeded permutation of
// every row of scanFixture's shape (-short: 4 000 x 64 around 40
// anchors), as served traffic takes them: a row the scan touches is
// rarely still in cache from the query before, which the 64 queries
// of BenchmarkSearchExactSerial never show. visited/query,
// survivors/query and rescored/query are the scan's counts over the
// whole permutation.
func BenchmarkSearchExactCycle(b *testing.B) {
	n, clusters := 20_000, 200
	if testing.Short() {
		n, clusters = 4_000, 40
	}
	s := clusteredStore(n, 64, clusters, 101)
	idx := NewExact(s, Cosine, 0)
	perm := xrand.New(109).Perm(n)
	var c scanCounts
	for _, row := range perm {
		var heap TopK
		heap.Reset(10)
		got := scan(s, Cosine, s.Row(row), row, &heap)
		c.visited, c.survivors, c.rescored = c.visited+got.visited, c.survivors+got.survivors, c.rescored+got.rescored
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchRow(perm[i%n], 10)
	}
	b.ReportMetric(float64(c.visited)/float64(n), "visited/query")
	b.ReportMetric(float64(c.survivors)/float64(n), "survivors/query")
	b.ReportMetric(float64(c.rescored)/float64(n), "rescored/query")
}

// BenchmarkSearchHNSWCycle is one default-parameter cosine top-10
// SearchRow per op on one goroutine, over a seeded permutation of every
// row, on clustered stores of 10 000 x 64 (BenchmarkHNSWBuild's) and
// 5 000 x 64 (one shard of the repository benchmark's two-shard
// bundle); -short: 2 000 x 64. evals/op and rejected/op are the beam's
// counts over the whole permutation.
func BenchmarkSearchHNSWCycle(b *testing.B) {
	sizes := []int{10_000, 5_000}
	if testing.Short() {
		sizes = []int{2_000}
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			h, err := NewHNSW(clusteredStore(n, 64, n/100, 101), Cosine, HNSWConfig{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			perm := xrand.New(109).Perm(n)
			sc := h.newScratch()
			for _, row := range perm {
				h.search(h.s.Row(row), 10, row, nil, sc)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.SearchRow(perm[i%n], 10)
			}
			b.ReportMetric(float64(sc.evals)/float64(n), "evals/op")
			b.ReportMetric(float64(sc.rejected)/float64(n), "rejected/op")
		})
	}
}
