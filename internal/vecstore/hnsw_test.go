package vecstore

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"v2v/internal/xrand"
)

// recallVsExact measures recall@k of idx against the exact index over
// queries sampled from the store's own rows.
func recallVsExact(t testing.TB, s *Store, idx Index, k, trials int, seed uint64) float64 {
	t.Helper()
	exact := NewExact(s, idx.Metric(), 0)
	rng := xrand.New(seed)
	hits, total := 0, 0
	for trial := 0; trial < trials; trial++ {
		q := s.Row(rng.Intn(s.Len()))
		in := map[int]bool{}
		for _, r := range idx.Search(q, k) {
			in[r.ID] = true
		}
		for _, r := range exact.Search(q, k) {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(total)
}

func TestHNSWRecallAtLeast95(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	// Both data shapes the repo serves: clustered (embedding-like) and
	// unstructured gaussian (the adversarial case for graph indexes).
	clustered := clusteredStore(n, 32, 50, 71)
	for _, tc := range []struct {
		name string
		s    *Store
	}{
		{"clustered", clustered},
		{"gaussian", randStore(n, 32, 73)},
	} {
		h, err := NewHNSW(tc.s, Cosine, HNSWConfig{Seed: 7}) // all defaults
		if err != nil {
			t.Fatal(err)
		}
		recall := recallVsExact(t, tc.s, h, 10, 100, 79)
		t.Logf("%s: HNSW recall@10 = %.4f (m=%d ef=%d maxLevel=%d)",
			tc.name, recall, h.M(), h.EfSearch(), h.MaxLevel())
		if recall < 0.95 {
			t.Errorf("%s: recall@10 = %.4f, want >= 0.95 at defaults", tc.name, recall)
		}
	}
	// The clustered store again, hash-partitioned over four per-shard
	// graphs and searched through the scatter-gather coordinator.
	sh, err := OpenSharded(clustered, Config{Kind: KindHNSW, Metric: Cosine, Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	recall := recallVsExact(t, clustered, sh, 10, 100, 79)
	t.Logf("clustered, 4 shards: HNSW recall@10 = %.4f", recall)
	if recall < 0.95 {
		t.Errorf("clustered, 4 shards: recall@10 = %.4f, want >= 0.95 at defaults", recall)
	}
}

// buildSameAcrossWorkers builds s's graph at Workers 1, 2, 3, 4 and 8
// and fails unless every build is the first one, link for link; it
// returns the Workers-1 build.
func buildSameAcrossWorkers(t *testing.T, what string, s *Store, metric Metric, cfg HNSWConfig) *HNSW {
	t.Helper()
	var first *HNSW
	var want uint64
	for _, workers := range []int{1, 2, 3, 4, 8} {
		cfg.Workers = workers
		h, err := NewHNSW(s, metric, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := graphHash(h.Graph())
		if first == nil {
			first, want = h, got
		} else if got != want {
			t.Fatalf("%s: graph hash %#016x at Workers %d, %#016x at Workers 1", what, got, workers, want)
		}
	}
	return first
}

// TestHNSWDeterministicAcrossWorkerCounts holds the whole graph, every
// link at every level and the entry point, to the one-worker build's
// for every metric: the rows of a wave are spread over the workers in
// whatever order they finish, and none of that may show.
func TestHNSWDeterministicAcrossWorkerCounts(t *testing.T) {
	s := clusteredStore(3000, 16, 20, 83)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		buildSameAcrossWorkers(t, metric.String(), s, metric, HNSWConfig{Seed: 3, M: 8, EfConstruction: 60})
	}
}

// checkAnswers holds h's Search, SearchRow and SearchBatch to the
// answer counts the store size implies, and the batch to the single
// queries. Where every distance ties (tied, says so), ties go to the
// smaller ID, so every list points into the smallest IDs and those
// point only at one another: a search finds at most that component,
// which a sequential build makes the same way, and SearchRow of one of
// its rows may come up one short.
func checkAnswers(t *testing.T, what string, h *HNSW, k int, tied bool) {
	t.Helper()
	n := h.Store().Len()
	var qs [][]float32
	for _, i := range []int{0, n / 2, n - 1} {
		if n == 0 {
			break
		}
		qs = append(qs, h.Store().Row(i))
		if got := h.Search(h.Store().Row(i), k); len(got) != min(k, n) {
			t.Fatalf("%s: Search(row %d) gave %d results, want %d", what, i, len(got), min(k, n))
		}
		got := h.SearchRow(i, k)
		if want := min(k, n-1); len(got) != want && !(tied && len(got) == want-1) {
			t.Fatalf("%s: SearchRow(%d) gave %d results, want %d", what, i, len(got), want)
		}
		for _, r := range got {
			if r.ID == i {
				t.Fatalf("%s: SearchRow(%d) returned itself", what, i)
			}
		}
	}
	if n == 0 {
		qs = append(qs, make([]float32, h.Store().Dim()))
	}
	batch := h.SearchBatch(qs, k)
	for i, q := range qs {
		checkSameResults(t, fmt.Sprintf("%s: batch query %d", what, i), batch[i], h.Search(q, k))
	}
}

// waveLevels replays the build's level stream for n rows: the level of
// every row, in row order.
func waveLevels(n int, cfg HNSWConfig) []int {
	rng := xrand.New(cfg.Seed ^ hnswLevelStream)
	mL := 1 / math.Log(float64(cfg.M))
	levels := make([]int, n)
	for i := range levels {
		levels[i] = sampleLevel(rng, mL)
	}
	return levels
}

// tallWave finds a seed whose level stream puts exactly two rows above
// the top level of the rows before them into one wave of several, the
// first at least as high as the second; end is the wave's end, and seed
// 0 means no seed up to 500 does.
func tallWave(cfg HNSWConfig) (seed uint64, first, second, top, end int) {
	for seed = 1; seed <= 500; seed++ {
		cfg.Seed = seed
		levels := waveLevels(2000, cfg)
		top = 0
		for lo := 0; lo < len(levels); lo = end {
			end = min(len(levels), lo+waveSize(lo))
			var above []int
			for i := lo; i < end; i++ {
				if levels[i] > top {
					above = append(above, i)
				}
			}
			if end-lo > 1 && len(above) == 2 && levels[above[0]] >= levels[above[1]] {
				return seed, above[0], above[1], top, end
			}
			top = max(top, slices.Max(levels[lo:end]))
		}
	}
	return 0, 0, 0, 0, 0
}

// TestHNSWWaveEdgeCases builds the shapes where a wave could go wrong at
// Workers 1, 2, 3, 4 and 8, holds the graphs to one another and the
// answers to the store: stores of 0, 1 and 2 rows; stores ending at,
// just past and one wave past the last one-row wave; a wave in which
// two rows rise above the graph's top level; all rows identical; all
// rows zero under Cosine.
func TestHNSWWaveEdgeCases(t *testing.T) {
	cfg := HNSWConfig{Seed: 5, M: 4, EfConstruction: 16, EfSearch: 16}
	for _, n := range []int{0, 1, 2, serialRows, serialRows + 1, serialRows + waveSize(serialRows) + 1} {
		what := fmt.Sprintf("n=%d", n)
		checkAnswers(t, what, buildSameAcrossWorkers(t, what, randStore(n, 8, uint64(n)), Cosine, cfg), 10, false)
	}

	identical := New(serialRows+100, 8)
	zero := New(serialRows+100, 8)
	for i := 0; i < identical.Len(); i++ {
		copy(identical.Row(i), []float32{1, -2, 3, -4, 5, -6, 7, -8})
	}
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		what := "identical rows " + metric.String()
		checkAnswers(t, what, buildSameAcrossWorkers(t, what, identical, metric, cfg), 10, true)
	}
	checkAnswers(t, "zero rows", buildSameAcrossWorkers(t, "zero rows", zero, Cosine, cfg), 10, true)

	// Two rows rise above the top level in one wave, the first at least
	// as high as the second: sequential insertion makes the first the
	// entry point and links the two on every level above the old top,
	// where nothing else lives.
	tall := HNSWConfig{M: 2, EfConstruction: 8, EfSearch: 16}
	var first, second, oldTop, end int
	tall.Seed, first, second, oldTop, end = tallWave(tall)
	if tall.Seed == 0 {
		t.Fatal("no seed puts two rows above the top level into one wave")
	}
	t.Logf("tall wave: seed %d, rows %d and %d above level %d, wave ends at %d", tall.Seed, first, second, oldTop, end)
	h := buildSameAcrossWorkers(t, "tall wave", randStore(end, 8, 11), Euclidean, tall)
	levels := waveLevels(end, tall)
	if h.entry != int32(first) || h.maxLevel != levels[first] {
		t.Fatalf("entry point %d at level %d, want row %d at level %d", h.entry, h.maxLevel, first, levels[first])
	}
	for l := oldTop + 1; l <= levels[second]; l++ {
		if !slices.Equal(h.links(int32(second), l), []int32{int32(first)}) || !slices.Equal(h.links(int32(first), l), []int32{int32(second)}) {
			t.Fatalf("rows %d and %d are alone at level %d above the old top %d, yet link to %v and %v",
				first, second, l, oldTop, h.links(int32(first), l), h.links(int32(second), l))
		}
	}
	checkAnswers(t, "tall wave", h, 10, false)
}

func TestHNSWSearchBatchMatchesSingle(t *testing.T) {
	s := clusteredStore(2000, 16, 10, 89)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 5, M: 8, EfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(97)
	qs := make([][]float32, 33)
	for i := range qs {
		qs[i] = s.Row(rng.Intn(s.Len()))
	}
	batch := h.SearchBatch(qs, 7)
	for i, q := range qs {
		single := h.Search(q, 7)
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

func TestHNSWSearchRowExcludesSelf(t *testing.T) {
	s := clusteredStore(500, 8, 5, 101)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 9, M: 8, EfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{0, 250, 499} {
		res := h.SearchRow(row, 5)
		if len(res) != 5 {
			t.Fatalf("row %d: %d results, want 5", row, len(res))
		}
		for _, r := range res {
			if r.ID == row {
				t.Fatalf("row %d returned itself", row)
			}
		}
	}
}

func TestHNSWScoresMatchExactForReturnedIDs(t *testing.T) {
	// Whatever rows HNSW returns, their scores must be the exact
	// metric scores (same kernels, same float64 accumulation).
	s := randStore(800, 12, 103)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		h, err := NewHNSW(s, metric, HNSWConfig{Seed: 11, M: 8, EfConstruction: 40})
		if err != nil {
			t.Fatal(err)
		}
		q := s.Row(17)
		qn := queryNorm(metric, q)
		for _, r := range h.Search(q, 10) {
			want := scoreRow(s, metric, q, qn, r.ID)
			if r.Score != want {
				t.Fatalf("%v: row %d score %v, want %v", metric, r.ID, r.Score, want)
			}
		}
	}
}

func TestHNSWEdgeCases(t *testing.T) {
	empty := New(0, 4)
	h, err := NewHNSW(empty, Cosine, HNSWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(make([]float32, 4), 3); len(r) != 0 {
		t.Fatal("empty store returned results")
	}
	if b := h.SearchBatch(nil, 3); len(b) != 0 {
		t.Fatal("empty batch returned results")
	}

	single := randStore(1, 4, 107)
	h, err = NewHNSW(single, Cosine, HNSWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(single.Row(0), 5); len(r) != 1 || r[0].ID != 0 {
		t.Fatalf("single-row store: %+v", r)
	}
	if r := h.SearchRow(0, 5); len(r) != 0 {
		t.Fatalf("single-row SearchRow should be empty, got %+v", r)
	}

	small := randStore(7, 4, 109)
	h, err = NewHNSW(small, Cosine, HNSWConfig{M: 4, EfConstruction: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(small.Row(0), 100); len(r) != 7 {
		t.Fatalf("k>n returned %d results", len(r))
	}
	if r := h.Search(small.Row(0), 0); len(r) != 0 {
		t.Fatal("k=0 returned results")
	}
}

func TestHNSWSmallKExhaustive(t *testing.T) {
	// On a tiny store the beam covers everything, so HNSW must agree
	// with exact search exactly.
	s := randStore(50, 6, 113)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewExact(s, Cosine, 1)
	for row := 0; row < 50; row += 7 {
		got := h.SearchRow(row, 5)
		want := exact.SearchRow(row, 5)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d vs %d results", row, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d rank %d: %+v, want %+v", row, i, got[i], want[i])
			}
		}
	}
}

func TestHNSWGraphRoundTrip(t *testing.T) {
	s := clusteredStore(1500, 16, 10, 127)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 17, M: 8, EfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph()
	h2, err := HNSWFromGraph(s, g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.M() != h.M() || h2.EfSearch() != h.EfSearch() || h2.MaxLevel() != h.MaxLevel() {
		t.Fatalf("round trip changed parameters: m %d->%d ef %d->%d maxLevel %d->%d",
			h.M(), h2.M(), h.EfSearch(), h2.EfSearch(), h.MaxLevel(), h2.MaxLevel())
	}
	rng := xrand.New(131)
	for trial := 0; trial < 20; trial++ {
		row := rng.Intn(s.Len())
		a, b := h.SearchRow(row, 10), h2.SearchRow(row, 10)
		if len(a) != len(b) {
			t.Fatalf("row %d: %d vs %d results", row, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d rank %d: %+v vs %+v after round trip", row, i, a[i], b[i])
			}
		}
	}
	// Override efSearch on rebind.
	h3, err := HNSWFromGraph(s, g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h3.EfSearch() != 10 {
		t.Fatalf("efSearch override ignored: %d", h3.EfSearch())
	}
}

func TestHNSWFromGraphRejectsCorruptTopology(t *testing.T) {
	s := randStore(20, 4, 137)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 19, M: 4, EfConstruction: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *HNSWGraph {
		g := h.Graph()
		friends := make([][][]int32, len(g.Friends))
		for i, fr := range g.Friends {
			friends[i] = make([][]int32, len(fr))
			for l, links := range fr {
				friends[i][l] = append([]int32(nil), links...)
			}
		}
		g.Friends = friends
		return g
	}
	cases := []struct {
		name   string
		mutate func(*HNSWGraph)
	}{
		{"wrong node count", func(g *HNSWGraph) { g.Friends = g.Friends[:10] }},
		{"entry out of range", func(g *HNSWGraph) { g.Entry = 99 }},
		{"negative entry", func(g *HNSWGraph) { g.Entry = -1 }},
		{"invalid M", func(g *HNSWGraph) { g.M = 0 }},
		{"link out of range", func(g *HNSWGraph) { g.Friends[0][0][0] = 42 }},
		{"negative link", func(g *HNSWGraph) { g.Friends[0][0][0] = -3 }},
		// Valid rows, one more than the level holds: 2*M at level 0, M
		// above (the entry point reaches level 1 and may link to itself
		// as far as the row checks go).
		{"level 0 over its cap", func(g *HNSWGraph) {
			for len(g.Friends[0][0]) <= 2*g.M {
				g.Friends[0][0] = append(g.Friends[0][0], 1)
			}
		}},
		{"level 1 over its cap", func(g *HNSWGraph) {
			for len(g.Friends[g.Entry][1]) <= g.M {
				g.Friends[g.Entry][1] = append(g.Friends[g.Entry][1], g.Entry)
			}
		}},
	}
	if len(h.Graph().Friends[h.Graph().Entry]) < 2 {
		t.Fatal("the test graph's entry point does not reach level 1")
	}
	for _, tc := range cases {
		g := fresh()
		tc.mutate(g)
		if _, err := HNSWFromGraph(s, g, 0, 0); err == nil {
			t.Errorf("%s: corrupt graph accepted", tc.name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"zero value", Config{}, false},
		{"exact dot", Config{Kind: KindExact, Metric: Dot}, false},
		{"exact with seed", Config{Kind: KindExact, Seed: 42}, false},
		{"hnsw defaults", Config{Kind: KindHNSW}, false},
		{"hnsw tuned", Config{Kind: KindHNSW, Metric: Euclidean, M: 32, EfConstruction: 400, EfSearch: 256}, false},
		{"unknown kind", Config{Kind: Kind(9)}, true},
		{"kind past hnsw", Config{Kind: KindHNSW + 1}, true},
		{"unknown metric", Config{Metric: Metric(9)}, true},
		{"negative workers", Config{Workers: -1}, true},
		{"negative m", Config{Kind: KindHNSW, M: -16}, true},
		{"negative efsearch", Config{Kind: KindHNSW, EfSearch: -1}, true},
		{"hnsw params on exact", Config{Kind: KindExact, EfSearch: 64}, true},
	}
	s := randStore(30, 4, 139)
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tc.name, err, tc.wantErr)
			continue
		}
		// Open must agree with Validate: never panic, never silently
		// reinterpret an invalid configuration.
		idx, openErr := Open(s, tc.cfg)
		if tc.wantErr {
			if openErr == nil {
				t.Errorf("%s: Open accepted an invalid config (%T)", tc.name, idx)
			}
		} else if openErr != nil {
			t.Errorf("%s: Open rejected a valid config: %v", tc.name, openErr)
		}
	}
}
