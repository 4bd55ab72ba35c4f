package vecstore

import (
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

func TestHNSWDeterministicAcrossWorkerCounts(t *testing.T) {
	s := clusteredStore(3000, 16, 20, 83)
	build := func(workers int) *HNSW {
		h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 3, Workers: workers, M: 8, EfConstruction: 60})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := build(1), build(8)
	for _, row := range []int{0, 123, 2999} {
		ra, rb := a.SearchRow(row, 10), b.SearchRow(row, 10)
		if len(ra) != len(rb) {
			t.Fatalf("row %d: result counts differ: %d vs %d", row, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d rank %d differs across build workers: %+v vs %+v", row, i, ra[i], rb[i])
			}
		}
	}
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
		{"ivf defaults", Config{Kind: KindIVF}, false},
		{"ivf tuned", Config{Kind: KindIVF, NLists: 100, NProbe: 10}, false},
		{"hnsw defaults", Config{Kind: KindHNSW}, false},
		{"hnsw tuned", Config{Kind: KindHNSW, Metric: Euclidean, M: 32, EfConstruction: 400, EfSearch: 256}, false},
		{"unknown kind", Config{Kind: Kind(9)}, true},
		{"unknown metric", Config{Metric: Metric(9)}, true},
		{"negative workers", Config{Workers: -1}, true},
		{"negative nlists", Config{Kind: KindIVF, NLists: -4}, true},
		{"negative nprobe", Config{Kind: KindIVF, NProbe: -1}, true},
		{"negative m", Config{Kind: KindHNSW, M: -16}, true},
		{"negative efsearch", Config{Kind: KindHNSW, EfSearch: -1}, true},
		{"nprobe above nlists", Config{Kind: KindIVF, NLists: 4, NProbe: 5}, true},
		{"nprobe without nlists ok", Config{Kind: KindIVF, NProbe: 7}, false},
		{"ivf params on exact", Config{Kind: KindExact, NProbe: 2}, true},
		{"ivf params on hnsw", Config{Kind: KindHNSW, NLists: 8}, true},
		{"hnsw params on exact", Config{Kind: KindExact, EfSearch: 64}, true},
		{"hnsw params on ivf", Config{Kind: KindIVF, M: 16}, true},
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
