package walk

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

// generate materializes the walks of cfg over g.
func generate(t *testing.T, g *graph.Graph, cfg Config) *Corpus {
	t.Helper()
	return mustStream(t, g, cfg).Materialize()
}

func TestUniformWalkShape(t *testing.T) {
	g := graph.Ring(10)
	c := generate(t, g, Config{WalksPerVertex: 3, Length: 7, Seed: 1})
	if c.NumWalks() != 30 {
		t.Fatalf("walks = %d, want 30", c.NumWalks())
	}
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if len(w) != 7 {
			t.Fatalf("walk %d has length %d, want 7 (ring has no dead ends)", i, len(w))
		}
		start := i / 3
		if int(w[0]) != start {
			t.Fatalf("walk %d starts at %d, want %d", i, w[0], start)
		}
	}
}

func TestWalkStepsFollowEdges(t *testing.T) {
	g, _ := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 2, CommunitySize: 15, Alpha: 0.6, InterEdges: 4, Seed: 3,
	})
	c := generate(t, g, Config{WalksPerVertex: 2, Length: 20, Seed: 2})
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		for j := 1; j < len(w); j++ {
			if !g.HasEdge(int(w[j-1]), int(w[j])) {
				t.Fatalf("walk %d step %d: %d -> %d is not an edge", i, j, w[j-1], w[j])
			}
		}
	}
}

func TestWalkDeterministicAcrossWorkerCounts(t *testing.T) {
	g := graph.ErdosRenyiGNM(60, 200, 4)
	var tokens [][]int32
	for _, workers := range []int{1, 3, 8} {
		c := generate(t, g, Config{WalksPerVertex: 4, Length: 12, Seed: 99, Workers: workers})
		tokens = append(tokens, append([]int32(nil), c.Tokens...))
	}
	for i := 1; i < len(tokens); i++ {
		if len(tokens[i]) != len(tokens[0]) {
			t.Fatalf("worker count changed corpus size: %d vs %d", len(tokens[i]), len(tokens[0]))
		}
		for j := range tokens[0] {
			if tokens[i][j] != tokens[0][j] {
				t.Fatalf("worker count changed corpus content at %d", j)
			}
		}
	}
}

func TestDirectedWalkTerminatesAtSink(t *testing.T) {
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2) // 2 is a sink
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 5, Length: 50, Seed: 1})
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if int(w[len(w)-1]) != 2 && len(w) == 50 {
			t.Fatalf("walk %d should have been truncated at the sink: %v", i, w)
		}
		// From 0 the walk is forced 0,1,2.
		if w[0] == 0 {
			if len(w) != 3 || w[1] != 1 || w[2] != 2 {
				t.Fatalf("walk from 0 should be [0 1 2], got %v", w)
			}
		}
	}
}

func TestIsolatedVertexWalkIsSingleton(t *testing.T) {
	b := graph.NewBuilder(3) // vertex 2 isolated
	b.AddEdge(0, 1)
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 2, Length: 10, Seed: 1})
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if int(w[0]) == 2 && len(w) != 1 {
			t.Fatalf("isolated vertex walk has length %d", len(w))
		}
	}
}

func TestEdgeWeightedWalkBias(t *testing.T) {
	// Star with one heavy edge: 0-1 weight 9, 0-2 weight 1.
	b := graph.NewBuilder(0)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(0, 2, 1)
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 3000, Length: 2, Strategy: EdgeWeighted, Seed: 11})
	to1, to2 := 0, 0
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if w[0] != 0 || len(w) < 2 {
			continue
		}
		switch w[1] {
		case 1:
			to1++
		case 2:
			to2++
		}
	}
	frac := float64(to1) / float64(to1+to2)
	if math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("heavy edge chosen %.3f of the time, want ~0.9", frac)
	}
}

func TestVertexWeightedWalkBias(t *testing.T) {
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.SetVertexWeight(1, 4)
	b.SetVertexWeight(2, 1)
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 3000, Length: 2, Strategy: VertexWeighted, Seed: 13})
	to1, to2 := 0, 0
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if w[0] != 0 || len(w) < 2 {
			continue
		}
		switch w[1] {
		case 1:
			to1++
		case 2:
			to2++
		}
	}
	frac := float64(to1) / float64(to1+to2)
	if math.Abs(frac-0.8) > 0.03 {
		t.Fatalf("heavy vertex chosen %.3f of the time, want ~0.8", frac)
	}
}

func TestTemporalWalkIncreasingTimes(t *testing.T) {
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	b.AddTemporalEdge(0, 1, 1, 10)
	b.AddTemporalEdge(1, 2, 1, 20)
	b.AddTemporalEdge(2, 0, 1, 5) // would go back in time
	b.AddTemporalEdge(2, 3, 1, 30)
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 10, Length: 10, Strategy: Temporal, Seed: 17})
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if int(w[0]) == 0 {
			// Forced path 0 -(10)-> 1 -(20)-> 2 -(30)-> 3; the t=5
			// edge 2->0 is inadmissible after t=20.
			want := []int32{0, 1, 2, 3}
			if len(w) != len(want) {
				t.Fatalf("temporal walk %v, want %v", w, want)
			}
			for j := range want {
				if w[j] != want[j] {
					t.Fatalf("temporal walk %v, want %v", w, want)
				}
			}
		}
	}
}

func TestTemporalWindowConstraint(t *testing.T) {
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	b.AddTemporalEdge(0, 1, 1, 10)
	b.AddTemporalEdge(1, 2, 1, 1000) // gap of 990
	g := b.Build()
	c := generate(t, g, Config{WalksPerVertex: 5, Length: 10, Strategy: Temporal, TemporalWindow: 100, Seed: 19})
	for i := 0; i < c.NumWalks(); i++ {
		w := c.Walk(i)
		if int(w[0]) == 0 {
			if len(w) != 2 {
				t.Fatalf("window should stop the walk at [0 1], got %v", w)
			}
		}
	}
	// Without the window the walk continues to 2.
	c2 := generate(t, g, Config{WalksPerVertex: 5, Length: 10, Strategy: Temporal, Seed: 19})
	found := false
	for i := 0; i < c2.NumWalks(); i++ {
		w := c2.Walk(i)
		if int(w[0]) == 0 && len(w) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("unwindowed temporal walk never reached vertex 2")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Ring(5)
	cases := []Config{
		{WalksPerVertex: 0, Length: 5},
		{WalksPerVertex: 5, Length: 0},
		{WalksPerVertex: 1, Length: 1, Strategy: EdgeWeighted},   // unweighted graph
		{WalksPerVertex: 1, Length: 1, Strategy: VertexWeighted}, // no vertex weights
		{WalksPerVertex: 1, Length: 1, Strategy: Temporal},       // no timestamps
		{WalksPerVertex: 1, Length: 1, Strategy: Strategy(99)},
	}
	for i, cfg := range cases {
		if _, err := NewStream(g, cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

func TestCorpusCounts(t *testing.T) {
	g := graph.Ring(6)
	c := generate(t, g, Config{WalksPerVertex: 2, Length: 5, Seed: 31})
	counts, err := c.Counts(6)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != c.NumTokens() {
		t.Fatalf("counts total %d != tokens %d", total, c.NumTokens())
	}
	if c.NumTokens() != 6*2*5 {
		t.Fatalf("tokens = %d", c.NumTokens())
	}
	// A token outside the vocabulary is an error, never an index panic.
	if _, err := c.Counts(3); err == nil {
		t.Error("Counts(3) on a 6-vertex ring corpus accepted")
	}
	negative := &Corpus{Tokens: []int32{0, -1}, Offsets: []int{0, 2}}
	if _, err := negative.Counts(6); err == nil {
		t.Error("Counts accepted a negative token")
	}
}

func TestUniformWalkVisitsAllNeighborsEventually(t *testing.T) {
	g := graph.Star(5) // hub 0 with leaves 1..4
	c := generate(t, g, Config{WalksPerVertex: 50, Length: 9, Seed: 37})
	visited := make(map[int32]bool)
	for i := 0; i < c.NumWalks(); i++ {
		for _, tok := range c.Walk(i) {
			visited[tok] = true
		}
	}
	if len(visited) != 5 {
		t.Fatalf("visited %d vertices of 5", len(visited))
	}
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	g := graph.ErdosRenyiGNM(30, 80, 51)
	c1 := generate(t, g, Config{WalksPerVertex: 3, Length: 12, Seed: 52})
	var buf bytes.Buffer
	if err := c1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumWalks() != c2.NumWalks() || c1.NumTokens() != c2.NumTokens() {
		t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
			c1.NumWalks(), c1.NumTokens(), c2.NumWalks(), c2.NumTokens())
	}
	for i := 0; i < c1.NumWalks(); i++ {
		w1, w2 := c1.Walk(i), c2.Walk(i)
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("walk %d token %d differs", i, j)
			}
		}
	}
}

func TestLoadCorpusErrors(t *testing.T) {
	for _, in := range []string{
		"1 x 3\n",
		"-1 2\n",
		"0 1\n4294967296 1\n", // 2³² would wrap to vertex 0
		"0 1\n2147483648 1\n", // 2³¹ would wrap negative
	} {
		if _, err := LoadCorpus(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	c, err := LoadCorpus(strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumWalks() != 0 {
		t.Fatal("comment-only corpus should be empty")
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	at := NewAliasTable(weights)
	if at.Len() != 4 {
		t.Fatalf("Len = %d", at.Len())
	}
	rng := xrand.New(41)
	const draws = 200000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		counts[at.Sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("outcome %d drawn %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasTableSingleOutcome(t *testing.T) {
	at := NewAliasTable([]float64{42})
	rng := xrand.New(1)
	for i := 0; i < 10; i++ {
		if at.Sample(rng) != 0 {
			t.Fatal("single-outcome table sampled nonzero")
		}
	}
}

func TestAliasTablePanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {1, -1}} {
		w := weights
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAliasTable(%v) did not panic", w)
				}
			}()
			NewAliasTable(w)
		}()
	}
}

// Property: alias tables preserve probability mass — every outcome
// with positive weight is reachable, zero-weight outcomes are not.
func TestAliasTableSupportProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(12)
		weights := make([]float64, n)
		positive := 0
		for i := range weights {
			if rng.Float64() < 0.7 {
				weights[i] = rng.Float64() + 0.01
				positive++
			}
		}
		if positive == 0 {
			weights[0] = 1
		}
		at := NewAliasTable(weights)
		seen := make(map[int]bool)
		for i := 0; i < 4000; i++ {
			s := at.Sample(rng)
			if weights[s] == 0 {
				return false // sampled an impossible outcome
			}
			seen[s] = true
		}
		for i, w := range weights {
			if w > 0.05 && !seen[i] {
				return false // plausible outcome never seen
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
