package walk

import (
	"iter"
	"runtime"
	"slices"
	"testing"
	"time"

	"v2v/internal/graph"
)

func mustStream(t *testing.T, g *graph.Graph, cfg Config) *Stream {
	t.Helper()
	s, err := NewStream(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkWalks drains seq and requires its walks to be want's walks
// first, first+1, ... token for token. It returns how many it read.
func checkWalks(t *testing.T, seq iter.Seq[[]int32], want *Corpus, first int) int {
	t.Helper()
	i := first
	for w := range seq {
		if !slices.Equal(w, want.Walk(i)) {
			t.Fatalf("walk %d: %v, want %v", i, w, want.Walk(i))
		}
		i++
	}
	return i - first
}

// TestStreamCountsMatchCorpus checks that the counting pass agrees
// exactly with the materialized corpus counts.
func TestStreamCountsMatchCorpus(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 5)
	cfg := Config{WalksPerVertex: 3, Length: 15, Seed: 2}
	want, err := generate(t, g, cfg).Counts(g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustStream(t, g, cfg).Counts(g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("count[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestStreamCountsVocabTooSmall: a vocab smaller than the largest
// visited vertex must be rejected, as Corpus.Counts rejects it.
func TestStreamCountsVocabTooSmall(t *testing.T) {
	g := graph.Ring(10)
	s := mustStream(t, g, Config{WalksPerVertex: 1, Length: 5, Seed: 1})
	if _, err := s.Counts(3); err == nil {
		t.Fatal("Counts(3) on a 10-vertex ring corpus: want error, got nil")
	}
}

// TestStreamShardConcatenation: the concatenation of arbitrary shard
// iterators equals the full sequence (this is how trainer workers
// consume the stream). The long shards span several batches, more than
// are in flight at once, so buffers are recycled mid-shard.
func TestStreamShardConcatenation(t *testing.T) {
	g := graph.ErdosRenyiGNM(50, 180, 3)
	cfg := Config{WalksPerVertex: 6, Length: 12, Seed: 9}
	s := mustStream(t, g, cfg)
	want := generate(t, g, cfg)

	bounds := []int{0, 1, 7, 64, 64, 2*batchWalks + 71, s.NumWalks()}
	i := 0
	for k := 0; k+1 < len(bounds); k++ {
		i += checkWalks(t, s.WalkSeq(bounds[k], bounds[k+1]), want, i)
	}
	if i != s.NumWalks() {
		t.Fatalf("shards yielded %d walks, want %d", i, s.NumWalks())
	}
}

// TestStreamReopen: a shard can be re-opened any number of times and
// yields the same walks (the trainer re-opens every epoch).
func TestStreamReopen(t *testing.T) {
	g := graph.Ring(20)
	s := mustStream(t, g, Config{WalksPerVertex: 2, Length: 8, Seed: 4})
	var first [][]int32
	for w := range s.WalkSeq(5, 15) {
		first = append(first, append([]int32(nil), w...))
	}
	for round := 0; round < 3; round++ {
		i := 0
		for w := range s.WalkSeq(5, 15) {
			for j := range w {
				if w[j] != first[i][j] {
					t.Fatalf("round %d walk %d token %d: %d, want %d", round, i, j, w[j], first[i][j])
				}
			}
			i++
		}
		if i != len(first) {
			t.Fatalf("round %d yielded %d walks, want %d", round, i, len(first))
		}
	}
}

// TestStreamEarlyStop: breaking out of the iterator must stop the
// producer goroutine rather than leak it.
func TestStreamEarlyStop(t *testing.T) {
	g := graph.Ring(30)
	s := mustStream(t, g, Config{WalksPerVertex: 10, Length: 50, Seed: 6})
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		n := 0
		for range s.WalkSeq(0, s.NumWalks()) {
			n++
			if n == 3 {
				break
			}
		}
	}
	// Producers exit asynchronously after the stop signal; poll
	// briefly rather than flake.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines after early stops: %d, was %d (producer leak)", n, before)
	}
}

// TestStreamEmpty: a zero-vertex graph yields a zero-walk stream, the
// streaming analogue of the empty-corpus edge case.
func TestStreamEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	s := mustStream(t, g, Config{WalksPerVertex: 5, Length: 5, Seed: 1})
	if s.NumWalks() != 0 {
		t.Fatalf("NumWalks = %d, want 0", s.NumWalks())
	}
	if s.NumTokens() != 0 {
		t.Fatalf("NumTokens = %d, want 0", s.NumTokens())
	}
	for range s.WalkSeq(0, 0) {
		t.Fatal("empty stream yielded a walk")
	}
	for range s.WalkSeq(0, s.NumWalks()) {
		t.Fatal("empty stream yielded a walk")
	}
	if c := s.Materialize(); c.NumWalks() != 0 || c.NumTokens() != 0 {
		t.Fatalf("materialized %d walks/%d tokens, want none", c.NumWalks(), c.NumTokens())
	}
}

// checkMaterialize requires Materialize, sharded over 1 and 3 workers,
// to store exactly the walks WalkSeq yields, in walk-ID order, with
// the token count of the counting pass.
func checkMaterialize(t *testing.T, g *graph.Graph, cfg Config) {
	t.Helper()
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		s := mustStream(t, g, cfg)
		got := s.Materialize()
		if got.NumWalks() != s.NumWalks() || got.NumTokens() != s.NumTokens() {
			t.Fatalf("workers=%d: materialized %d walks/%d tokens, stream has %d/%d", workers,
				got.NumWalks(), got.NumTokens(), s.NumWalks(), s.NumTokens())
		}
		if n := checkWalks(t, s.WalkSeq(0, s.NumWalks()), got, 0); n != got.NumWalks() {
			t.Fatalf("workers=%d: stream yielded %d walks, want %d", workers, n, got.NumWalks())
		}
	}
}

// TestStreamMaterialize is the core determinism contract: the one
// materializer stores walk i of the stream as walk i of the corpus.
func TestStreamMaterialize(t *testing.T) {
	checkMaterialize(t, graph.ErdosRenyiGNM(80, 300, 7), Config{WalksPerVertex: 4, Length: 25, Seed: 11})
}

// TestStreamStrategies: the determinism contract holds for every walk
// strategy, not just Uniform.
func TestStreamStrategies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"edge-weighted", weightedTestGraph(), Config{WalksPerVertex: 3, Length: 10, Strategy: EdgeWeighted, Seed: 3}},
		{"node2vec", graph.ErdosRenyiGNM(40, 150, 2), Config{WalksPerVertex: 3, Length: 10, Strategy: Node2Vec, ReturnParam: 1, InOutParam: 0.5, Seed: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMaterialize(t, tc.g, tc.cfg) })
	}
}

// weightedTestGraph builds a small weighted graph for strategy tests.
func weightedTestGraph() *graph.Graph {
	b := graph.NewBuilder(12)
	for i := 0; i < 12; i++ {
		b.AddWeightedEdge(i, (i+1)%12, float64(1+i%3))
		b.AddWeightedEdge(i, (i+5)%12, 2)
	}
	return b.Build()
}
