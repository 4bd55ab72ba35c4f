package v2v

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"v2v/internal/graph"
)

func streamingTestOptions() Options {
	o := DefaultOptions(16)
	o.WalksPerVertex = 4
	o.WalkLength = 30
	o.Epochs = 2
	o.Seed = 17
	o.Workers = 1
	return o
}

// embedMaterialized trains on the stored corpus of opts' walks: the
// reference Embed's streamed walks are held to.
func embedMaterialized(t *testing.T, g *Graph, opts Options) *Embedding {
	t.Helper()
	corpus, err := GenerateWalks(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := EmbedWalks(g, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// sameEmbedding requires got to have want's token count and vector
// bits.
func sameEmbedding(t *testing.T, got, want *Embedding) {
	t.Helper()
	if got.Tokens != want.Tokens {
		t.Fatalf("Tokens = %d, want %d", got.Tokens, want.Tokens)
	}
	for i := range want.Model.Vectors {
		if got.Model.Vectors[i] != want.Model.Vectors[i] {
			t.Fatalf("vector[%d] = %g, want %g (paths diverged)",
				i, got.Model.Vectors[i], want.Model.Vectors[i])
		}
	}
}

// TestStreamingEmbeddingParity is the headline determinism guarantee:
// with a fixed seed and Workers = 1, Embed, which streams its walks,
// is bit-identical to training on the materialized corpus.
func TestStreamingEmbeddingParity(t *testing.T) {
	g, _ := CommunityBenchmark(DefaultBenchmarkConfig(0.5, 3))
	opts := streamingTestOptions()
	got, err := Embed(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEmbedding(t, got, embedMaterialized(t, g, opts))
}

// TestStreamingWalkMultisetParity: with Workers = N the streaming
// shards, drained concurrently, produce exactly the walk multiset of
// the materialized corpus.
func TestStreamingWalkMultisetParity(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 5)
	opts := streamingTestOptions()
	opts.Workers = 4

	corpus, err := GenerateWalks(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, corpus.NumWalks())
	for i := 0; i < corpus.NumWalks(); i++ {
		want[i] = fmt.Sprint(corpus.Walk(i))
	}

	stream, err := StreamWalks(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	workers := 4
	numWalks := stream.NumWalks()
	shardWalks := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * numWalks / workers
		hi := (w + 1) * numWalks / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for wk := range stream.WalkSeq(lo, hi) {
				shardWalks[w] = append(shardWalks[w], fmt.Sprint(wk))
			}
		}(w, lo, hi)
	}
	wg.Wait()

	var got []string
	for _, s := range shardWalks {
		got = append(got, s...)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d walks, want %d", len(got), len(want))
	}
	sortedWant := append([]string(nil), want...)
	sort.Strings(sortedWant)
	sort.Strings(got)
	for i := range got {
		if got[i] != sortedWant[i] {
			t.Fatalf("walk multiset mismatch at rank %d: %s vs %s", i, got[i], sortedWant[i])
		}
	}
}

// TestStreamingSharedWalkParity: the Figure 9 protocol — several
// models trained "in the same set of random walk paths" — must give
// identical results whether EmbedWalks is handed the shared walks as a
// materialized corpus or as a stream re-derived per model.
func TestStreamingSharedWalkParity(t *testing.T) {
	g := graph.ErdosRenyiGNM(70, 250, 11)
	walkOpts := streamingTestOptions()

	corpus, err := GenerateWalks(g, walkOpts)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := StreamWalks(g, walkOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []int{8, 24} {
		modelOpts := walkOpts
		modelOpts.Dim = dim
		want, err := EmbedWalks(g, corpus, modelOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EmbedWalks(g, stream, modelOpts)
		if err != nil {
			t.Fatal(err)
		}
		sameEmbedding(t, got, want)
	}
}

// TestStreamingEmptyGraph: Embed and EmbedWalks over a stream both
// reject the degenerate zero-vertex graph.
func TestStreamingEmptyGraph(t *testing.T) {
	g := NewGraphBuilder(0).Build()
	opts := streamingTestOptions()
	if _, err := Embed(g, opts); err == nil {
		t.Error("Embed accepted an empty graph")
	}
	stream, err := StreamWalks(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmbedWalks(g, stream, opts); err == nil {
		t.Error("EmbedWalks accepted the stream of an empty graph")
	}
}

// TestStreamingIsolatedVertices: a graph of only isolated vertices
// yields length-1 walks, streamed or stored, which must still agree.
func TestStreamingIsolatedVertices(t *testing.T) {
	g := NewGraphBuilder(8).Build()
	opts := streamingTestOptions()
	opts.WalksPerVertex = 2
	got, err := Embed(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEmbedding(t, got, embedMaterialized(t, g, opts))
}
