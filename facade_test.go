package v2v

import (
	"bytes"
	"testing"
)

// These tests exercise the thinner public wrappers so the facade has
// the same behavioural coverage as the internal packages.

func TestCorpusReuseMatchesPaperProtocol(t *testing.T) {
	g, truth := miniBenchmark(0.7, 33)
	opts := miniOptions(16)
	corpus, err := GenerateWalks(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.NumWalks() != g.NumVertices()*opts.WalksPerVertex {
		t.Fatalf("corpus has %d walks", corpus.NumWalks())
	}
	// Two models of different dimensionality trained on the SAME walk
	// set (the paper's Figure 9 protocol).
	for _, dim := range []int{8, 32} {
		o := miniOptions(dim)
		emb, err := EmbedWalks(g, corpus, o)
		if err != nil {
			t.Fatal(err)
		}
		if emb.Model.Dim != dim {
			t.Fatalf("dim %d model has dim %d", dim, emb.Model.Dim)
		}
		res, err := emb.DetectCommunities(CommunityConfig{K: 5, Restarts: 10, Seed: 34})
		if err != nil {
			t.Fatal(err)
		}
		if p, r, _ := EvaluateCommunities(truth, res.Partition); p < 0.8 || r < 0.8 {
			t.Fatalf("dim %d on shared corpus: %.2f/%.2f", dim, p, r)
		}
	}
}

func TestCorpusSaveLoadThroughFacade(t *testing.T) {
	g, _ := miniBenchmark(0.5, 35)
	corpus, err := GenerateWalks(g, miniOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpus.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWalks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTokens() != corpus.NumTokens() {
		t.Fatal("corpus round trip lost tokens")
	}
	if _, err := EmbedWalks(g, loaded, miniOptions(8)); err != nil {
		t.Fatalf("training on reloaded corpus: %v", err)
	}
}

func TestPCAOf(t *testing.T) {
	rows := [][]float64{{1, 0, 0}, {2, 0, 0}, {3, 0.1, 0}, {4, 0, 0.1}}
	pca, err := PCAOf(rows, 2, 39)
	if err != nil {
		t.Fatal(err)
	}
	if pca.Components.Rows != 2 {
		t.Fatal("PCAOf shape wrong")
	}
}

func TestTemporalWindowOptionThroughFacade(t *testing.T) {
	b := NewGraphBuilder(0)
	b.SetDirected(true)
	for i := 0; i < 30; i++ {
		b.AddTemporalEdge(i, (i+1)%30, 1, int64(i))
	}
	g := b.Build()
	o := miniOptions(8)
	o.Strategy = TemporalWalk
	o.TemporalWindow = 2
	emb, err := Embed(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Tokens == 0 {
		t.Fatal("no tokens with temporal window")
	}
}
