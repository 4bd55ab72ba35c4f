package v2v

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestVectorIndexThroughFacade exercises the public index surface:
// train, build an exact index, and check the embedding's own query
// path agrees with the model's.
func TestVectorIndexThroughFacade(t *testing.T) {
	g, _ := CommunityBenchmark(DefaultBenchmarkConfig(0.8, 21))
	opts := DefaultOptions(16)
	opts.WalksPerVertex = 4
	opts.WalkLength = 30
	opts.Epochs = 1
	opts.Seed = 23
	emb, err := Embed(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := NewIndex(emb.Model, IndexConfig{Kind: ExactIndex})
	if err != nil {
		t.Fatal(err)
	}
	if a := exact.Search(emb.Model.Store().Row(0), 5); len(a) != 5 {
		t.Fatalf("result size %d", len(a))
	}

	// Neighbors through the embedding's configured index.
	nn, err := emb.Neighbors(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].Word == 0 {
		t.Fatalf("Neighbors(0, 3) = %+v", nn)
	}
	// Must agree with the model's own exact query path.
	direct := emb.Model.Neighbors(0, 3)
	for i := range nn {
		if nn[i] != direct[i] {
			t.Fatalf("embedding index diverged: %+v vs %+v", nn[i], direct[i])
		}
	}
}

// TestHNSWIndexThroughFacade exercises the HNSW surface end to end:
// build through NewIndex, persist through SaveIndexedSnapshot, bind
// through LoadIndexedSnapshot, and require identical answers — flat and
// sharded, at several worker counts. A bundle's bytes do not depend on
// the worker count that built it, and the loaded index binds the saved
// graphs instead of rebuilding: saving it again gives the same bytes.
func TestHNSWIndexThroughFacade(t *testing.T) {
	g, _ := CommunityBenchmark(DefaultBenchmarkConfig(0.8, 31))
	opts := DefaultOptions(16)
	opts.WalksPerVertex = 4
	opts.WalkLength = 30
	opts.Epochs = 1
	opts.Seed = 37
	emb, err := Embed(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, g.NumVertices())
	for v := range tokens {
		tokens[v] = g.Name(v)
	}
	dir := t.TempDir()
	var path string // the last bundle saved, for the checks below
	for _, shards := range []int{1, 2} {
		var first []byte
		for _, workers := range []int{1, 2, 4} {
			hnsw, err := NewIndex(emb.Model, IndexConfig{Kind: HNSWIndex, Shards: shards, M: 8, EfConstruction: 40, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			path = filepath.Join(dir, fmt.Sprintf("bundle-%d-%d.snap", shards, workers))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveIndexedSnapshot(f, emb.Model, tokens, hnsw); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = saved
			} else if !bytes.Equal(saved, first) {
				t.Fatalf("shards=%d: the bundle built at %d workers differs from the one built at 1", shards, workers)
			}

			m2, tokens2, idx2, err := LoadIndexedSnapshot(path, IndexConfig{Kind: HNSWIndex, Shards: shards, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if m2.Vocab != emb.Model.Vocab || len(tokens2) != len(tokens) {
				t.Fatalf("bundle shape: %d vectors, %d tokens", m2.Vocab, len(tokens2))
			}
			var again bytes.Buffer
			if err := SaveIndexedSnapshot(&again, m2, tokens2, idx2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved) {
				t.Fatalf("shards=%d workers=%d: the loaded index is not the saved graphs (rebuilt?)", shards, workers)
			}
			for row := 0; row < emb.Model.Vocab; row += 97 {
				a, b := hnsw.SearchRow(row, 10), idx2.SearchRow(row, 10)
				if len(a) != len(b) {
					t.Fatalf("shards=%d workers=%d row %d: %d vs %d results", shards, workers, row, len(a), len(b))
				}
				for i := range a {
					if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
						t.Fatalf("shards=%d workers=%d row %d rank %d: %+v vs %+v after persistence", shards, workers, row, i, a[i], b[i])
					}
				}
			}
		}
	}

	// A non-HNSW index cannot be persisted.
	exact, err := NewIndex(emb.Model, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndexedSnapshot(os.NewFile(0, "discard"), emb.Model, tokens, exact); err == nil {
		t.Fatal("SaveIndexedSnapshot accepted an exact index")
	}

	// Loading the bundle with an exact config ignores the graph and
	// still answers queries.
	_, _, idx3, err := LoadIndexedSnapshot(path, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx3.SearchRow(0, 3); len(got) != 3 {
		t.Fatalf("exact-over-bundle SearchRow returned %d results", len(got))
	}

	// Validation errors are descriptive, not panics.
	if _, err := NewIndex(emb.Model, IndexConfig{Kind: ExactIndex, EfSearch: 64}); err == nil {
		t.Fatal("NewIndex accepted HNSW parameters on an exact index")
	}
}

// TestOptionsIndexDrivesPrediction checks Options.Index reaches the
// missing-label fast path.
func TestOptionsIndexDrivesPrediction(t *testing.T) {
	g, truth := CommunityBenchmark(DefaultBenchmarkConfig(0.9, 31))
	opts := DefaultOptions(16)
	opts.WalksPerVertex = 4
	opts.WalkLength = 30
	opts.Epochs = 2
	opts.Seed = 33
	opts.Index = IndexConfig{Kind: HNSWIndex, M: 8, Seed: 5}
	emb, err := Embed(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := append([]int(nil), truth...)
	for i := 0; i < len(labels); i += 10 {
		labels[i] = -1
	}
	completed, err := emb.PredictLabels(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i := 0; i < len(labels); i += 10 {
		total++
		if completed[i] == truth[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Fatalf("HNSW-indexed label recovery accuracy %.3f", acc)
	}
}
