package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// buildTestGraph trains a small deterministic model and an HNSW index
// over it.
func buildTestGraph(t *testing.T, n, dim int) (*word2vec.Model, []string, *vecstore.HNSW) {
	t.Helper()
	m, tokens := testModel(n, dim, 17)
	h, err := vecstore.NewHNSW(m.Store(), vecstore.Cosine, vecstore.HNSWConfig{Seed: 5, M: 6, EfConstruction: 24})
	if err != nil {
		t.Fatal(err)
	}
	return m, tokens, h
}

// bundleConfig is the index configuration buildBundle builds with.
func bundleConfig(shards int) vecstore.Config {
	return vecstore.Config{Kind: vecstore.KindHNSW, Shards: shards, Seed: 7, M: 6, EfConstruction: 24}
}

// buildBundle trains a small deterministic model, builds an HNSW index
// over it with shards shards (a flat index at 1) and saves both as a
// bundle. It returns the index and the bundle's path.
func buildBundle(t *testing.T, n, dim, shards int) (vecstore.Index, string) {
	t.Helper()
	m, tokens := testModel(n, dim, 29)
	idx, err := vecstore.Open(m.Store(), bundleConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*vecstore.HNSWGraph
	switch h := idx.(type) {
	case *vecstore.HNSW:
		graphs = []*vecstore.HNSWGraph{h.Graph()}
	case *vecstore.Sharded:
		if graphs, err = h.Graphs(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "bundle.snap")
	if err := SaveBundleFile(path, m, tokens, graphs); err != nil {
		t.Fatalf("SaveBundleFile: %v", err)
	}
	return idx, path
}

// loadTrailer decodes data as an index trailer.
func loadTrailer(data []byte) ([]*vecstore.HNSWGraph, int, error) {
	return loadIndex(bufio.NewReaderSize(bytes.NewReader(data), 1<<16))
}

// trailer encodes graphs as an index trailer.
func trailer(t testing.TB, dim int, graphs ...*vecstore.HNSWGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := saveIndex(&buf, dim, graphs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexGraphRoundTrip saves flat and sharded indexes as bundles and
// requires the loaded graphs to bind to the same answers and to save
// back to the same bytes: a one-graph bundle is a one-shard bundle.
func TestIndexGraphRoundTrip(t *testing.T) {
	const n, dim = 80, 6
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, path := buildBundle(t, n, dim, shards)
			b, err := LoadBundle(path)
			if err != nil {
				t.Fatalf("LoadBundle: %v", err)
			}
			if len(b.Shards) != shards {
				t.Fatalf("bundle carries %d graphs, want %d", len(b.Shards), shards)
			}
			if b.Model.Vocab != n || b.Model.Dim != dim || len(b.Tokens) != n {
				t.Fatalf("model mangled: %dx%d, %d tokens", b.Model.Vocab, b.Model.Dim, len(b.Tokens))
			}
			var bound vecstore.Index
			if shards == 1 {
				bound, err = vecstore.HNSWFromGraph(b.Model.Store(), b.Shards[0], 0, 0)
			} else {
				bound, err = vecstore.OpenShardedFromGraphs(b.Model.Store(), b.Shards, bundleConfig(shards))
			}
			if err != nil {
				t.Fatalf("binding: %v", err)
			}
			for row := 0; row < n; row += 7 {
				a, c := idx.SearchRow(row, 5), bound.SearchRow(row, 5)
				if len(a) != len(c) {
					t.Fatalf("row %d: %d vs %d results", row, len(a), len(c))
				}
				for i := range a {
					if a[i] != c[i] {
						t.Fatalf("row %d rank %d: %+v vs %+v after round trip", row, i, a[i], c[i])
					}
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := SaveBundle(&again, b.Model, b.Tokens, b.Shards); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Fatalf("a loaded bundle saves to %d bytes, not its own %d", again.Len(), len(raw))
			}
		})
	}

	// The saver refuses what the trailer cannot state: no graphs, graphs
	// that disagree on a shared header field, or graphs that do not
	// cover the model; with no graphs a bundle is a plain snapshot.
	m, tokens, h := buildTestGraph(t, 30, 6)
	g := h.Graph()
	if err := saveIndex(&bytes.Buffer{}, m.Dim, nil); err == nil {
		t.Fatal("saveIndex accepted no graphs")
	}
	for name, mut := range map[string]func(*vecstore.HNSWGraph){
		"metric":   func(o *vecstore.HNSWGraph) { o.Metric = vecstore.Dot },
		"M":        func(o *vecstore.HNSWGraph) { o.M++ },
		"efSearch": func(o *vecstore.HNSWGraph) { o.EfSearch++ },
	} {
		other := *g
		mut(&other)
		err := saveIndex(&bytes.Buffer{}, m.Dim, []*vecstore.HNSWGraph{g, &other})
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("saveIndex of shards disagreeing on %s: %v", name, err)
		}
	}
	if err := SaveBundle(&bytes.Buffer{}, m, tokens, []*vecstore.HNSWGraph{g, g}); err == nil {
		t.Fatal("SaveBundle accepted graphs covering twice the model's rows")
	}
	var plain, bundle bytes.Buffer
	if err := Save(&plain, m, tokens); err != nil {
		t.Fatal(err)
	}
	if err := SaveBundle(&bundle, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), bundle.Bytes()) {
		t.Fatal("a bundle without graphs is not a plain snapshot")
	}
}

func TestBundleRoundTripAndSniffing(t *testing.T) {
	m, tokens, h := buildTestGraph(t, 50, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.snap")
	if err := SaveBundleFile(path, m, tokens, []*vecstore.HNSWGraph{h.Graph()}); err != nil {
		t.Fatalf("SaveBundleFile: %v", err)
	}

	// Bundle loader sees model + graph.
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	if len(b.Shards) != 1 {
		t.Fatalf("bundle load returned %d index graphs, want 1", len(b.Shards))
	}
	if b.Model.Vocab != m.Vocab || b.Model.Dim != m.Dim || len(b.Tokens) != len(tokens) {
		t.Fatalf("bundle model mismatch: %dx%d / %d tokens", b.Model.Vocab, b.Model.Dim, len(b.Tokens))
	}
	if _, err := vecstore.HNSWFromGraph(b.Model.Store(), b.Shards[0], 0, 0); err != nil {
		t.Fatalf("binding bundled graph: %v", err)
	}

	// Model-only loaders must still read the bundle (they sniff and
	// tolerate the trailing index section).
	if m3, _, err := LoadFile(path); err != nil {
		t.Fatalf("LoadFile on a bundle: %v", err)
	} else if m3.Vocab != m.Vocab {
		t.Fatalf("LoadFile vocab %d, want %d", m3.Vocab, m.Vocab)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Load on a bundle: %v", err)
	}
	if _, _, err := LoadAuto(bytes.NewReader(raw)); err != nil {
		t.Fatalf("LoadAuto on a bundle: %v", err)
	}

	// A model-only snapshot reports no graphs, not an error.
	plain := filepath.Join(dir, "model.snap")
	if err := SaveBundleFile(plain, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	if b, err := LoadBundle(plain); err != nil || b.Shards != nil {
		t.Fatalf("model-only bundle load: %+v, err=%v", b, err)
	}

	// So does the text format.
	text := filepath.Join(dir, "model.txt")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	// (simple names: the text format cannot represent empty tokens)
	if err := m.Save(f, func(i int) string { return fmt.Sprintf("t%d", i) }); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if b, err := LoadBundle(text); err != nil || b.Shards != nil {
		t.Fatalf("text bundle load: %+v, err=%v", b, err)
	}
}

// TestIndexLoaderEdgeCases covers the sniffing failure modes: a
// zero-length file, a model-only snapshot fed to the index trailer
// loader, and a trailer with a corrupted CRC. All must return clean
// errors.
func TestIndexLoaderEdgeCases(t *testing.T) {
	m, tokens, h := buildTestGraph(t, 40, 6)

	// Zero-length input.
	if _, _, err := loadTrailer(nil); err == nil {
		t.Fatal("loadIndex accepted a zero-length stream")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.snap")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(empty); err == nil {
		t.Fatal("LoadBundle accepted a zero-length file")
	}
	if _, _, err := LoadFile(empty); err == nil {
		t.Fatal("LoadFile accepted a zero-length file")
	}

	// A model-only snapshot fed to the trailer loader fails on the magic
	// check with a hint, not a parse explosion.
	var model bytes.Buffer
	if err := Save(&model, m, tokens); err != nil {
		t.Fatal(err)
	}
	_, _, err := loadTrailer(model.Bytes())
	if err == nil {
		t.Fatal("loadIndex accepted a model snapshot")
	}
	if !strings.Contains(err.Error(), "model snapshot") {
		t.Fatalf("loadIndex error should name the model magic, got: %v", err)
	}

	// Corrupted CRC (and corrupted interior bytes) in the trailer must be
	// caught.
	full := trailer(t, m.Dim, h.Graph())
	for _, off := range []int{len(full) - 1, len(full) - 3, len(full)/2 + 1} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x20
		if _, _, err := loadTrailer(bad); err == nil {
			t.Fatalf("loadIndex accepted a corrupt byte at offset %d", off)
		}
	}
	// Truncations at assorted depths fail cleanly too.
	for _, cut := range []int{3, len(IndexMagic) + 2, len(full) / 3, len(full) - 2} {
		if _, _, err := loadTrailer(full[:cut]); err == nil {
			t.Fatalf("loadIndex accepted a stream truncated to %d bytes", cut)
		}
	}

	// A bundle whose trailer is corrupt must fail as a whole.
	var bundle bytes.Buffer
	if err := SaveBundle(&bundle, m, tokens, []*vecstore.HNSWGraph{h.Graph()}); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), bundle.Bytes()...)
	bad[len(bad)-2] ^= 0x11 // inside the trailer CRC
	badPath := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(badPath); err == nil {
		t.Fatal("LoadBundle accepted a bundle with a corrupt index CRC")
	}

	// A graph for a different model shape is corruption.
	other, otherTokens := testModel(39, 6, 23)
	var mixed bytes.Buffer
	if err := Save(&mixed, other, otherTokens); err != nil {
		t.Fatal(err)
	}
	mixed.Write(full)
	mixedPath := filepath.Join(dir, "mixed.snap")
	if err := os.WriteFile(mixedPath, mixed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(mixedPath); err == nil {
		t.Fatal("LoadBundle accepted a graph/model shape mismatch")
	}

	// Non-graph trailing garbage after a model section is still an
	// error on every loader.
	garbled := append(append([]byte(nil), model.Bytes()...), "notanindex"...)
	if _, _, err := Load(bytes.NewReader(garbled)); err == nil {
		t.Fatal("Load accepted non-graph trailing data")
	}
	garbledPath := filepath.Join(dir, "garbled.snap")
	if err := os.WriteFile(garbledPath, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(garbledPath); err == nil {
		t.Fatal("LoadBundle accepted non-graph trailing data")
	}
}

func TestShardedBundleCorruption(t *testing.T) {
	_, path := buildBundle(t, 60, 6, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Flip a byte inside the last shard's graph payload: the trailer's
	// CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-9] ^= 0x40
	badPath := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(badPath); err == nil {
		t.Fatal("LoadBundle accepted a corrupt shard graph")
	}

	// Corrupt the trailer's shard count.
	idx := bytes.Index(raw, []byte(IndexMagic))
	if idx < 0 {
		t.Fatal("index trailer magic not found in bundle")
	}
	badHdr := append([]byte(nil), raw...)
	badHdr[idx+25] ^= 0x01
	hdrPath := filepath.Join(dir, "badhdr.snap")
	if err := os.WriteFile(hdrPath, badHdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(hdrPath); err == nil {
		t.Fatal("LoadBundle accepted a corrupt shard count")
	}

	// Truncating mid-shard must fail cleanly, not hand back fewer
	// shards.
	trunc := raw[:idx+indexHeaderLen+(len(raw)-idx-indexHeaderLen)/2]
	truncPath := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(truncPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(truncPath); err == nil {
		t.Fatal("LoadBundle accepted a truncated sharded bundle")
	}
}
