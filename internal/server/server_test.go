package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
	"v2v/internal/xrand"
)

// testModel builds a deterministic random model.
func testModel(vocab, dim int, seed uint64) (*word2vec.Model, []string) {
	m := word2vec.NewModel(vocab, dim)
	rng := xrand.New(seed)
	for i := range m.Vectors {
		m.Vectors[i] = float32(rng.Float64()*2 - 1)
	}
	tokens := make([]string, vocab)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("v%d", i)
	}
	return m, tokens
}

func newTestServer(t *testing.T, cfg Config, vocab, dim int) (*Server, *httptest.Server) {
	t.Helper()
	m, tokens := testModel(vocab, dim, 42)
	s, err := NewFromModel(cfg, m, tokens)
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 50, 8)
	var out map[string]any
	if code := getJSON(t, hs.URL+"/healthz", &out); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if out["status"] != "ok" || out["vectors"].(float64) != 50 || out["generation"].(float64) != 1 {
		t.Fatalf("healthz body: %v", out)
	}
}

func TestNeighborsMatchesModel(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 120, 12)
	var out NeighborsResponse
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v7&k=5", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	// newTestServer builds the model deterministically (seed 42);
	// recompute the expected answer from an identical copy.
	m, _ := testModel(120, 12, 42)
	want := m.Neighbors(7, 5)
	if len(out.Neighbors) != 5 {
		t.Fatalf("got %d neighbors", len(out.Neighbors))
	}
	for i, n := range out.Neighbors {
		if n.Vertex != fmt.Sprintf("v%d", want[i].Word) || n.Score != want[i].Similarity {
			t.Fatalf("neighbor %d: got %+v, want %+v", i, n, want[i])
		}
	}
}

func TestNeighborsErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 50, 8)
	var out map[string]string
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=nosuch", &out); code != 404 {
		t.Fatalf("unknown vertex: status %d, want 404", code)
	}
	if !strings.Contains(out["error"], "nosuch") {
		t.Fatalf("error body: %v", out)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=-3", nil); code != 400 {
		t.Fatalf("bad k: status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors", nil); code != 400 {
		t.Fatalf("missing vertex: status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=100000", nil); code != 400 {
		t.Fatalf("k over limit: status %d, want 400", code)
	}
}

func TestNeighborsBatchMatchesSingle(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 200, 10)
	vertices := []string{"v0", "v33", "v199", "v33"}
	var batch NeighborsBatchResponse
	if code := postJSON(t, hs.URL+"/v1/neighbors/batch",
		NeighborsBatchRequest{Vertices: vertices, K: 7}, &batch); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if len(batch.Results) != len(vertices) {
		t.Fatalf("got %d results", len(batch.Results))
	}
	for i, v := range vertices {
		var single NeighborsResponse
		getJSON(t, hs.URL+"/v1/neighbors?vertex="+v+"&k=7", &single)
		if !reflect.DeepEqual(batch.Results[i].Neighbors, single.Neighbors) {
			t.Fatalf("batch[%d] (%s) differs from single query:\n  batch:  %v\n  single: %v",
				i, v, batch.Results[i].Neighbors, single.Neighbors)
		}
	}
}

// BenchmarkNeighborsBatch is one cold /v1/neighbors/batch of 64
// vertices, k = 10, on an unsharded server — a one-shard coordinator,
// whose batch must keep spreading its queries over the workers — for
// the exact and the HNSW index.
func BenchmarkNeighborsBatch(b *testing.B) {
	vocab, dim := 20_000, 64
	if testing.Short() {
		vocab = 2_000
	}
	m, tokens := testModel(vocab, dim, 42)
	req := NeighborsBatchRequest{K: 10}
	for i := 0; i < 64; i++ {
		req.Vertices = append(req.Vertices, tokens[i*vocab/64])
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []vecstore.Kind{vecstore.KindExact, vecstore.KindHNSW} {
		b.Run(kind.String(), func(b *testing.B) {
			s, err := NewFromModel(Config{CacheSize: -1, Index: vecstore.Config{Kind: kind}}, m, tokens)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/neighbors/batch", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

func TestSimilarityAndPredict(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 80, 6)
	m, _ := testModel(80, 6, 42)

	var sim SimilarityResponse
	if code := getJSON(t, hs.URL+"/v1/similarity?a=v3&b=v9", &sim); code != 200 {
		t.Fatalf("similarity status %d", code)
	}
	if want := m.Store().Cosine(3, 9); sim.Similarity != want {
		t.Fatalf("similarity %v, want %v", sim.Similarity, want)
	}

	var pred PredictResponse
	if code := getJSON(t, hs.URL+"/v1/predict?u=v3&v=v9", &pred); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if pred.Score != sim.Similarity || pred.Scorer != "embedding-cosine" {
		t.Fatalf("predict cosine: %+v", pred)
	}
	if code := getJSON(t, hs.URL+"/v1/predict?u=v3&v=v9&hadamard=true", &pred); code != 200 {
		t.Fatalf("predict hadamard status %d", code)
	}
	if want := m.Store().Dot(3, 9); pred.Score != want || pred.Scorer != "embedding-dot" {
		t.Fatalf("predict dot: got %+v, want score %v", pred, want)
	}

	var simBatch SimilarityBatchResponse
	if code := postJSON(t, hs.URL+"/v1/similarity/batch",
		SimilarityBatchRequest{Pairs: [][2]string{{"v3", "v9"}, {"v0", "v0"}}}, &simBatch); code != 200 {
		t.Fatalf("similarity batch status %d", code)
	}
	if simBatch.Results[0].Similarity != sim.Similarity || simBatch.Results[1].Similarity != 1 {
		t.Fatalf("similarity batch: %+v", simBatch.Results)
	}

	var predBatch PredictBatchResponse
	if code := postJSON(t, hs.URL+"/v1/predict/batch",
		PredictBatchRequest{Pairs: [][2]string{{"v3", "v9"}}}, &predBatch); code != 200 {
		t.Fatalf("predict batch status %d", code)
	}
	if predBatch.Results[0].Score != sim.Similarity {
		t.Fatalf("predict batch: %+v", predBatch.Results)
	}
}

func TestAnalogyMatchesModel(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 90, 9)
	var out NeighborsResponse
	if code := getJSON(t, hs.URL+"/v1/analogy?a=v1&b=v2&c=v3&k=4", &out); code != 200 {
		t.Fatalf("analogy status %d", code)
	}
	m, _ := testModel(90, 9, 42)
	want := m.Analogy(1, 2, 3, 4)
	if len(out.Neighbors) != len(want) {
		t.Fatalf("got %d results, want %d", len(out.Neighbors), len(want))
	}
	for i, n := range out.Neighbors {
		if n.Vertex != fmt.Sprintf("v%d", want[i].Word) || n.Score != want[i].Similarity {
			t.Fatalf("analogy %d: got %+v want %+v", i, n, want[i])
		}
	}
}

func TestVocab(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 40, 4)
	var out VocabResponse
	getJSON(t, hs.URL+"/v1/vocab?offset=38&limit=10", &out)
	if out.Count != 40 || !reflect.DeepEqual(out.Tokens, []string{"v38", "v39"}) {
		t.Fatalf("vocab page: %+v", out)
	}
	getJSON(t, hs.URL+"/v1/vocab", &out)
	if len(out.Tokens) != 40 {
		t.Fatalf("full vocab: %d tokens", len(out.Tokens))
	}
}

// TestSpecialCharacterTokens: tokens with query-reserved characters
// (graphs read with -named have them) round-trip through /v1/vocab and
// resolve on every read endpoint: escaped in a query string, raw in a
// JSON body.
func TestSpecialCharacterTokens(t *testing.T) {
	var out VocabResponse
	reserved := []string{"a b", "x&y", "p+q", "m=n", "c#d", "pct%25", "ü-umlaut", "plain"}
	m, _ := testModel(len(reserved), 4, 1)
	s, err := NewFromModel(Config{}, m, reserved)
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(s.Handler())
	defer rs.Close()
	getJSON(t, rs.URL+"/v1/vocab", &out)
	if !reflect.DeepEqual(out.Tokens, reserved) {
		t.Fatalf("vocab of reserved tokens: %q", out.Tokens)
	}
	esc := func(i int) string { return url.QueryEscape(reserved[i%len(reserved)]) }
	for i := range reserved {
		a, b, c := esc(i), esc(i+1), esc(i+2)
		for _, path := range []string{
			"/v1/neighbors?k=3&vertex=" + a,
			"/v1/similarity?a=" + a + "&b=" + b,
			"/v1/analogy?k=3&a=" + a + "&b=" + b + "&c=" + c,
			"/v1/predict?u=" + a + "&v=" + b,
		} {
			if code := getJSON(t, rs.URL+path, nil); code != 200 {
				t.Errorf("GET %s: status %d", path, code)
			}
		}
	}
	if code := postJSON(t, rs.URL+"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: reserved, K: 3}, nil); code != 200 {
		t.Errorf("neighbors batch of reserved tokens: status %d", code)
	}
}

func TestCacheHitsAndStats(t *testing.T) {
	s, hs := newTestServer(t, Config{CacheSize: 64}, 60, 8)
	var first, second NeighborsResponse
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v5&k=3", &first)
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v5&k=3", &second)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached response differs")
	}
	if hits := s.cache.hits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Cache.Hits != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("stats cache: %+v", stats.Cache)
	}
	if stats.Endpoints["neighbors"].Requests != 2 {
		t.Fatalf("stats endpoints: %+v", stats.Endpoints["neighbors"])
	}
	if stats.Generation != 1 || stats.Model.Vectors != 60 {
		t.Fatalf("stats model: %+v", stats)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, hs := newTestServer(t, Config{CacheSize: -1}, 30, 4)
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v1", nil)
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v1", nil)
	if s.cache != nil {
		t.Fatal("cache should be nil when disabled")
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Cache.Enabled {
		t.Fatal("stats claim cache enabled")
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(cacheShards) // one entry per shard
	for i := 0; i < 10*cacheShards; i++ {
		c.put(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if n := c.len(); n > cacheShards {
		t.Fatalf("cache grew to %d entries, cap %d", n, cacheShards)
	}
	c.purge()
	if c.len() != 0 {
		t.Fatal("purge left entries behind")
	}
}

func TestIVFIndexServing(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Index: vecstore.Config{Kind: vecstore.KindIVF, Seed: 1},
	}, 300, 16)
	var out NeighborsResponse
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v10&k=5", &out); code != 200 {
		t.Fatalf("ivf neighbors status %d", code)
	}
	if len(out.Neighbors) != 5 {
		t.Fatalf("ivf returned %d neighbors", len(out.Neighbors))
	}
}

// TestHNSWPrebuiltGraphServing covers the bundled-graph fast path:
// a server configured for HNSW must bind the snapshot's index graph
// (startup and reload) and answer neighbor queries identically to an
// index built in process.
func TestHNSWPrebuiltGraphServing(t *testing.T) {
	dir := t.TempDir()
	m, tokens := testModel(300, 16, 7)
	h, err := vecstore.NewHNSW(m.Store(), vecstore.Cosine, vecstore.HNSWConfig{Seed: 3, M: 8, EfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, h.Graph()); err != nil {
		t.Fatal(err)
	}

	cfg := Config{ModelPath: path, Index: vecstore.Config{Kind: vecstore.KindHNSW}}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if kind := s.state.Load().sharded.Kind(); kind != vecstore.KindHNSW {
		t.Fatalf("served index is %s, want hnsw", kind)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var out NeighborsResponse
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v12&k=5", &out); code != 200 {
		t.Fatalf("hnsw neighbors status %d", code)
	}
	want := h.SearchRow(12, 5)
	if len(out.Neighbors) != len(want) {
		t.Fatalf("%d neighbors, want %d", len(out.Neighbors), len(want))
	}
	for i, nb := range out.Neighbors {
		if nb.Vertex != tokens[want[i].ID] || nb.Score != want[i].Score {
			t.Fatalf("rank %d: got %+v, want row %d score %v (prebuilt graph mismatch)",
				i, nb, want[i].ID, want[i].Score)
		}
	}

	// Reload from the bundle keeps the prebuilt path.
	var rl ReloadResponse
	if code := postJSON(t, hs.URL+"/v1/reload", ReloadRequest{Path: path}, &rl); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	if kind := s.state.Load().sharded.Kind(); kind != vecstore.KindHNSW {
		t.Fatalf("post-reload index is %s, want hnsw", kind)
	}

	// A non-HNSW configuration over the same bundle ignores the graph
	// and serves its configured index.
	s2, err := New(Config{ModelPath: path})
	if err != nil {
		t.Fatalf("New (exact over bundle): %v", err)
	}
	if kind := s2.state.Load().sharded.Kind(); kind != vecstore.KindExact {
		t.Fatalf("exact config served %s", kind)
	}
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	m1, tokens1 := testModel(40, 8, 1)
	m2, tokens2 := testModel(70, 8, 2)
	path1 := filepath.Join(dir, "m1.snap")
	path2 := filepath.Join(dir, "m2.snap")
	if err := snapshot.SaveFile(path1, m1, tokens1); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.SaveFile(path2, m2, tokens2); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{ModelPath: path1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var out ReloadResponse
	if code := postJSON(t, hs.URL+"/v1/reload", ReloadRequest{Path: path2}, &out); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	if out.Generation != 2 || out.Vectors != 70 {
		t.Fatalf("reload response: %+v", out)
	}
	// The new vocabulary must be live.
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v69", nil); code != 200 {
		t.Fatalf("post-reload neighbors status %d", code)
	}
	// Reload with no path re-reads the last source.
	if code := postJSON(t, hs.URL+"/v1/reload", struct{}{}, &out); code != 200 || out.Generation != 3 {
		t.Fatalf("empty-path reload: code %d, %+v", code, out)
	}
	// Reload from a missing file fails without changing the serving state.
	if code := postJSON(t, hs.URL+"/v1/reload", ReloadRequest{Path: filepath.Join(dir, "gone")}, nil); code != 400 {
		t.Fatalf("bad reload status %d", code)
	}
	if s.Generation() != 3 {
		t.Fatalf("failed reload bumped generation to %d", s.Generation())
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Reloads != 2 {
		t.Fatalf("stats reloads = %d, want 2", stats.Reloads)
	}
}

// TestHotReloadUnderLoad is the acceptance check for atomic model
// swaps: hammer the query endpoints from many goroutines while the
// model is re-swapped repeatedly, and require zero failed requests
// and zero torn responses (every answer must be internally consistent
// with exactly one model generation's vocabulary).
func TestHotReloadUnderLoad(t *testing.T) {
	s, hs := newTestServer(t, Config{CacheSize: 256}, 100, 8)

	const (
		clients = 8
		swaps   = 20
	)
	stop := make(chan struct{})
	var failures atomic.Uint64
	var requests atomic.Uint64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(uint64(c) + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := int(rng.Uint64() % 100)
				var url string
				switch v % 3 {
				case 0:
					url = fmt.Sprintf("%s/v1/neighbors?vertex=v%d&k=5", hs.URL, v)
				case 1:
					url = fmt.Sprintf("%s/v1/similarity?a=v%d&b=v%d", hs.URL, v, (v+1)%100)
				default:
					url = fmt.Sprintf("%s/v1/predict?u=v%d&v=v%d", hs.URL, v, (v+7)%100)
				}
				resp, err := client.Get(url)
				if err != nil {
					failures.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode != 200 {
					failures.Add(1)
					t.Errorf("status %d for %s: %s", resp.StatusCode, url, body)
				}
			}
		}(c)
	}

	// Swap between two same-vocabulary models under load. Every query
	// targets a vertex that exists in both, so any non-200 is a real
	// dropped request.
	for i := 0; i < swaps; i++ {
		m, tokens := testModel(100, 8, uint64(i+100))
		if _, err := s.SwapModel(m, tokens, fmt.Sprintf("swap-%d", i)); err != nil {
			t.Fatalf("SwapModel %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failed requests during %d hot reloads (%d total requests)", f, swaps, requests.Load())
	}
	if s.Generation() != uint64(swaps)+1 {
		t.Fatalf("generation = %d, want %d", s.Generation(), swaps+1)
	}
	t.Logf("served %d requests across %d hot swaps with zero failures", requests.Load(), swaps)
}

// TestServeGracefulShutdown exercises the Serve/context path the CLI
// uses for SIGTERM handling.
func TestServeGracefulShutdown(t *testing.T) {
	m, tokens := testModel(20, 4, 3)
	s, err := NewFromModel(Config{Addr: "127.0.0.1:0"}, m, tokens)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, ready) }()
	addr := <-ready

	if code := getJSON(t, fmt.Sprintf("http://%s/healthz", addr), nil); code != 200 {
		t.Fatalf("healthz over listener: %d", code)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestEmptyModelRejected(t *testing.T) {
	if _, err := NewFromModel(Config{}, word2vec.NewModel(0, 4), nil); err == nil {
		t.Fatal("accepted an empty model")
	}
}

// ---- Online write tests ---------------------------------------------

// vec returns a dim-sized vector with the leading values set.
func vec(dim int, lead ...float32) []float32 {
	v := make([]float32, dim)
	copy(v, lead)
	return v
}

// TestUpsertVisibleWithoutReload is the tentpole acceptance test:
// an upserted vertex must be searchable — and must appear in other
// vertices' neighbor lists — on the very next query, with no
// /v1/reload, including through the response cache.
func TestUpsertVisibleWithoutReload(t *testing.T) {
	for _, kind := range []vecstore.Kind{vecstore.KindExact, vecstore.KindIVF, vecstore.KindHNSW} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{CacheSize: 256, Index: vecstore.Config{Kind: kind, Seed: 1}}
			if kind == vecstore.KindIVF {
				cfg.Index.NLists = 8
				cfg.Index.NProbe = 8
			}
			if kind == vecstore.KindHNSW {
				cfg.Index.M = 8
				cfg.Index.EfConstruction = 60
			}
			s, hs := newTestServer(t, cfg, 60, 8)

			// Prime the cache with the answer the write must invalidate.
			target := "v9"
			var before NeighborsResponse
			getJSON(t, hs.URL+"/v1/neighbors?vertex="+target+"&k=5", &before)
			getJSON(t, hs.URL+"/v1/neighbors?vertex="+target+"&k=5", &before)

			// Upsert a clone of v9's vector: cosine 1, so it must rank
			// first among v9's neighbors.
			m, _ := testModel(60, 8, 42)
			clone := append([]float32(nil), m.Store().Row(9)...)
			var up UpsertResponse
			if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "clone", Vector: clone}, &up); code != 200 {
				t.Fatalf("upsert status %d", code)
			}
			if up.ID != 60 || up.Updated || up.Epoch != 1 {
				t.Fatalf("upsert response: %+v", up)
			}

			// The new vertex answers queries directly...
			var out NeighborsResponse
			if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=clone&k=3", &out); code != 200 {
				t.Fatalf("neighbors of upserted vertex: status %d", code)
			}
			if len(out.Neighbors) == 0 || out.Neighbors[0].Vertex != target {
				t.Fatalf("clone's top neighbor: %+v", out.Neighbors)
			}
			// ...and appears in the previously-cached answer's place.
			if code := getJSON(t, hs.URL+"/v1/neighbors?vertex="+target+"&k=5", &out); code != 200 {
				t.Fatalf("post-write neighbors status %d", code)
			}
			if out.Neighbors[0].Vertex != "clone" {
				t.Fatalf("cached answer served stale after write: top neighbor %+v", out.Neighbors[0])
			}
			if s.Generation() != 1 {
				t.Fatalf("write bumped generation to %d (writes must not reload)", s.Generation())
			}
			// /healthz counts the new vertex.
			var hz map[string]any
			getJSON(t, hs.URL+"/healthz", &hz)
			if hz["vectors"].(float64) != 61 || hz["epoch"].(float64) != 1 {
				t.Fatalf("healthz after write: %v", hz)
			}
		})
	}
}

// TestUpsertReplacesVector covers the update path: re-upserting an
// existing token tombstones the old row and serves the new vector.
func TestUpsertReplacesVector(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 30, 4)
	var up UpsertResponse
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "v5", Vector: vec(4, 1)}, &up); code != 200 {
		t.Fatalf("upsert status %d", code)
	}
	if !up.Updated || up.ID != 30 {
		t.Fatalf("replace response: %+v", up)
	}
	// Similarity against a unit vector along axis 0 is now exactly 1.
	var sim SimilarityResponse
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "probe", Vector: vec(4, 2)}, nil); code != 200 {
		t.Fatal("probe upsert failed")
	}
	getJSON(t, hs.URL+"/v1/similarity?a=v5&b=probe", &sim)
	if sim.Similarity != 1 {
		t.Fatalf("replaced vector not served: similarity %v", sim.Similarity)
	}
	// The old row is tombstoned, not double-listed: vocab still has one v5.
	var vr VocabResponse
	getJSON(t, hs.URL+"/v1/vocab", &vr)
	seen := 0
	for _, tok := range vr.Tokens {
		if tok == "v5" {
			seen++
		}
	}
	if seen != 1 || vr.Count != 31 {
		t.Fatalf("vocab after replace: count %d, v5 x%d", vr.Count, seen)
	}
	var stats StatsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if stats.Writes.Upserts != 2 || stats.Writes.Tombstones != 1 || stats.Writes.Epoch != 2 {
		t.Fatalf("write stats: %+v", stats.Writes)
	}
}

// TestDeleteRemovesVertex covers the delete path end to end: 404 on
// subsequent resolution, absence from every neighbor list and from
// the vocabulary.
func TestDeleteRemovesVertex(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheSize: 64}, 40, 6)
	// v7's nearest neighbor before the delete.
	var before NeighborsResponse
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v7&k=1", &before)
	victim := before.Neighbors[0].Vertex

	var del DeleteResponse
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: victim}, &del); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if !del.Deleted || del.Epoch != 1 {
		t.Fatalf("delete response: %+v", del)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex="+victim, nil); code != 404 {
		t.Fatalf("deleted vertex still resolves: status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: victim}, nil); code != 404 {
		t.Fatalf("double delete status %d", code)
	}
	var after NeighborsResponse
	getJSON(t, hs.URL+"/v1/neighbors?vertex=v7&k=10", &after)
	for _, n := range after.Neighbors {
		if n.Vertex == victim {
			t.Fatalf("deleted vertex still a neighbor: %+v", after.Neighbors)
		}
	}
	var vr VocabResponse
	getJSON(t, hs.URL+"/v1/vocab", &vr)
	if vr.Count != 39 {
		t.Fatalf("vocab count after delete: %d", vr.Count)
	}
	for _, tok := range vr.Tokens {
		if tok == victim {
			t.Fatal("deleted vertex still in vocab")
		}
	}
}

func TestWriteValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 20, 4)
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "x", Vector: vec(3)}, nil); code != 400 {
		t.Fatalf("dim mismatch status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vector: vec(4)}, nil); code != 400 {
		t.Fatalf("missing vertex status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: "nosuch"}, nil); code != 404 {
		t.Fatalf("unknown delete status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/upsert/batch", UpsertBatchRequest{}, nil); code != 400 {
		t.Fatalf("empty batch status %d", code)
	}
	resp, err := http.Get(hs.URL + "/v1/upsert")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET upsert status %d", resp.StatusCode)
	}
}

func TestReadOnlyServer(t *testing.T) {
	_, hs := newTestServer(t, Config{ReadOnly: true}, 20, 4)
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "x", Vector: vec(4)}, nil); code != 403 {
		t.Fatalf("read-only upsert status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: "v1"}, nil); code != 403 {
		t.Fatalf("read-only delete status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1", nil); code != 200 {
		t.Fatalf("read-only read status %d", code)
	}
}

func TestWriteBatchEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 30, 4)
	items := []UpsertRequest{
		{Vertex: "a", Vector: vec(4, 1)},
		{Vertex: "b", Vector: vec(4, 0, 1)},
		{Vertex: "c", Vector: vec(4, 0, 0, 1)},
	}
	var up UpsertBatchResponse
	if code := postJSON(t, hs.URL+"/v1/upsert/batch", UpsertBatchRequest{Items: items}, &up); code != 200 {
		t.Fatalf("upsert batch status %d", code)
	}
	if len(up.Results) != 3 || up.Results[2].ID != 32 || up.Results[2].Epoch != 3 {
		t.Fatalf("upsert batch results: %+v", up.Results)
	}
	// A batch with one invalid item applies nothing.
	bad := []UpsertRequest{{Vertex: "d", Vector: vec(4)}, {Vertex: "e", Vector: vec(3)}}
	if code := postJSON(t, hs.URL+"/v1/upsert/batch", UpsertBatchRequest{Items: bad}, nil); code != 400 {
		t.Fatal("invalid batch accepted")
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=d", nil); code != 404 {
		t.Fatal("failed batch partially applied")
	}

	var del DeleteBatchResponse
	if code := postJSON(t, hs.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"a", "b"}}, &del); code != 200 {
		t.Fatalf("delete batch status %d", code)
	}
	if len(del.Results) != 2 || !del.Results[1].Deleted {
		t.Fatalf("delete batch results: %+v", del.Results)
	}
	// All-or-nothing: a batch naming an unknown vertex deletes nothing.
	if code := postJSON(t, hs.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"c", "nosuch"}}, nil); code != 404 {
		t.Fatal("partial delete batch accepted")
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=c", nil); code != 200 {
		t.Fatal("failed delete batch partially applied")
	}
}

// TestSwapModelRejectsMutatedModel locks in the republish guard:
// online writes grow the store cached inside the caller's Model, so
// re-publishing that same model against its original token table
// would build a generation whose token table is shorter than the
// store (an index-out-of-range panic on the first query touching an
// appended row). SwapModel must refuse instead.
func TestSwapModelRejectsMutatedModel(t *testing.T) {
	m, tokens := testModel(30, 4, 1)
	s, err := NewFromModel(Config{}, m, tokens)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "grown", Vector: vec(4, 1)}, nil); code != 200 {
		t.Fatalf("upsert status %d", code)
	}
	if _, err := s.SwapModel(m, tokens, "republish"); err == nil {
		t.Fatal("SwapModel republished a model whose store was grown by writes")
	}
	// A fresh model still swaps in fine.
	m2, tokens2 := testModel(30, 4, 2)
	if _, err := s.SwapModel(m2, tokens2, "fresh"); err != nil {
		t.Fatalf("fresh SwapModel: %v", err)
	}
}

// TestDeleteBatchRejectsDuplicates locks in all-or-nothing for the
// duplicate-vertex case: without the pre-check a batch like ["a","a"]
// would delete "a" on its first occurrence and 404 on the second,
// leaving the batch half-applied.
func TestDeleteBatchRejectsDuplicates(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 20, 4)
	if code := postJSON(t, hs.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"v3", "v3"}}, nil); code != 400 {
		t.Fatalf("duplicate batch status %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v3", nil); code != 200 {
		t.Fatal("rejected duplicate batch still deleted the vertex")
	}
}

// waitFor polls cond until it holds or the deadline passes —
// compaction swaps a shard in from a background goroutine, so tests
// observing its effects must wait for the swap.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUpsertTriggersCompaction covers the update-heavy workload:
// replace-upserts tombstone old rows, so upserts alone must cross the
// threshold and compact — no delete required.
func TestUpsertTriggersCompaction(t *testing.T) {
	_, hs := newTestServer(t, Config{CompactFraction: 0.2}, 20, 4)
	// Each re-upsert of an existing token adds one tombstone.
	for i := 0; i < 8; i++ {
		tok := fmt.Sprintf("v%d", i)
		if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: tok, Vector: vec(4, float32(i+1))}, nil); code != 200 {
			t.Fatalf("upsert %s status %d", tok, code)
		}
	}
	// The rebuild may swap in before the last upserts land, and what
	// they tombstone afterwards stays until the threshold is crossed
	// again: done is "compacted and back under the threshold".
	var stats StatsResponse
	waitFor(t, "upsert-triggered compaction", func() bool {
		getJSON(t, hs.URL+"/stats", &stats)
		w := stats.Writes
		return w.Compactions > 0 && float64(w.Tombstones) < 0.2*float64(w.Tombstones+stats.Model.Vectors)
	})
	if stats.Model.Vectors != 20 {
		t.Fatalf("live count after replace-only workload: %d, want 20", stats.Model.Vectors)
	}
	// Replaced vectors survive the compaction.
	var sim SimilarityResponse
	getJSON(t, hs.URL+"/v1/similarity?a=v0&b=v1", &sim)
	if sim.Similarity != 1 { // both replaced with positive axis-0 vectors
		t.Fatalf("replaced vectors lost in compaction: similarity %v", sim.Similarity)
	}
}

// TestCompactionKeepsGeneration drives deletes over the threshold and
// checks the compacted world: zero tombstones, every surviving vertex
// still resolvable, writes still accepted — and the same generation,
// because a shard's rebuild changes neither the live set nor a row ID.
func TestCompactionKeepsGeneration(t *testing.T) {
	s, hs := newTestServer(t, Config{CompactFraction: 0.2}, 50, 6)
	// Deletes 1..9 stay under the 20% threshold; the 10th crosses it.
	for i := 0; i < 10; i++ {
		tok := fmt.Sprintf("v%d", i)
		if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: tok}, nil); code != 200 {
			t.Fatalf("delete %s status %d", tok, code)
		}
	}
	var stats StatsResponse
	waitFor(t, "background compaction", func() bool {
		getJSON(t, hs.URL+"/stats", &stats)
		return stats.Writes.Compactions > 0
	})
	if stats.Writes.Compactions != 1 || stats.Writes.Tombstones != 0 || stats.Model.Vectors != 40 {
		t.Fatalf("post-compaction stats: %+v / %+v", stats.Writes, stats.Model)
	}
	if len(stats.Shards) != 1 || stats.Shards[0].Compactions != 1 || stats.Shards[0].Rows != 40 {
		t.Fatalf("post-compaction shard block: %+v, want one 40-row shard compacted once", stats.Shards)
	}
	if gen := s.Generation(); gen != 1 {
		t.Fatalf("compaction moved the generation to %d", gen)
	}
	// Survivors still resolve, deleted vertices do not; the compacted
	// world accepts writes.
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v30&k=3", nil); code != 200 {
		t.Fatalf("survivor query status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v0&k=1", nil); code != 404 {
		t.Fatalf("deleted vertex resolvable after compaction: status %d", code)
	}
	// Reclaimed rows keep their token slots; they are still not
	// vocabulary.
	var vocab VocabResponse
	getJSON(t, hs.URL+"/v1/vocab", &vocab)
	if vocab.Count != 40 || len(vocab.Tokens) != 40 || vocab.Tokens[0] != "v10" {
		t.Fatalf("post-compaction vocab: count %d, %d tokens from %q", vocab.Count, len(vocab.Tokens), vocab.Tokens[0])
	}
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "post", Vector: vec(6, 1)}, nil); code != 200 {
		t.Fatalf("post-compaction upsert failed")
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=post&k=1", nil); code != 200 {
		t.Fatalf("post-compaction upsert not visible")
	}
}

// TestConcurrentWritesAndReads is the -race acceptance test for the
// server's locking: concurrent upserts, deletes and queries across
// every endpoint family with zero failed requests.
func TestConcurrentWritesAndReads(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheSize: 128, CompactFraction: 0.3}, 80, 6)
	client := &http.Client{Timeout: 10 * time.Second}
	var failures atomic.Uint64
	var wg sync.WaitGroup

	post := func(path string, body any) bool {
		buf, _ := json.Marshal(body)
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == 200
	}

	// Writers: each owns a disjoint token namespace, upserting and
	// deleting so reads race growth, tombstoning and cache churn.
	var writers sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				tok := fmt.Sprintf("w%d-%d", wr, i%10)
				if !post("/v1/upsert", UpsertRequest{Vertex: tok, Vector: vec(6, float32(wr+1), float32(i))}) {
					failures.Add(1)
				}
				if i%4 == 3 {
					if !post("/v1/delete", DeleteRequest{Vertex: tok}) {
						failures.Add(1)
					}
				}
			}
		}(wr)
	}
	// Readers hit the stable prefix (v0..v79), which no writer touches.
	stop := make(chan struct{})
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := xrand.New(uint64(rd) + 99)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := int(rng.Uint64() % 80)
				var url string
				switch v % 3 {
				case 0:
					url = fmt.Sprintf("%s/v1/neighbors?vertex=v%d&k=5", hs.URL, v)
				case 1:
					url = fmt.Sprintf("%s/v1/similarity?a=v%d&b=v%d", hs.URL, v, (v+1)%80)
				default:
					url = fmt.Sprintf("%s/v1/vocab?limit=5", hs.URL)
				}
				resp, err := client.Get(url)
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					failures.Add(1)
				}
			}
		}(rd)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failed requests under concurrent writes", f)
	}
}
