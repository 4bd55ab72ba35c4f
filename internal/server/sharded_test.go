package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// TestShardedServingParity serves the same model unsharded and with a
// 4-shard exact coordinator and requires bit-identical answers from
// every read endpoint: sharding is a physical layout, never a
// semantic change. The unsharded server is itself a one-shard
// coordinator, so the HNSW case pins that shape against the bare
// index: served from a plain single-graph bundle (bound, not rebuilt),
// every body must be the bytes the bare index and store produce.
func TestShardedServingParity(t *testing.T) {
	_, flat := newTestServer(t, Config{}, 90, 10)
	s, shard := newTestServer(t, Config{Index: vecstore.Config{Shards: 4}}, 90, 10)
	if n := s.state.Load().sharded.NumShards(); n != 4 {
		t.Fatalf("sharded config published a %d-shard generation", n)
	}

	var h map[string]any
	getJSON(t, shard.URL+"/healthz", &h)
	if int(h["shards"].(float64)) != 4 {
		t.Fatalf("healthz shards = %v, want 4", h["shards"])
	}

	paths := []string{
		"/v1/neighbors?vertex=v7&k=5",
		"/v1/similarity?a=v3&b=v11",
	}
	for _, p := range paths {
		var a, b map[string]any
		if code := getJSON(t, flat.URL+p, &a); code != 200 {
			t.Fatalf("unsharded %s: status %d", p, code)
		}
		if code := getJSON(t, shard.URL+p, &b); code != 200 {
			t.Fatalf("sharded %s: status %d", p, code)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s diverges:\nunsharded: %v\nsharded:   %v", p, a, b)
		}
	}

	t.Run("hnsw-bundle", func(t *testing.T) {
		m, tokens := testModel(300, 16, 7)
		store := m.Store()
		h, err := vecstore.NewHNSW(store, vecstore.Cosine, vecstore.HNSWConfig{Seed: 3, M: 8, EfConstruction: 40})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bundle.snap")
		if err := snapshot.SaveBundleFile(path, m, tokens, []*vecstore.HNSWGraph{h.Graph()}); err != nil {
			t.Fatal(err)
		}
		var logBuf bytes.Buffer
		s, err := New(Config{ModelPath: path, Index: vecstore.Config{Kind: vecstore.KindHNSW}, Log: log.New(&logBuf, "", 0)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if n := s.state.Load().sharded.NumShards(); n != 1 || !strings.Contains(logBuf.String(), "(prebuilt graph)") {
			t.Fatalf("single-graph bundle not bound as one shard: %d shards, log %q", n, logBuf.String())
		}
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()

		neighbors := func(vertex string, k int, res []vecstore.Result) NeighborsResponse {
			out := NeighborsResponse{Vertex: vertex, K: k, Neighbors: make([]NeighborJSON, len(res))}
			for i, r := range res {
				out.Neighbors[i] = NeighborJSON{Vertex: tokens[r.ID], Score: r.Score}
			}
			return out
		}
		// k = 200 is past EfSearch, where HNSW sizes its beam from k.
		want := []any{
			neighbors("v7", 5, h.SearchRow(7, 5)),
			neighbors("v7", 200, h.SearchRow(7, 200)),
			SimilarityResponse{A: "v3", B: "v11", Similarity: store.Cosine(3, 11)},
		}
		for i, p := range append([]string{paths[0], "/v1/neighbors?vertex=v7&k=200"}, paths[1:]...) {
			resp, err := http.Get(hs.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("%s: status %d, %v", p, resp.StatusCode, err)
			}
			wantBody, err := json.Marshal(want[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBody) {
				t.Fatalf("%s diverges from the bare index:\nserved: %s\nbare:   %s", p, got, wantBody)
			}
		}
	})
}

// TestShardedWrites exercises the write endpoints against a sharded
// generation: routed inserts are immediately searchable, replaces
// stick, deletes 404, and /stats reports the per-shard block.
func TestShardedWrites(t *testing.T) {
	_, hs := newTestServer(t, Config{Index: vecstore.Config{Shards: 3}}, 40, 6)

	var up UpsertResponse
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "new", Vector: vec(6, 1)}, &up); code != 200 {
		t.Fatalf("upsert: status %d", code)
	}
	if up.ID != 40 || up.Updated {
		t.Fatalf("upsert response: %+v", up)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=new&k=3", nil); code != 200 {
		t.Fatal("upserted vertex not searchable")
	}
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "new", Vector: vec(6, 0, 2)}, &up); code != 200 || !up.Updated {
		t.Fatalf("replace: status %d, %+v", code, up)
	}
	var sim SimilarityResponse
	if code := getJSON(t, hs.URL+"/v1/similarity?a=new&b=new", &sim); code != 200 || sim.Similarity < 0.999 {
		t.Fatalf("replaced row self-similarity: %v (status %d)", sim.Similarity, code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: "v5"}, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v5", nil); code != 404 {
		t.Fatalf("deleted vertex: status %d, want 404", code)
	}

	var stats StatsResponse
	getJSON(t, hs.URL+"/stats", &stats)
	if len(stats.Shards) != 3 {
		t.Fatalf("stats shards: %d entries, want 3", len(stats.Shards))
	}
	rows, live := 0, 0
	for _, ss := range stats.Shards {
		rows += ss.Rows
		live += ss.Live
	}
	// 40 base + 2 inserts (the replace also tombstoned a row and v5 is
	// gone; shard compaction may have reclaimed either).
	if rows < live || live != 40 {
		t.Fatalf("shard occupancy: rows %d live %d, want live 40", rows, live)
	}
	if stats.Model.Vectors != 40 {
		t.Fatalf("model vectors %d, want 40", stats.Model.Vectors)
	}
	var vr VocabResponse
	getJSON(t, hs.URL+"/v1/vocab?limit=1000", &vr)
	if vr.Count != 40 || len(vr.Tokens) != 40 {
		t.Fatalf("vocab: count %d, %d tokens", vr.Count, len(vr.Tokens))
	}
	for _, tok := range vr.Tokens {
		if tok == "v5" {
			t.Fatal("vocab still lists deleted vertex v5")
		}
	}
}

// TestCloseJoinsCompactions: a delete storm on a 4-shard server starts
// a compaction on every shard; a swap joins the retired generation's,
// and Close the current one's, so the goroutine count is back at its
// baseline the moment either returns.
func TestCloseJoinsCompactions(t *testing.T) {
	const vocab, dim, shards = 4000, 16, 4
	cfg := Config{Index: vecstore.Config{Kind: vecstore.KindHNSW, Shards: shards, M: 16, EfConstruction: 100}}
	before := quiesce(t)
	m, tokens := testModel(vocab, dim, 42)
	s, err := NewFromModel(cfg, m, tokens)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// storm deletes rows in batches until every shard is compacting: a
	// delete landing mid-rebuild makes it stale, so the compactions
	// keep retrying while it lasts.
	storm := func() {
		t.Helper()
		next := 0
		for compactions() < shards {
			if next == vocab {
				t.Fatalf("%d deletes left fewer than %d compactions running", vocab, shards)
			}
			var batch []string
			for ; len(batch) < 40; next++ {
				batch = append(batch, fmt.Sprintf("v%d", next))
			}
			body, _ := json.Marshal(DeleteBatchRequest{Vertices: batch})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/delete/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("delete batch: %d %s", rec.Code, rec.Body)
			}
		}
	}
	settled := func(what string, want int) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(20 * time.Millisecond); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n != want || compactions() != 0 {
			t.Fatalf("after %s: %d goroutines (%d compacting), want %d", what, n, compactions(), want)
		}
	}

	started := quiesce(t) // the build's workers are gone
	storm()
	m2, _ := testModel(vocab, dim, 43)
	if _, err := s.SwapModel(m2, tokens, "second"); err != nil {
		t.Fatal(err)
	}
	settled("a swap", started)

	storm()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settled("Close", before)
}

// quiesce waits out what earlier tests left running — compactions of
// servers they never closed, idle client connections — and returns the
// goroutine count once it holds still.
func quiesce(t *testing.T) int {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); ; n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
		if runtime.NumGoroutine() == n && compactions() == 0 {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count still moving (%d) after 10s", n)
		}
	}
}

// compactions counts the goroutines running a shard compaction.
func compactions() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("vecstore.(*Sharded).compactShard.func1"))
}

// TestShardedWALReplay restarts a sharded WAL-backed server and
// requires the replayed world to match the acknowledged one — the
// hash routing is deterministic, so replay lands every write in the
// same shard it was served from.
func TestShardedWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Index: vecstore.Config{Shards: 4}}
	s1, hs1 := newWALServer(t, dir, cfg, 40, 6)

	if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: "solo", Vector: vec(6, 1)}, nil); code != 200 {
		t.Fatalf("upsert: status %d", code)
	}
	batch := UpsertBatchRequest{Items: []UpsertRequest{
		{Vertex: "b0", Vector: vec(6, 2)},
		{Vertex: "solo", Vector: vec(6, 3)}, // replace
		{Vertex: "b1", Vector: vec(6, 4)},
	}}
	if code := postJSON(t, hs1.URL+"/v1/upsert/batch", batch, nil); code != 200 {
		t.Fatalf("upsert batch: status %d", code)
	}
	if code := postJSON(t, hs1.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"b0", "v7"}}, nil); code != 200 {
		t.Fatalf("delete batch: status %d", code)
	}
	var h1 map[string]any
	getJSON(t, hs1.URL+"/healthz", &h1)
	var sim1 SimilarityResponse
	getJSON(t, hs1.URL+"/v1/similarity?a=solo&b=b1", &sim1)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, hs2 := newWALServer(t, dir, cfg, 40, 6)
	var h2 map[string]any
	getJSON(t, hs2.URL+"/healthz", &h2)
	if h1["vectors"] != h2["vectors"] || h2["shards"].(float64) != 4 {
		t.Fatalf("healthz after restart: %v, want vectors %v on 4 shards", h2, h1["vectors"])
	}
	for _, tok := range []string{"solo", "b1", "v0"} {
		if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex="+tok, nil); code != 200 {
			t.Fatalf("replayed vertex %q: status %d", tok, code)
		}
	}
	for _, tok := range []string{"v7", "b0"} {
		if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex="+tok, nil); code != 404 {
			t.Fatalf("deleted vertex %q: status %d, want 404", tok, code)
		}
	}
	// Replay must reproduce the exact replaced vector, not just the
	// token: the pair similarity is a full-precision probe of both rows.
	var sim2 SimilarityResponse
	getJSON(t, hs2.URL+"/v1/similarity?a=solo&b=b1", &sim2)
	if sim1.Similarity != sim2.Similarity {
		t.Fatalf("similarity after replay %v, want %v", sim2.Similarity, sim1.Similarity)
	}
}

// TestShardedCheckpoint drives a sharded server over its checkpoint
// volume threshold and restarts from a different base model: the
// GatherLive-built checkpoint must win.
func TestShardedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Index: vecstore.Config{Shards: 2}, WAL: WALConfig{CheckpointBytes: 1}}
	s1, hs1 := newWALServer(t, dir, cfg, 30, 5)
	for i := 0; i < 8; i++ {
		if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: fmt.Sprintf("ck%d", i), Vector: vec(5, float32(i)+1)}, nil); code != 200 {
			t.Fatalf("upsert %d: status %d", i, code)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s1.checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := Config{Index: vecstore.Config{Shards: 2}, WAL: WALConfig{Dir: dir}}
	m2, tokens2 := testModel(3, 5, 7)
	s2, err := NewFromModel(cfg2, m2, tokens2)
	if err != nil {
		t.Fatalf("restart from checkpoint: %v", err)
	}
	defer s2.Close()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	var h map[string]any
	getJSON(t, hs2.URL+"/healthz", &h)
	if v := int(h["vectors"].(float64)); v != 38 {
		t.Fatalf("restarted server serves %d vectors, want 38", v)
	}
	for i := 0; i < 8; i++ {
		if code := getJSON(t, hs2.URL+fmt.Sprintf("/v1/neighbors?vertex=ck%d", i), nil); code != 200 {
			t.Fatalf("ck%d missing after checkpoint restart", i)
		}
	}
}

// TestShardedBundleBind serves a sharded HNSW bundle: New must bind
// the persisted per-shard graphs (matching config) and answer
// searches from them.
func TestShardedBundleBind(t *testing.T) {
	m, tokens := testModel(120, 8, 42)
	idxCfg := vecstore.Config{Kind: vecstore.KindHNSW, Shards: 4, Seed: 9, M: 6, EfConstruction: 30}
	sh, err := vecstore.OpenSharded(m.Store(), idxCfg)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	graphs, err := sh.Graphs()
	if err != nil {
		t.Fatalf("Graphs: %v", err)
	}
	path := t.TempDir() + "/sharded.snap"
	if err := snapshot.SaveBundleFile(path, m, tokens, graphs); err != nil {
		t.Fatalf("SaveBundleFile: %v", err)
	}

	srvCfg := Config{
		ModelPath: path,
		Index:     vecstore.Config{Kind: vecstore.KindHNSW, Shards: 4, M: 6},
	}
	s, err := New(srvCfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st := s.state.Load()
	if st.sharded == nil || st.sharded.NumShards() != 4 {
		t.Fatalf("bundle did not produce a 4-shard generation: %+v", st.sharded)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	var out NeighborsResponse
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v7&k=5", &out); code != 200 || len(out.Neighbors) != 5 {
		t.Fatalf("neighbors over bound bundle: status %d, %d hits", code, len(out.Neighbors))
	}
	// The bound coordinator must answer exactly like the one the
	// graphs came from.
	want := sh.SearchRow(7, 5)
	for i, n := range out.Neighbors {
		if n.Vertex != tokens[want[i].ID] || n.Score != want[i].Score {
			t.Fatalf("hit %d: got %+v, want id %d score %v", i, n, want[i].ID, want[i].Score)
		}
	}
}

// TestShardBatchMatchesSingle pins the batch contract: every
// /v1/neighbors/batch item is, byte for byte, the /v1/neighbors body
// for its vertex — exact and HNSW (a small graph and the defaults), one
// and two in-process shards and a one- and a two-shard router, at k
// below, at and past EfSearch, with the cache off so every answer is
// searched. A one-shard router asks its shard for k+1 by vector and
// drops the query row, as every router does, where the in-process lone
// shard searches by row at k: its single bodies are the in-process
// one-shard server's for the exact kind at any k, and for HNSW where
// k+2 <= EfSearch, so that both search the same beam.
func TestShardBatchMatchesSingle(t *testing.T) {
	const vocab, dim = 1000, 16
	m, tokens := testModel(vocab, dim, 42)
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	var vertices []string
	for id := 0; id < vocab; id += vocab / 40 {
		vertices = append(vertices, tokens[id])
	}
	for _, tc := range []struct {
		name string
		idx  vecstore.Config
		ef   int
	}{
		{"exact", vecstore.Config{}, 128},
		{"hnsw-ef16-m4", vecstore.Config{Kind: vecstore.KindHNSW, EfSearch: 16, M: 4}, 16},
		{"hnsw", vecstore.Config{Kind: vecstore.KindHNSW}, 128},
	} {
		urls := map[string]string{}
		for _, shards := range []int{1, 2} {
			idx := tc.idx
			idx.Shards = shards
			s, err := New(Config{ModelPath: path, CacheSize: -1, Index: idx})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			t.Cleanup(hs.Close)
			urls[fmt.Sprintf("%d-shard", shards)] = hs.URL
		}
		addrs := make([]string, 2)
		for i := range addrs {
			s, err := New(Config{ModelPath: path, ShardCount: 2, ShardID: i, Index: tc.idx})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			t.Cleanup(hs.Close)
			addrs[i] = hs.URL
		}
		// A slow probe must not read as a dead shard: this test is long.
		_, router := startRouter(t, path, addrs, func(c *Config) { c.CacheSize, c.ProbeInterval = -1, time.Second })
		urls["router"] = router.URL
		lone, err := New(Config{ModelPath: path, ShardCount: 1, ShardID: 0, Index: tc.idx})
		if err != nil {
			t.Fatal(err)
		}
		loneHS := httptest.NewServer(lone.Handler())
		t.Cleanup(loneHS.Close)
		_, router1 := startRouter(t, path, []string{loneHS.URL}, func(c *Config) { c.CacheSize, c.ProbeInterval = -1, time.Second })
		urls["1-router"] = router1.URL

		for where, url := range urls {
			for _, k := range []int{10, tc.ef - 1, tc.ef, 200} {
				code, body := postRaw(t, url+"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: vertices, K: k})
				var batch struct {
					Results []json.RawMessage `json:"results"`
				}
				if err := json.Unmarshal([]byte(body), &batch); code != 200 || err != nil || len(batch.Results) != len(vertices) {
					t.Fatalf("%s %s k=%d: batch status %d, %d results (%v): %.300s", tc.name, where, k, code, len(batch.Results), err, body)
				}
				differ := 0
				for i, v := range vertices {
					code, single := getRaw(t, fmt.Sprintf("%s/v1/neighbors?vertex=%s&k=%d", url, v, k))
					if code != 200 {
						t.Fatalf("%s %s k=%d %s: status %d", tc.name, where, k, v, code)
					}
					if string(batch.Results[i]) != single {
						differ++
					}
					if where == "1-router" && (tc.name == "exact" || k+2 <= tc.ef) {
						if _, want := getRaw(t, fmt.Sprintf("%s/v1/neighbors?vertex=%s&k=%d", urls["1-shard"], v, k)); single != want {
							t.Errorf("%s k=%d %s: one-shard router %s, in-process one shard %s", tc.name, k, v, single, want)
						}
					}
				}
				if differ > 0 {
					t.Errorf("%s %s k=%d: %d of %d batch items differ from the single answer", tc.name, where, k, differ, len(vertices))
				}
			}
		}
	}
}
