package server

// Router-mode integration tests: a real shard fleet (shard-process
// servers over httptest) behind a router, checked bit-for-bit against
// the in-process sharded coordinator serving the same bundle. The
// process-level version of these — separate binaries, SIGKILL — lives
// in the root-package router smoke e2e (make router-smoke).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// startShardFleet saves a plain bundle for testModel(vocab, dim, 42)
// and starts one shard-process server per partition member.
func startShardFleet(t *testing.T, vocab, dim, n int) (path string, addrs []string, fleet []*httptest.Server) {
	t.Helper()
	return startIndexedFleet(t, vocab, dim, n, vecstore.Config{})
}

// startIndexedFleet is startShardFleet with every shard building the
// index idx describes over its slice.
func startIndexedFleet(t *testing.T, vocab, dim, n int, idx vecstore.Config) (path string, addrs []string, fleet []*httptest.Server) {
	t.Helper()
	m, tokens := testModel(vocab, dim, 42)
	path = filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	addrs = make([]string, n)
	fleet = make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		s, err := New(Config{ModelPath: path, ShardCount: n, ShardID: i, Index: idx})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		addrs[i] = hs.URL
		fleet[i] = hs
	}
	return path, addrs, fleet
}

func startRouter(t *testing.T, path string, addrs []string, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		ModelPath:     path,
		Router:        true,
		ShardAddrs:    addrs,
		ProbeInterval: 25 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func getRaw(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func postRaw(t *testing.T, url string, body any) (int, string) {
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
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// waitUnhealthy polls the router's backend until shard sid drops out
// of membership.
func waitUnhealthy(t *testing.T, s *Server, sid int) {
	t.Helper()
	rb := s.state.Load().backend.(*remoteBackend)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !rb.shards[sid].healthy.Load() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %d still healthy after 10s", sid)
}

// TestRouterParity answers the tentpole's core claim: a router over
// real (HTTP) shard processes is bit-identical to the in-process
// N-shard coordinator on the same bundle, on every read endpoint.
func TestRouterParity(t *testing.T) {
	const vocab, dim, shards = 90, 10, 4
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	_, router := startRouter(t, path, addrs, nil)

	ref, err := New(Config{ModelPath: path, Index: vecstore.Config{Shards: shards}})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(ref.Handler())
	defer refHS.Close()

	gets := []string{
		"/v1/neighbors?vertex=v7&k=5",
		"/v1/neighbors?vertex=v0&k=13",
		"/v1/neighbors?vertex=v89&k=1",
		"/v1/similarity?a=v3&b=v11",
		"/v1/similarity?a=v42&b=v42",
		"/v1/analogy?a=v1&b=v2&c=v3&k=4",
		"/v1/analogy?a=v80&b=v8&c=v15&k=7",
		"/v1/predict?u=v5&v=v6",
		"/v1/predict?u=v5&v=v6&hadamard=true",
		"/v1/vocab?limit=1000",
	}
	for _, p := range gets {
		wantCode, want := getRaw(t, refHS.URL+p)
		gotCode, got := getRaw(t, router.URL+p)
		if gotCode != wantCode || got != want {
			t.Errorf("%s diverges:\nin-process (%d): %s\nrouter     (%d): %s", p, wantCode, want, gotCode, got)
		}
	}
	posts := []struct {
		path string
		body any
	}{
		{"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: []string{"v1", "v7", "v88", "v7"}, K: 6}},
		{"/v1/similarity/batch", SimilarityBatchRequest{Pairs: [][2]string{{"v1", "v2"}, {"v30", "v61"}}}},
		{"/v1/predict/batch", PredictBatchRequest{Pairs: [][2]string{{"v9", "v10"}, {"v44", "v3"}}}},
		{"/v1/predict/batch", PredictBatchRequest{Pairs: [][2]string{{"v9", "v10"}}, Hadamard: true}},
	}
	for _, tc := range posts {
		wantCode, want := postRaw(t, refHS.URL+tc.path, tc.body)
		gotCode, got := postRaw(t, router.URL+tc.path, tc.body)
		if gotCode != wantCode || got != want {
			t.Errorf("%s diverges:\nin-process (%d): %s\nrouter     (%d): %s", tc.path, wantCode, want, gotCode, got)
		}
	}

	// A healthy-path response must not leak partial-result fields.
	var nb map[string]any
	if code := getJSON(t, router.URL+"/v1/neighbors?vertex=v7&k=5", &nb); code != 200 {
		t.Fatalf("neighbors: status %d", code)
	}
	if _, ok := nb["partial"]; ok {
		t.Fatal("healthy-path response carries a partial flag")
	}

	// /stats reports per-backend membership in router mode.
	var stats StatsResponse
	getJSON(t, router.URL+"/stats", &stats)
	if len(stats.Backends) != shards {
		t.Fatalf("stats backends: %d entries, want %d", len(stats.Backends), shards)
	}
	for _, b := range stats.Backends {
		if !b.Healthy || b.Addr == "" {
			t.Fatalf("backend %+v not healthy at startup", b)
		}
	}
	if len(stats.Shards) != shards {
		t.Fatalf("stats shards: %d entries, want %d", len(stats.Shards), shards)
	}
}

// TestRouterWrites drives the same write sequence through a router
// and through the in-process coordinator and requires the served
// worlds to stay bit-identical; it also pins hash routing (each write
// lands on exactly one shard) and the router's delete bookkeeping.
func TestRouterWrites(t *testing.T) {
	const vocab, dim, shards = 40, 6, 3
	path, addrs, fleet := startShardFleet(t, vocab, dim, shards)
	_, router := startRouter(t, path, addrs, nil)

	ref, err := New(Config{ModelPath: path, Index: vecstore.Config{Shards: shards}})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(ref.Handler())
	defer refHS.Close()

	epochs := func() []uint64 {
		out := make([]uint64, len(fleet))
		for i, hs := range fleet {
			var h struct {
				Shard ShardInfo `json:"shard"`
			}
			getJSON(t, hs.URL+"/healthz", &h)
			if h.Shard.Of != shards || h.Shard.ID != i {
				t.Fatalf("shard %d identity block: %+v", i, h.Shard)
			}
			out[i] = h.Shard.Epoch
		}
		return out
	}
	before := epochs()

	writes := []struct {
		path string
		body any
	}{
		{"/v1/upsert", UpsertRequest{Vertex: "new", Vector: vec(dim, 1)}},
		{"/v1/upsert", UpsertRequest{Vertex: "new2", Vector: vec(dim, 0, 2)}},
		{"/v1/delete", DeleteRequest{Vertex: "v5"}},
	}
	for _, wr := range writes {
		wantCode, want := postRaw(t, refHS.URL+wr.path, wr.body)
		gotCode, got := postRaw(t, router.URL+wr.path, wr.body)
		if gotCode != wantCode || got != want {
			t.Fatalf("%s %+v diverges:\nin-process (%d): %s\nrouter     (%d): %s",
				wr.path, wr.body, wantCode, want, gotCode, got)
		}
	}

	// The first insert (global ID 40) bumped exactly its owner's epoch.
	after := epochs()
	owner := vecstore.ShardOf(vocab, shards)
	for i := range after {
		delta := after[i] - before[i]
		switch {
		case i == owner && delta == 0:
			t.Fatalf("owning shard %d saw no write", i)
		case i != owner && vecstore.ShardOf(vocab+1, shards) != i && vecstore.ShardOf(5, shards) != i && delta != 0:
			t.Fatalf("shard %d epoch moved by %d without owning any write", i, delta)
		}
	}

	// Post-write reads stay bit-identical (including the new and the
	// tombstoned vertex).
	for _, p := range []string{
		"/v1/neighbors?vertex=new&k=5",
		"/v1/similarity?a=new&b=new2",
		"/v1/neighbors?vertex=v5&k=3", // deleted: 404 from both
		"/v1/analogy?a=new&b=v2&c=v3&k=4",
		"/v1/vocab?limit=1000",
	} {
		wantCode, want := getRaw(t, refHS.URL+p)
		gotCode, got := getRaw(t, router.URL+p)
		if gotCode != wantCode || got != want {
			t.Errorf("%s diverges after writes:\nin-process (%d): %s\nrouter     (%d): %s", p, wantCode, want, gotCode, got)
		}
	}
}

// TestRouterTombstonedHNSW is the fleet's side of the HNSW tombstone
// contract: shard processes never compact, so their dead fraction is
// unbounded, and a query must still get k live neighbours back. Nine of
// ten rows are deleted through the router, then k = 50 is asked of an
// HNSW fleet and checked against the exact answer over the live rows
// (an in-process exact server given the same deletes). A narrow
// EfSearch keeps each shard's beam well below its row count, as it is
// at serving scale, on shards of a few hundred rows.
func TestRouterTombstonedHNSW(t *testing.T) {
	const vocab, dim, shards, k = 1000, 8, 2, 50
	path, addrs, _ := startIndexedFleet(t, vocab, dim, shards,
		vecstore.Config{Kind: vecstore.KindHNSW, EfSearch: 16, Seed: 3})
	_, router := startRouter(t, path, addrs, nil)
	ref, err := New(Config{ModelPath: path, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(ref.Handler())
	defer refHS.Close()

	var dead []string
	for i := 0; i < vocab; i++ {
		if i%10 != 0 {
			dead = append(dead, fmt.Sprintf("v%d", i))
		}
	}
	for _, url := range []string{router.URL, refHS.URL} {
		if code, body := postRaw(t, url+"/v1/delete/batch", DeleteBatchRequest{Vertices: dead}); code != http.StatusOK {
			t.Fatalf("delete batch at %s: %d %s", url, code, body)
		}
	}
	for _, q := range []string{"v0", "v10", "v500", "v990"} {
		var got, want NeighborsResponse
		p := fmt.Sprintf("/v1/neighbors?vertex=%s&k=%d", q, k)
		if code := getJSON(t, router.URL+p, &got); code != http.StatusOK {
			t.Fatalf("%s: router status %d", p, code)
		}
		getJSON(t, refHS.URL+p, &want)
		if len(got.Neighbors) != k {
			t.Errorf("%s: %d neighbours from the HNSW fleet, want %d", p, len(got.Neighbors), k)
		}
		exact := map[string]bool{}
		for _, n := range want.Neighbors {
			exact[n.Vertex] = true
		}
		hits := 0
		for _, n := range got.Neighbors {
			var id int
			if _, err := fmt.Sscanf(n.Vertex, "v%d", &id); err != nil || id%10 != 0 {
				t.Fatalf("%s: neighbour %q is not a live row", p, n.Vertex)
			}
			if exact[n.Vertex] {
				hits++
			}
		}
		if hits < k*9/10 {
			t.Errorf("%s: %d of the exact %d live neighbours returned", p, hits, k)
		}
	}
}

// TestRouterShardDown pins the degraded contract: a dead shard makes
// strict reads answer 503 (never a hang, never a silent truncation),
// while an -allow-partial router keeps answering with an explicit
// partial flag — except for queries whose own row lived on the dead
// shard, which stay 503 because no other shard can substitute for the
// row's owner.
func TestRouterShardDown(t *testing.T) {
	const vocab, dim, shards = 40, 6, 3
	path, addrs, fleet := startShardFleet(t, vocab, dim, shards)
	strictS, strict := startRouter(t, path, addrs, nil)
	partialS, partial := startRouter(t, path, addrs, func(c *Config) { c.AllowPartial = true })

	// Pick a vertex on the shard we kill and one elsewhere.
	deadSid := vecstore.ShardOf(0, shards) // owns v0
	liveVertex := ""
	for id := 0; id < vocab; id++ {
		if vecstore.ShardOf(id, shards) != deadSid {
			liveVertex = fmt.Sprintf("v%d", id)
			break
		}
	}

	// Healthy fleet first: both routers answer, no partial flag.
	for _, hs := range []*httptest.Server{strict, partial} {
		if code, body := getRaw(t, hs.URL+"/v1/neighbors?vertex="+liveVertex+"&k=5"); code != 200 || strings.Contains(body, `"partial"`) {
			t.Fatalf("healthy fleet: status %d body %s", code, body)
		}
	}

	fleet[deadSid].CloseClientConnections()
	fleet[deadSid].Close()
	waitUnhealthy(t, strictS, deadSid)
	waitUnhealthy(t, partialS, deadSid)

	// A complete answer cached before the kill keeps serving — the
	// shard's death degraded the fleet, not the data.
	if code, _ := getRaw(t, strict.URL+"/v1/neighbors?vertex="+liveVertex+"&k=5"); code != 200 {
		t.Fatalf("cached complete answer stopped serving: status %d", code)
	}
	// A cold strict read: 503 naming the shard.
	if code, body := getRaw(t, strict.URL+"/v1/neighbors?vertex="+liveVertex+"&k=4"); code != 503 || !strings.Contains(body, "unavailable") {
		t.Fatalf("strict router with dead shard: status %d body %s", code, body)
	}
	// Partial: explicit accounting on a cold query, and the answer
	// still arrives.
	var nb NeighborsResponse
	if code := getJSON(t, partial.URL+"/v1/neighbors?vertex="+liveVertex+"&k=6", &nb); code != 200 {
		t.Fatalf("partial router: status %d", code)
	}
	if !nb.Partial || nb.ShardsAnswered != shards-1 || len(nb.Neighbors) == 0 {
		t.Fatalf("partial accounting: partial=%v answered=%d neighbors=%d", nb.Partial, nb.ShardsAnswered, len(nb.Neighbors))
	}
	// The dead shard owns the query row: no substitute exists.
	if code, body := getRaw(t, partial.URL+"/v1/neighbors?vertex=v0&k=5"); code != 503 || !strings.Contains(body, "unavailable") {
		t.Fatalf("partial router, query row on dead shard: status %d body %s", code, body)
	}
	// Writes are never partial.
	newID := vocab // next global ID
	if vecstore.ShardOf(newID, shards) == deadSid {
		if code, body := postRaw(t, partial.URL+"/v1/upsert", UpsertRequest{Vertex: "w", Vector: vec(dim, 1)}); code != 503 {
			t.Fatalf("write routed to dead shard: status %d body %s", code, body)
		}
	} else if code, _ := getRaw(t, partial.URL+"/v1/neighbors?vertex="+liveVertex+"&k=2"); code != 200 {
		t.Fatalf("live-shard read after kill: status %d", code)
	}

	// Membership surfaces everywhere it is documented to.
	var stats StatsResponse
	getJSON(t, strict.URL+"/stats", &stats)
	downSeen := 0
	for _, b := range stats.Backends {
		if b.Shard == deadSid && !b.Healthy && b.ProbeFailures > 0 {
			downSeen++
		}
	}
	if downSeen != 1 {
		t.Fatalf("stats backends do not report the dead shard: %+v", stats.Backends)
	}
	_, metrics := getRaw(t, strict.URL+"/metrics")
	if !strings.Contains(metrics, "v2v_backend_up") || !strings.Contains(metrics, "v2v_backend_probe_failures") {
		t.Fatal("router /metrics missing backend membership families")
	}
}

// TestRouterDeadlineFanOut extends the deterministic admission suite
// across the shard boundary: a read whose -deadline-ms expires while
// one remote shard is stuck answers 503 immediately, the trace keeps
// "shard_wait/<sid>" spans only for shards that completed, and the
// admission slot is released (a Concurrency:1 class keeps serving
// afterwards).
func TestRouterDeadlineFanOut(t *testing.T) {
	const vocab, dim, shards = 40, 6, 2
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)

	// Shard 1 is fronted by a gate that parks searches until released;
	// probes pass through, so the shard stays healthy.
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	slowTarget := addrs[1]
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/v1/search" {
			<-release
		}
		proxyReq, err := http.NewRequest(r.Method, slowTarget+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(500)
			return
		}
		proxyReq.Header = r.Header
		resp, err := http.DefaultClient.Do(proxyReq)
		if err != nil {
			w.WriteHeader(502)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer gate.Close()

	var slowlog bytes.Buffer
	var mu sync.Mutex
	logW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return slowlog.Write(p)
	})
	s, router := startRouter(t, path, []string{addrs[0], gate.URL}, func(c *Config) {
		c.SlowLogMs = 0.001
		c.Log = log.New(logW, "", 0)
		c.Admission.Read = ClassLimit{Concurrency: 1, Queue: -1, DeadlineMs: 150}
	})

	// The query vertex must live on the fast shard: its owner answers
	// first, and the scatter to the gated shard is what expires.
	fastVertex := ""
	for id := 0; id < vocab; id++ {
		if vecstore.ShardOf(id, shards) == 0 {
			fastVertex = fmt.Sprintf("v%d", id)
			break
		}
	}
	code, body := getRaw(t, router.URL+"/v1/neighbors?vertex="+fastVertex+"&k=5")
	if code != 503 || !strings.Contains(body, "deadline") {
		t.Fatalf("expired fan-out: status %d body %s", code, body)
	}

	// The trace recorded the completed shard's wait and nothing for
	// the abandoned one.
	mu.Lock()
	logged := slowlog.String()
	mu.Unlock()
	if !strings.Contains(logged, "shard_wait/0=") {
		t.Fatalf("slow log misses the completed shard's span: %q", logged)
	}
	if strings.Contains(logged, "shard_wait/1=") {
		t.Fatalf("slow log carries a span for the abandoned shard: %q", logged)
	}

	// The admission slot came back: with Concurrency 1 and no queue, a
	// leaked slot would shed every follow-up read with 429.
	once.Do(func() { close(release) })
	for i := 0; i < 3; i++ {
		if code, body := getRaw(t, router.URL+"/v1/neighbors?vertex="+fastVertex+"&k=5"); code != 200 {
			t.Fatalf("read %d after expiry: status %d body %s (admission slot leaked?)", i, code, body)
		}
	}
	if exp := s.classes[classRead].expired.Load(); exp == 0 {
		t.Fatal("expired counter did not move")
	}
}

// writerFunc adapts a function to io.Writer for test log capture.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRouterRejectsMisconfiguration pins the constructor errors and
// the identity check: a router never serves over a fleet it cannot
// trust.
func TestRouterRejectsMisconfiguration(t *testing.T) {
	const vocab, dim, shards = 20, 4, 2
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)

	if _, err := New(Config{ModelPath: path, Router: true}); err == nil {
		t.Fatal("router without ShardAddrs accepted")
	}
	if _, err := New(Config{ModelPath: path, Router: true, ShardAddrs: addrs, WAL: WALConfig{Dir: t.TempDir()}}); err == nil {
		t.Fatal("router with WAL accepted")
	}
	if _, err := New(Config{ModelPath: path, Router: true, ShardCount: 2, ShardAddrs: addrs}); err == nil {
		t.Fatal("router+shard mode accepted")
	}
	if _, err := New(Config{ModelPath: path, ShardCount: shards, ShardID: shards}); err == nil {
		t.Fatal("out-of-range ShardID accepted")
	}
	if _, err := New(Config{ModelPath: path, ShardCount: shards, ShardID: 0, WAL: WALConfig{Dir: t.TempDir()}}); err == nil {
		t.Fatal("shard with WAL accepted")
	}

	// Shard addresses in the wrong order fail the identity probe: the
	// fleet reads as down, and strict reads answer 503 instead of
	// merging garbage.
	s, hs := startRouter(t, path, []string{addrs[1], addrs[0]}, nil)
	rb := s.state.Load().backend.(*remoteBackend)
	for sid := range rb.shards {
		if rb.shards[sid].healthy.Load() {
			t.Fatalf("mis-ordered shard %d read as healthy", sid)
		}
	}
	if code, _ := getRaw(t, hs.URL+"/v1/neighbors?vertex=v1&k=3"); code != 503 {
		t.Fatalf("mis-ordered fleet served status %d, want 503", code)
	}

	// Reload is a distributed operation the router cannot do alone.
	if code, body := postRaw(t, hs.URL+"/v1/reload", map[string]string{}); code != 501 {
		t.Fatalf("router reload: status %d body %s", code, body)
	}
}

// TestRouterShardLostRows: a shard restarted from its bundle after
// acknowledged upserts holds fewer rows than the router saw it
// acknowledge, and reads as down — a strict read is a 503 naming it,
// and /stats says so — while a shard holding more rows than that (an
// insert whose acknowledgment was lost) stays up. Probes run only
// when the test calls probeAll.
func TestRouterShardLostRows(t *testing.T) {
	const vocab, dim, shards = 40, 6, 2
	m, tokens := testModel(vocab, dim, 42)
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	handlers := make([]atomic.Pointer[http.Handler], shards)
	start := func(sid int) {
		s, err := New(Config{ModelPath: path, ShardCount: shards, ShardID: sid})
		if err != nil {
			t.Fatalf("shard %d: %v", sid, err)
		}
		t.Cleanup(func() { s.Close() })
		h := s.Handler()
		handlers[sid].Store(&h)
	}
	addrs := make([]string, shards)
	for sid := range addrs {
		start(sid)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[sid].Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		addrs[sid] = hs.URL
	}
	s, router := startRouter(t, path, addrs, func(c *Config) { c.ProbeInterval = time.Hour })
	rb := s.state.Load().backend.(*remoteBackend)
	healthy := func() []bool {
		var stats StatsResponse
		getJSON(t, router.URL+"/stats", &stats)
		out := make([]bool, shards)
		for _, b := range stats.Backends {
			out[b.Shard] = b.Healthy
		}
		return out
	}

	owner := vecstore.ShardOf(vocab, shards) // the first upsert's shard
	if code, body := postRaw(t, router.URL+"/v1/upsert", UpsertRequest{Vertex: "w", Vector: vec(dim, 1)}); code != http.StatusOK {
		t.Fatalf("upsert: status %d body %s", code, body)
	}
	// The other shard takes a row the router never recorded, as when
	// an insert's acknowledgment is lost.
	other, extra := 1-owner, vocab+1
	for vecstore.ShardOf(extra, shards) != other {
		extra++
	}
	if code, body := postRaw(t, addrs[other]+"/shard/v1/insert", shardInsertRequest{ID: extra, Token: "lost-ack", Vector: packVec(vec(dim, 0, 1))}); code != http.StatusOK {
		t.Fatalf("direct insert on shard %d: status %d body %s", other, code, body)
	}
	rb.probeAll()
	if got := healthy(); !got[0] || !got[1] {
		t.Fatalf("after an acked upsert and an unrecorded insert: healthy %v, want both", got)
	}

	start(owner) // restarted from the bundle: the upsert is gone
	rb.probeAll()
	if got := healthy(); got[owner] || !got[other] {
		t.Fatalf("after shard %d lost a row: healthy %v, want only shard %d", owner, got, other)
	}
	name := fmt.Sprintf("shard %d (%s) unavailable", owner, addrs[owner])
	if code, body := getRaw(t, router.URL+"/v1/neighbors?vertex=v1&k=3"); code != http.StatusServiceUnavailable || !strings.Contains(body, name) {
		t.Fatalf("read over a shard that lost a row: status %d body %s, want a 503 naming %q", code, body, name)
	}
	// Pair scores need no shard, but a row's owner must be up all the
	// same: the router answers a pair on the other shard only.
	var mine, theirs []string
	for id := 0; id < vocab; id++ {
		if vecstore.ShardOf(id, shards) == owner {
			mine = append(mine, fmt.Sprintf("v%d", id))
		} else {
			theirs = append(theirs, fmt.Sprintf("v%d", id))
		}
	}
	if code, body := getRaw(t, router.URL+"/v1/similarity?a="+theirs[0]+"&b="+mine[0]); code != http.StatusServiceUnavailable || !strings.Contains(body, name) {
		t.Fatalf("similarity with a row on the down shard: status %d body %s, want a 503 naming %q", code, body, name)
	}
	if code, body := getRaw(t, router.URL+"/v1/similarity?a="+theirs[0]+"&b="+theirs[1]); code != http.StatusOK {
		t.Fatalf("similarity on the up shard: status %d body %s", code, body)
	}
}
