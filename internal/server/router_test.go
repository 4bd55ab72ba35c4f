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
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// startShardFleet saves a plain bundle for testModel(vocab, dim, 42)
// and starts one shard-process server per partition member.
func startShardFleet(t *testing.T, vocab, dim, n int) (path string, addrs []string, fleet []*httptest.Server) {
	t.Helper()
	m, tokens := testModel(vocab, dim, 42)
	path = filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveFile(path, m, tokens); err != nil {
		t.Fatal(err)
	}
	addrs = make([]string, n)
	fleet = make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		s, err := New(Config{ModelPath: path, ShardCount: n, ShardID: i})
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
