package server

// Router-mode integration tests: a real shard fleet (shard-process
// servers over httptest) behind a router, checked bit-for-bit against
// the in-process sharded coordinator serving the same bundle. The
// process-level version of these — separate binaries, SIGKILL — lives
// in the root-package router smoke e2e (make router-smoke).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"slices"
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
	rb := s.fleet
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
		"/v1/neighbors?vertex=v5&k=3",  // deleted: 404 from both
		"/v1/neighbors?vertex=v2&k=50", // every live row, the new ones too
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

// TestRouterShardCompaction: shard processes compact like any server.
// Nine of ten rows are deleted through a router and through the
// in-process two-shard coordinator; every shard process's /stats then
// counts a compaction, the router's /stats sums them from its probes,
// the router's own copy of the rows compacts below the threshold, and
// every read body stays the in-process server's, byte for byte:
// a compaction renumbers a shard's slots, never the global IDs its
// answers carry.
func TestRouterShardCompaction(t *testing.T) {
	const vocab, dim, shards = 400, 6, 2
	path, addrs, fleet := startShardFleet(t, vocab, dim, shards)
	routerS, router := startRouter(t, path, addrs, nil)
	ref, err := New(Config{ModelPath: path, Index: vecstore.Config{Shards: shards}})
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
	compactions := func(url string) uint64 {
		var stats StatsResponse
		getJSON(t, url+"/stats", &stats)
		return stats.Writes.Compactions
	}
	deadline := time.Now().Add(10 * time.Second)
	for sid, hs := range fleet {
		for compactions(hs.URL) < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never compacted at 90%% dead", sid)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for compactions(router.URL) < shards {
		if time.Now().After(deadline) {
			t.Fatalf("router /stats counts %d compactions, want at least %d", compactions(router.URL), shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The router's own rows compact too: each shard of its coordinator
	// drops below the default compact fraction.
	for sid := 0; sid < shards; sid++ {
		for {
			ss := routerS.state.Load().sharded.ShardStats()[sid]
			if float64(ss.Deleted) < defaultCompactFraction*float64(ss.Rows) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("router's own shard %d never compacted: %d of %d rows tombstoned", sid, ss.Deleted, ss.Rows)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, p := range []string{
		"/v1/neighbors?vertex=v0&k=5",
		"/v1/neighbors?vertex=v10&k=13",
		"/v1/neighbors?vertex=v390&k=39",
		"/v1/neighbors?vertex=v390&k=50",
		"/v1/neighbors?vertex=v7&k=5", // deleted: 404 from both
		"/v1/similarity?a=v20&b=v30",
		"/v1/vocab?limit=1000",
	} {
		wantCode, want := getRaw(t, refHS.URL+p)
		gotCode, got := getRaw(t, router.URL+p)
		if gotCode != wantCode || got != want {
			t.Errorf("%s diverges after compaction:\nin-process (%d): %s\nrouter     (%d): %s", p, wantCode, want, gotCode, got)
		}
	}
	// Every live row of the router's compacted copy, read by the pair
	// score.
	var pairs [][2]string
	for i := 0; i < vocab; i += 10 {
		pairs = append(pairs, [2]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", vocab-10-i)})
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: []string{"v0", "v100", "v200", "v300"}, K: 8}},
		{"/v1/similarity/batch", SimilarityBatchRequest{Pairs: pairs}},
	} {
		wantCode, want := postRaw(t, refHS.URL+tc.path, tc.body)
		if gotCode, got := postRaw(t, router.URL+tc.path, tc.body); gotCode != wantCode || got != want {
			t.Errorf("%s diverges after compaction:\nin-process (%d): %s\nrouter     (%d): %s", tc.path, wantCode, want, gotCode, got)
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
	rb := s.fleet
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
// acknowledged writes holds fewer writes than the router saw it
// acknowledge, and reads as down — a strict read is a 503 naming it,
// and /stats says so — whether the writes it lost were upserts or
// deletes, while a shard holding more writes than that (an insert
// whose acknowledgment was lost) stays up. Probes run only when the
// test calls probeAll.
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
	hourly := func(c *Config) { c.ProbeInterval = time.Hour }
	s, router := startRouter(t, path, addrs, hourly)
	rb := s.fleet
	healthyAt := func(router *httptest.Server) []bool {
		var stats StatsResponse
		getJSON(t, router.URL+"/stats", &stats)
		out := make([]bool, shards)
		for _, b := range stats.Backends {
			out[b.Shard] = b.Healthy
		}
		return out
	}
	healthy := func() []bool { return healthyAt(router) }

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

	// Deletes alone: a fresh fleet and router, every row of shard 0 but
	// v0 deleted through it, then shard 0 restarted from the bundle,
	// which holds every row it should and the deleted ones besides.
	for sid := range addrs {
		start(sid)
	}
	s2, router2 := startRouter(t, path, addrs, hourly)
	var doomed []string
	for id := 1; id < vocab; id++ {
		if vecstore.ShardOf(id, shards) == 0 {
			doomed = append(doomed, fmt.Sprintf("v%d", id))
		}
	}
	if code, body := postRaw(t, router2.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: doomed}); code != http.StatusOK {
		t.Fatalf("delete batch: status %d body %s", code, body)
	}
	rb2 := s2.fleet
	rb2.probeAll()
	if got := healthyAt(router2); !got[0] || !got[1] {
		t.Fatalf("after acked deletes: healthy %v, want both", got)
	}
	start(0) // restarted from the bundle: the deletes are gone
	rb2.probeAll()
	if got := healthyAt(router2); got[0] || !got[1] {
		t.Fatalf("after shard 0 lost its deletes: healthy %v, want only shard 1", got)
	}
	name = fmt.Sprintf("shard 0 (%s) unavailable", addrs[0])
	if code, body := getRaw(t, router2.URL+"/v1/neighbors?vertex=v0&k=10"); code != http.StatusServiceUnavailable || !strings.Contains(body, name) {
		t.Fatalf("read over a shard that lost its deletes: status %d body %s, want a 503 naming %q", code, body, name)
	}
}

// searchGate fronts a shard with a proxy that records the k and the
// row count of every search frame and parks the first frame of each k
// in park until release is closed. parked receives the k of every frame
// parked; a parked frame whose request context ends first sends its k
// on cancelled and is never answered.
type searchGate struct {
	url       string
	park      map[int]bool
	parked    chan int
	cancelled chan int
	release   chan struct{}
	once      sync.Once

	mu     sync.Mutex
	frames [][2]int // (k, n) per search call, in arrival order
}

func startSearchGate(t *testing.T, target string, park ...int) *searchGate {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	g := &searchGate{
		park:      make(map[int]bool),
		parked:    make(chan int, len(park)),
		cancelled: make(chan int, len(park)),
		release:   make(chan struct{}),
	}
	for _, k := range park {
		g.park[k] = true
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/v1/search" {
			body, err := io.ReadAll(r.Body)
			if err != nil || len(body) < 8 {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			k := int(binary.LittleEndian.Uint32(body))
			g.mu.Lock()
			g.frames = append(g.frames, [2]int{k, int(binary.LittleEndian.Uint32(body[4:]))})
			first := g.park[k]
			delete(g.park, k)
			g.mu.Unlock()
			if first {
				g.parked <- k
				select {
				case <-g.release:
				case <-r.Context().Done():
					g.cancelled <- k
					return
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(g.open) // before hs.Close: a parked handler must return
	g.url = hs.URL
	return g
}

func (g *searchGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *searchGate) seen() [][2]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][2]int(nil), g.frames...)
}

// waitQueued waits until n queries wait in shard sid's search queue.
func waitQueued(t *testing.T, rb *remoteBackend, sid, n int) {
	t.Helper()
	sh := rb.shards[sid]
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		got := len(sh.queue)
		sh.mu.Unlock()
		if got == n {
			return
		}
	}
	t.Fatalf("shard %d's search queue never held %d queries", sid, n)
}

// fetch is getRaw/postRaw for a goroutine other than the test's: a
// nil body is a GET.
func fetch(url string, body any) (int, string, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		buf, merr := json.Marshal(body)
		if merr != nil {
			return 0, "", merr
		}
		resp, err = http.Post(url, "application/json", bytes.NewReader(buf))
	}
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// routerQuery is one public neighbours request: a nil body is a GET.
type routerQuery struct {
	path string
	body any
}

type routerAnswer struct {
	code int
	body string
	err  error
}

// askAll sends qs to base concurrently; the function it returns waits
// for the answers, in qs's order.
func askAll(base string, qs []routerQuery) func() []routerAnswer {
	got := make([]routerAnswer, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].code, got[i].body, got[i].err = fetch(base+q.path, q.body)
		}()
	}
	return func() []routerAnswer { wg.Wait(); return got }
}

// checkAgainst holds every answer to the in-process coordinator's body
// for the same query over the bundle at path.
func checkAgainst(t *testing.T, path string, shards, maxBatch int, qs []routerQuery, got []routerAnswer) {
	t.Helper()
	ref, err := New(Config{ModelPath: path, Index: vecstore.Config{Shards: shards}, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	refHS := httptest.NewServer(ref.Handler())
	defer refHS.Close()
	for i, q := range qs {
		wantCode, want, err := fetch(refHS.URL+q.path, q.body)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].err != nil || got[i].code != wantCode || got[i].body != want {
			t.Errorf("%s %v diverges:\nin-process (%d): %s\nrouter     (%d, %v): %s", q.path, q.body, wantCode, want, got[i].code, got[i].err, got[i].body)
		}
	}
}

// waitFrames waits until the gate has seen n search frames.
func waitFrames(t *testing.T, g *searchGate, n int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if len(g.seen()) >= n {
			return
		}
	}
	t.Fatalf("shard saw frames %v, want %d: %s", g.seen(), n, what)
}

// TestRouterCoalescedSearch: single-vertex neighbours queries that
// arrive while a shard's shared call at their k is in flight share its
// next call, one per k within MaxBatch rows; calls at different k, and
// client batches, which always go in calls of their own, wait for none.
// Shard 1's first frames at k 5 and 9 are parked at once; a batch at
// each k reaches it meanwhile; single queries at both k queue behind
// the parked frames. On release shard 1 sees the singles in two frames
// at k 5 (MaxBatch 4) and one at k 9, every body is the in-process
// coordinator's, every request traced one shard_wait span per shard,
// and the backend counters say how many queries each call carried.
func TestRouterCoalescedSearch(t *testing.T) {
	const vocab, dim, shards, maxBatch = 60, 6, 2, 4
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	gate := startSearchGate(t, addrs[1], 6, 10) // the frames' k is the caller's k+1
	var slowlog logBuffer
	s, router := startRouter(t, path, []string{addrs[0], gate.url}, func(c *Config) {
		c.MaxBatch = maxBatch
		c.SlowLogMs = 0.000001
		c.Log = log.New(&slowlog, "", 0)
	})
	rb := s.fleet

	parked := []routerQuery{
		{"/v1/neighbors?vertex=v0&k=5", nil},
		{"/v1/neighbors?vertex=v8&k=9", nil},
	}
	batches := []routerQuery{
		{"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: []string{"v20", "v21", "v20"}, K: 5}},
		{"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: []string{"v22", "v23", "v24", "v25"}, K: 9}},
	}
	queued := []routerQuery{
		{"/v1/neighbors?vertex=v1&k=5", nil},
		{"/v1/neighbors?vertex=v2&k=5", nil},
		{"/v1/neighbors?vertex=v3&k=5", nil},
		{"/v1/neighbors?vertex=v4&k=5", nil},
		{"/v1/neighbors?vertex=v5&k=5", nil},
		{"/v1/neighbors?vertex=v1&k=5", nil},
		{"/v1/neighbors?vertex=v10&k=9", nil},
		{"/v1/neighbors?vertex=v11&k=9", nil},
		{"/v1/neighbors?vertex=v12&k=9", nil},
	}
	parkedAnswers := askAll(router.URL, parked)
	waitFrames(t, gate, len(parked), "the frames at k 5 and 9 in flight together")
	batchAnswers := askAll(router.URL, batches)
	waitFrames(t, gate, len(parked)+len(batches), "the client batches sent while the shared frames are parked")
	queuedAnswers := askAll(router.URL, queued)
	waitQueued(t, rb, 1, len(queued))
	gate.open()
	got := append(append(parkedAnswers(), batchAnswers()...), queuedAnswers()...)
	all := append(append(parked, batches...), queued...)
	checkAgainst(t, path, shards, maxBatch, all, got)

	frames := gate.seen()
	sorted := func(fs [][2]int) [][2]int {
		fs = slices.Clone(fs)
		slices.SortFunc(fs, func(a, b [2]int) int { return 100*(a[0]-b[0]) + a[1] - b[1] })
		return fs
	}
	want := [][][2]int{{{6, 1}, {10, 1}}, {{6, 3}, {10, 4}}, {{6, 2}, {6, 4}, {10, 3}}}
	if len(frames) != 7 || !slices.Equal(sorted(frames[:2]), want[0]) || !slices.Equal(sorted(frames[2:4]), want[1]) || !slices.Equal(sorted(frames[4:]), want[2]) {
		t.Fatalf("shard 1 saw search frames (k, rows) %v, want the parked %v, the batches %v, then the singles in %v", frames, want[0], want[1], want[2])
	}

	// One slow-log line per request, each with one span per shard.
	var lines []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		lines = lines[:0]
		slowlog.mu.Lock()
		for _, line := range strings.Split(slowlog.b.String(), "\n") {
			if strings.Contains(line, "slow query") {
				lines = append(lines, line)
			}
		}
		slowlog.mu.Unlock()
		if len(lines) >= len(all) {
			break
		}
	}
	if len(lines) != len(all) {
		t.Fatalf("%d slow-log lines for %d requests: %q", len(lines), len(all), lines)
	}
	for _, line := range lines {
		for sid := 0; sid < shards; sid++ {
			if n := strings.Count(line, fmt.Sprintf("shard_wait/%d=", sid)); n != 1 {
				t.Errorf("slow-log line with %d shard_wait/%d spans, want 1: %q", n, sid, line)
			}
		}
	}

	var stats StatsResponse
	getJSON(t, router.URL+"/stats", &stats)
	for _, b := range stats.Backends {
		if b.SearchQueries != 18 {
			t.Errorf("shard %d: search_queries %d, want 18", b.Shard, b.SearchQueries)
		}
		if b.Shard == 1 && b.SearchCalls != 7 {
			t.Errorf("shard 1: search_calls %d, want 7", b.SearchCalls)
		}
	}
	_, metrics := getRaw(t, router.URL+"/metrics")
	if want := fmt.Sprintf("v2v_backend_search_calls_total{shard=\"1\",addr=%q} 7\n", gate.url); !strings.Contains(metrics, want) {
		t.Errorf("router /metrics lacks %q", want)
	}
	if want := fmt.Sprintf("v2v_backend_search_queries_total{shard=\"1\",addr=%q} 18\n", gate.url); !strings.Contains(metrics, want) {
		t.Errorf("router /metrics lacks %q", want)
	}
}

// TestRouterCoalescedShardLimit: a shared frame stays within the
// shard's own MaxBatch when it is below the router's, so queries that
// each fit a shard are never merged into a frame it refuses. The
// shards accept 3 rows a frame, the router 8; seven single queries at
// one k queue behind a parked frame, and every query is answered as
// in-process.
func TestRouterCoalescedShardLimit(t *testing.T) {
	const vocab, dim, shards, shardBatch = 40, 6, 2, 3
	m, tokens := testModel(vocab, dim, 42)
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, shards)
	for i := range addrs {
		s, err := New(Config{ModelPath: path, ShardCount: shards, ShardID: i, MaxBatch: shardBatch})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		addrs[i] = hs.URL
	}
	gate := startSearchGate(t, addrs[1], 6)
	s, router := startRouter(t, path, []string{addrs[0], gate.url}, func(c *Config) { c.MaxBatch = 8 })
	rb := s.fleet

	parked := []routerQuery{{"/v1/neighbors?vertex=v0&k=5", nil}}
	var queued []routerQuery
	for i := 1; i <= 7; i++ {
		queued = append(queued, routerQuery{fmt.Sprintf("/v1/neighbors?vertex=v%d&k=5", i), nil})
	}
	parkedAnswers := askAll(router.URL, parked)
	<-gate.parked
	queuedAnswers := askAll(router.URL, queued)
	waitQueued(t, rb, 1, len(queued))
	gate.open()
	got := append(parkedAnswers(), queuedAnswers()...)
	checkAgainst(t, path, shards, shardBatch, append(parked, queued...), got)
	if frames := gate.seen(); !slices.Equal(frames, [][2]int{{6, 1}, {6, 3}, {6, 3}, {6, 1}}) {
		t.Errorf("shard 1 saw frames (k, rows) %v, want the parked one, then its MaxBatch 3 rows at a time", frames)
	}
}

// TestNonFiniteModelRefused: no topology loads a model holding a NaN or
// an infinity, the values every write path refuses. A search over such
// a row cannot rank it, and through a router a query holding it would
// fail every query sharing its frame.
func TestNonFiniteModelRefused(t *testing.T) {
	const vocab, dim, shards, bad = 20, 4, 2, 3
	m, tokens := testModel(vocab, dim, 42)
	m.Vectors[bad*dim+1] = float32(math.NaN())
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"in-process": {ModelPath: path},
		"shard":      {ModelPath: path, ShardCount: shards, ShardID: vecstore.ShardOf(bad, shards)},
		"router":     {ModelPath: path, Router: true, ShardAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `vector "v3": component 1 is not finite`) {
			t.Errorf("%s: New = %v, want a refusal naming v3", name, err)
		}
	}
}

// TestRouterDeadlineAbandonedFrame: a search call is cancelled once
// every query in its frame has stopped waiting, and a query that stops
// waiting while still queued is never sent. Query A's frame is parked
// at shard 1 and query B, at A's k, queues behind it; both give up. The gate sees A's call cancelled before it is released, and
// the next query at that k goes out alone and is answered at once, not
// after RemoteTimeout. After Close a search fails instead of waiting on
// a stopped sender.
func TestRouterDeadlineAbandonedFrame(t *testing.T) {
	const vocab, dim, shards = 40, 6, 2
	const remoteTimeout = 20 * time.Second
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	gate := startSearchGate(t, addrs[1], 6)
	s, router := startRouter(t, path, []string{addrs[0], gate.url}, func(c *Config) {
		c.RemoteTimeout = remoteTimeout
	})
	rb := s.fleet

	search := func(ctx context.Context, ids []int, k int) chan error {
		errc := make(chan error, 1)
		go func() {
			_, _, err := s.state.Load().searchRows(ctx, ids, k, nil)
			errc <- err
		}()
		return errc
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := search(ctxA, []int{1}, 5)
	<-gate.parked
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	errB := search(ctxB, []int{2}, 5)
	waitQueued(t, rb, 1, 1)

	cancelB()
	if err := <-errB; !errors.Is(err, errDeadlineExpired) {
		t.Fatalf("queued query B after its context ended: %v, want errDeadlineExpired", err)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, errDeadlineExpired) {
		t.Fatalf("parked query A after its context ended: %v, want errDeadlineExpired", err)
	}
	select {
	case <-gate.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the parked call was not cancelled when its only query gave up")
	}
	gate.open()

	start := time.Now()
	if code, body := getRaw(t, router.URL+"/v1/neighbors?vertex=v3&k=5"); code != http.StatusOK {
		t.Fatalf("query after the abandoned frame: status %d body %s", code, body)
	}
	if took := time.Since(start); took > remoteTimeout/4 {
		t.Fatalf("query after the abandoned frame took %v", took)
	}
	if frames := gate.seen(); !slices.Equal(frames, [][2]int{{6, 1}, {6, 1}}) {
		t.Fatalf("shard 1 saw search frames (k, rows) %v, want A's (6 1) and the last query's (6 1): B is never sent", frames)
	}

	// Close stops the senders; a search after it fails at once.
	rb.Close()
	if _, _, err := s.state.Load().searchRows(context.Background(), []int{1}, 5, nil); err == nil || !strings.Contains(err.Error(), "router closed") {
		t.Fatalf("search after Close: %v, want a shard unavailable: router closed", err)
	}
}

// TestRouterProbeDeadline: a probe waits RemoteTimeout for /healthz,
// like every other shard call, not the probe interval. Shard 0's
// /healthz is delayed past several intervals and the shard stays up;
// held past RemoteTimeout, it reads down.
func TestRouterProbeDeadline(t *testing.T) {
	const vocab, dim, shards = 20, 4, 2
	const interval, remoteTimeout, delay = 10 * time.Millisecond, 400 * time.Millisecond, 80 * time.Millisecond
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	target, err := url.Parse(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	// mode 0 passes /healthz through, 1 delays it, 2 holds it until the
	// caller gives up; a delayed probe that finds mode 2 is held too.
	var mode atomic.Int32
	hold := make(chan struct{})
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if mode.Load() == 1 {
				time.Sleep(delay)
			}
			if mode.Load() == 2 {
				select {
				case <-hold:
				case <-r.Context().Done():
				}
				return
			}
		}
		rp.ServeHTTP(w, r)
	}))
	defer gate.Close()
	defer close(hold)
	s, _ := startRouter(t, path, []string{gate.URL, addrs[1]}, func(c *Config) {
		c.ProbeInterval = interval
		c.RemoteTimeout = remoteTimeout
	})
	rb := s.fleet
	sh := rb.shards[0]
	if !sh.healthy.Load() {
		t.Fatal("shard 0 down before its /healthz was delayed")
	}

	mode.Store(1)
	rb.probeAll()
	if !sh.healthy.Load() || sh.probeFailures.Load() != 0 {
		t.Fatalf("a /healthz %v slow (probe interval %v, RemoteTimeout %v): healthy %v after %d failed probes, want up",
			delay, interval, remoteTimeout, sh.healthy.Load(), sh.probeFailures.Load())
	}

	mode.Store(2)
	start := time.Now()
	rb.probeAll()
	if took := time.Since(start); took < remoteTimeout {
		t.Errorf("a held /healthz failed after %v, before RemoteTimeout %v", took, remoteTimeout)
	}
	if sh.healthy.Load() {
		t.Fatal("shard 0 still up after a probe held past RemoteTimeout")
	}
}

// TestRouterCoalescedTake pins how a shard's queue is cut into frames:
// the oldest query still waited on leads; a single-row query leads only
// if its k has no shared frame in flight, and later single-row queries
// of its k join while the frame stays within the row limit; a client
// batch is a frame of its own whatever is in flight; a query whose
// context has ended is dropped unsent; and a shared frame's k stays
// busy until its call returns.
func TestRouterCoalescedTake(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()
	q := func(ctx context.Context, k, n int) *searchQuery { return &searchQuery{ctx: ctx, k: k, n: n} }
	a, b, c, d, e, f, g, h := q(gone, 6, 1), q(live, 6, 1), q(live, 10, 1), q(live, 6, 3), q(live, 6, 1), q(live, 10, 1), q(live, 3, 1), q(live, 6, 1)
	sh := &remoteShard{queue: []*searchQuery{a, b, c, d, e, f, g, h}, busy: map[int]bool{3: true}}
	for i, step := range []struct {
		done int // the k whose shared call returns before this take (0: none)
		want []*searchQuery
	}{{0, []*searchQuery{b, e}}, {0, []*searchQuery{c, f}}, {0, []*searchQuery{d}}, {0, nil}, {6, []*searchQuery{h}}, {3, []*searchQuery{g}}, {0, nil}} {
		delete(sh.busy, step.done)
		if got := sh.take(nil, 2); !slices.Equal(got, step.want) {
			t.Fatalf("take %d: %v, want %v", i, got, step.want)
		}
	}
	if !maps.Equal(sh.busy, map[int]bool{10: true, 6: true, 3: true}) || len(sh.queue) != 0 {
		t.Fatalf("after the takes: busy %v, queue %v; want 10, 6 and 3 in flight and an empty queue", sh.busy, sh.queue)
	}
}
