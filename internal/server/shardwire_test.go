package server

// Tests of the /shard/v1/* wire: the by-row search, the number of
// shard calls a routed query costs, the request decoders under fuzz,
// and what the byte encoding of vectors costs against the float-array
// form it replaced.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// TestShardSearchByRow pins /shard/v1/search with 'rows': the results
// are, byte for byte, those of searching with the rows' vectors, the
// echoed rows are those /shard/v1/rows serves, one request answers
// rows and vectors together, query by query, and every malformed form
// is a 4xx.
func TestShardSearchByRow(t *testing.T) {
	const vocab, dim, shards = 60, 8, 3
	_, addrs, _ := startShardFleet(t, vocab, dim, shards)
	type searchResp struct {
		Results []json.RawMessage `json:"results"`
		Rows    [][]byte          `json:"rows"`
	}
	for id := 0; id < vocab; id += 7 {
		owner := addrs[vecstore.ShardOf(id, shards)]
		var rows shardRowsResponse
		if code := postJSON(t, owner+"/shard/v1/rows", shardRowsRequest{IDs: []int{id}}, &rows); code != 200 {
			t.Fatalf("rows %d: status %d", id, code)
		}
		var byRow, byVec, both searchResp
		if code := postJSON(t, owner+"/shard/v1/search", shardSearchRequest{Rows: []int{id}, K: 5}, &byRow); code != 200 {
			t.Fatalf("search by row %d: status %d", id, code)
		}
		if len(byRow.Rows) != 1 || !bytes.Equal(byRow.Rows[0], rows.Rows[0]) || len(byRow.Rows[0]) != 4*dim || len(byRow.Results) != 1 {
			t.Fatalf("row %d: echoed rows %x and %d result lists, /shard/v1/rows has %x", id, byRow.Rows, len(byRow.Results), rows.Rows[0])
		}
		if code := postJSON(t, owner+"/shard/v1/search", shardSearchRequest{Vectors: byRow.Rows, K: 5}, &byVec); code != 200 {
			t.Fatalf("search by vector %d: status %d", id, code)
		}
		if len(byVec.Results) != 1 || !bytes.Equal(byRow.Results[0], byVec.Results[0]) || byVec.Rows != nil {
			t.Fatalf("row %d: by row %s, by vector %s (echo %x)", id, byRow.Results, byVec.Results, byVec.Rows)
		}
		// Rows and vectors together: one list per query, rows first.
		req := shardSearchRequest{Rows: []int{id}, Vectors: [][]byte{byRow.Rows[0], byRow.Rows[0]}, K: 5}
		if code := postJSON(t, owner+"/shard/v1/search", req, &both); code != 200 || len(both.Results) != 3 || len(both.Rows) != 1 {
			t.Fatalf("row %d and two vectors: status %d, %d lists, %d echoed rows", id, code, len(both.Results), len(both.Rows))
		}
		for i, res := range both.Results {
			if !bytes.Equal(res, byRow.Results[0]) {
				t.Fatalf("row %d and two vectors: list %d is %s, want %s", id, i, res, byRow.Results[0])
			}
		}
		// Every other shard answers 404, as /shard/v1/rows does.
		for sid, addr := range addrs {
			if addr == owner {
				continue
			}
			if code, body := postRaw(t, addr+"/shard/v1/search", shardSearchRequest{Rows: []int{id}, K: 5}); code != 404 || !strings.Contains(body, "is not on shard") {
				t.Fatalf("row %d on shard %d: status %d body %s", id, sid, code, body)
			}
		}
	}

	id := 0
	owner := addrs[vecstore.ShardOf(id, shards)]
	good := make([]byte, 4*dim)
	for name, req := range map[string]shardSearchRequest{
		"neither":             {K: 5},
		"one byte short":      {Vectors: [][]byte{good[:4*dim-1]}, K: 5},
		"one value short":     {Vectors: [][]byte{good[:4*dim-4]}, K: 5},
		"one value long":      {Vectors: [][]byte{make([]byte, 4*dim+4)}, K: 5},
		"a bad one after one": {Rows: []int{id}, Vectors: [][]byte{good, good[:4]}, K: 5},
		"a NaN":               {Vectors: [][]byte{packVec(vec(dim, float32(math.NaN())))}, K: 5},
		"an infinity":         {Vectors: [][]byte{packVec(vec(dim, 1, float32(math.Inf(-1))))}, K: 5},
		"k zero":              {Rows: []int{id}},
		"k negative":          {Vectors: [][]byte{good}, K: -1},
		"k past the limit":    {Rows: []int{id}, K: defaultMaxK + 2},
	} {
		if code, body := postRaw(t, owner+"/shard/v1/search", req); code != 400 {
			t.Errorf("%s: status %d body %s, want 400", name, code, body)
		}
	}
	// One past the public cap is the router's k+1.
	if code, body := postRaw(t, owner+"/shard/v1/search", shardSearchRequest{Rows: []int{id}, K: defaultMaxK + 1}); code != 200 {
		t.Errorf("k = limit+1: status %d body %s", code, body)
	}
	// The float-array form of a vector is not a second encoding.
	if code, body := postRaw(t, owner+"/shard/v1/search", map[string]any{"vectors": [][]float32{make([]float32, dim)}, "k": 5}); code != 400 {
		t.Errorf("float-array vector: status %d body %s, want 400", code, body)
	}
}

// countingFleet fronts every shard with a proxy that counts the calls
// per /shard/v1/* path (probes are not counted).
func countingFleet(t *testing.T, addrs []string) (proxies []string, calls func() map[string]int) {
	t.Helper()
	var mu sync.Mutex
	counts := map[string]int{}
	proxies = make([]string, len(addrs))
	for i, addr := range addrs {
		target, err := url.Parse(addr)
		if err != nil {
			t.Fatal(err)
		}
		rp := httputil.NewSingleHostReverseProxy(target)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/shard/v1/") {
				mu.Lock()
				counts[r.URL.Path]++
				mu.Unlock()
			}
			rp.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		proxies[i] = hs.URL
	}
	return proxies, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := counts
		counts = map[string]int{}
		return out
	}
}

// TestRouterShardCalls counts what reaches the shards: a cold
// /v1/neighbors costs one search call per shard and no row fetch, a
// cached one nothing, and a fleet of one shard exactly one call; a
// cold neighbours batch at most two search calls per shard and no row
// fetch; a batch of pairs one row fetch per owning shard, however many
// pairs.
func TestRouterShardCalls(t *testing.T) {
	for _, shards := range []int{3, 1} {
		const vocab, dim = 40, 6
		path, addrs, _ := startShardFleet(t, vocab, dim, shards)
		proxies, calls := countingFleet(t, addrs)
		_, router := startRouter(t, path, proxies, nil)
		for _, vertex := range []string{"v0", "v1", "v17", "v39"} {
			calls()
			if code, body := getRaw(t, router.URL+"/v1/neighbors?vertex="+vertex+"&k=5"); code != 200 {
				t.Fatalf("%d shards, %s: status %d body %s", shards, vertex, code, body)
			}
			if got := calls(); got["/shard/v1/search"] != shards || len(got) != 1 {
				t.Errorf("%d shards, cold %s: shard calls %v, want %d to /shard/v1/search and no others", shards, vertex, got, shards)
			}
			getRaw(t, router.URL+"/v1/neighbors?vertex="+vertex+"&k=5")
			if got := calls(); len(got) != 0 {
				t.Errorf("%d shards, cached %s: shard calls %v, want none", shards, vertex, got)
			}
		}
		batch := []string{"v2", "v3", "v18", "v38", "v3"}
		if code, body := postRaw(t, router.URL+"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: batch, K: 5}); code != 200 {
			t.Fatalf("%d shards, batch: status %d body %s", shards, code, body)
		}
		if got := calls(); got["/shard/v1/search"] > 2*shards || len(got) != 1 {
			t.Errorf("%d shards, cold batch: shard calls %v, want at most %d to /shard/v1/search and no others", shards, got, 2*shards)
		}
		// The callers that fetch rows first: one fetch per owning shard,
		// spanned as shard_wait/rows (TestRouterFetchSpan).
		getRaw(t, router.URL+"/v1/similarity?a=v3&b=v3")
		if got := calls(); got["/shard/v1/rows"] != 1 || len(got) != 1 {
			t.Errorf("%d shards, similarity: shard calls %v, want one to /shard/v1/rows", shards, got)
		}
		var pairs [][2]string
		owners := map[int]bool{}
		for id := 0; id < vocab; id += 3 {
			pairs = append(pairs, [2]string{fmt.Sprintf("v%d", id), fmt.Sprintf("v%d", vocab-1-id)})
			owners[vecstore.ShardOf(id, shards)] = true
			owners[vecstore.ShardOf(vocab-1-id, shards)] = true
		}
		if code, body := postRaw(t, router.URL+"/v1/similarity/batch", SimilarityBatchRequest{Pairs: pairs}); code != 200 {
			t.Fatalf("%d shards, similarity batch: status %d body %s", shards, code, body)
		}
		if got := calls(); got["/shard/v1/rows"] != len(owners) || len(got) != 1 {
			t.Errorf("%d shards, %d pairs: shard calls %v, want %d to /shard/v1/rows", shards, len(pairs), got, len(owners))
		}
	}
}

// logBuffer is a log sink a test can read while the server writes.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// takeSlow returns what was logged since the last call, waiting for a
// slow-query line to be there: it is written after the response.
func (l *logBuffer) takeSlow(t *testing.T) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		l.mu.Lock()
		if b := l.b.Bytes(); bytes.Contains(b, []byte("slow query")) && bytes.HasSuffix(b, []byte("\n")) {
			defer l.mu.Unlock()
			defer l.b.Reset()
			return l.b.String()
		}
		l.mu.Unlock()
	}
	t.Fatal("no slow-query line within 5s")
	return ""
}

// TestRouterFetchSpan: the endpoints whose backend call starts with a
// row fetch record it on the request trace as shard_wait/rows.
func TestRouterFetchSpan(t *testing.T) {
	const vocab, dim, shards = 40, 6, 2
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	var slowlog logBuffer
	_, router := startRouter(t, path, addrs, func(c *Config) {
		c.SlowLogMs = 0.000001
		c.Log = log.New(&slowlog, "", 0)
	})
	for _, p := range []string{"/v1/similarity?a=v3&b=v11", "/v1/analogy?a=v1&b=v2&c=v3&k=4", "/v1/predict?u=v5&v=v6"} {
		if code, body := getRaw(t, router.URL+p); code != 200 {
			t.Fatalf("%s: status %d body %s", p, code, body)
		}
		if logged := slowlog.takeSlow(t); !strings.Contains(logged, "shard_wait/rows=") {
			t.Errorf("%s: slow log has no shard_wait/rows span: %q", p, logged)
		}
	}
	// Neighbours do not fetch: the owner, then the rest.
	getRaw(t, router.URL+"/v1/neighbors?vertex=v7&k=5")
	if logged := slowlog.takeSlow(t); strings.Contains(logged, "shard_wait/rows=") || !strings.Contains(logged, "shard_wait/0=") || !strings.Contains(logged, "shard_wait/1=") {
		t.Errorf("neighbors: slow log spans %q, want shard_wait/0 and /1 and no shard_wait/rows", logged)
	}
}

// FuzzShardWire throws arbitrary bodies at the five /shard/v1/* request
// decoders of a live shard: no body may panic a handler (net/http
// would turn that into a dropped connection; here it fails the test)
// or be answered 5xx, and a body whose vector is not exactly the
// shard's dimension is never answered 200.
func FuzzShardWire(f *testing.F) {
	const vocab, dim = 24, 4
	m, tokens := testModel(vocab, dim, 42)
	path := f.TempDir() + "/model.snap"
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		f.Fatal(err)
	}
	// Shard 0 of 1 owns every row, so by-row requests resolve.
	s, err := New(Config{ModelPath: path, ShardCount: 1, ShardID: 0, Index: vecstore.Config{Kind: vecstore.KindHNSW}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	paths := []string{"/shard/v1/search", "/shard/v1/scan", "/shard/v1/rows", "/shard/v1/insert", "/shard/v1/delete"}

	v32, v64 := packVec(make([]float32, dim)), packVec(make([]float64, dim))
	for _, seed := range []struct {
		path int
		body any
	}{
		{0, shardSearchRequest{Vectors: [][]byte{v32}, K: 3}},
		{0, shardSearchRequest{Rows: []int{3}, Vectors: [][]byte{v32, v32}, K: 2}},
		{1, shardScanRequest{Target: v64, Exclude: []int{1}, K: 3}},
		{2, shardRowsRequest{IDs: []int{0, 5}}},
		{3, shardInsertRequest{ID: vocab, Token: "new", Vector: v32}},
		{4, shardDeleteRequest{ID: 2}},
		{0, shardSearchRequest{Rows: []int{3}, K: 3}},
		{0, shardSearchRequest{Rows: []int{3, vocab}, K: 3}},
		{0, shardSearchRequest{Vectors: [][]byte{v32[:5]}, K: 3}},
		{1, shardScanRequest{Target: v32, K: 3}},
		{0, map[string]any{"vectors": [][]float32{{1, 2, 3, 4}}, "k": 3}},
		{0, map[string]any{"vectors": []string{"AAAA", "!!"}, "k": 3}},
	} {
		body, err := json.Marshal(seed.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(seed.path), body)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		p := paths[int(which)%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s %q: status %d body %s", p, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// Accepted: whatever vector the body carried was exactly one
		// dimension's worth of bytes.
		var got struct {
			Vector  []byte   `json:"vector"`
			Vectors [][]byte `json:"vectors"`
			Target  []byte   `json:"target"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return // a decoder more lenient than this struct, e.g. trailing data
		}
		bad := ""
		switch p {
		case "/shard/v1/search":
			for _, v := range got.Vectors {
				if len(v) != 4*dim {
					bad = fmt.Sprintf("query vector of %d bytes", len(v))
				}
			}
		case "/shard/v1/insert":
			if len(got.Vector) != 4*dim {
				bad = fmt.Sprintf("vector of %d bytes", len(got.Vector))
			}
		case "/shard/v1/scan":
			if len(got.Target) != 8*dim {
				bad = fmt.Sprintf("target of %d bytes", len(got.Target))
			}
		}
		if bad != "" {
			t.Fatalf("%s accepted a %s (dimension %d): %q", p, bad, dim, body)
		}
	})
}

// BenchmarkShardWire is one dim-64 search exchange through
// encoding/json, both directions: the request encoded and decoded,
// then an 11-result response with the echoed row encoded and decoded.
// "bytes" is the wire form of shard.go; "floats" is the float-array
// form it replaced, kept here for the record of what the change bought.
func BenchmarkShardWire(b *testing.B) {
	const dim = 64
	m, _ := testModel(1, dim, 42)
	q := m.Vectors[:dim]
	results := make([]vecstore.Result, 11)
	for i := range results {
		results[i] = vecstore.Result{ID: 1000 * i, Score: 1 / float64(i+3)}
	}
	type floatsRequest struct {
		Vector []float32 `json:"vector"`
		K      int       `json:"k"`
	}
	type floatsResponse struct {
		Results []vecstore.Result `json:"results"`
		Vector  []float32         `json:"vector,omitempty"`
	}
	roundTrip := func(b *testing.B, in, out any) int {
		buf, err := json.Marshal(in)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(buf, out); err != nil {
			b.Fatal(err)
		}
		return len(buf)
	}
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			var req shardSearchRequest
			n = roundTrip(b, shardSearchRequest{Vectors: [][]byte{packVec(q)}, K: 11}, &req)
			if _, err := unpackVec[float32]("query", req.Vectors[0], dim); err != nil {
				b.Fatal(err)
			}
			var resp shardSearchResponse
			n += roundTrip(b, shardSearchResponse{Results: [][]vecstore.Result{results}, Rows: req.Vectors}, &resp)
		}
		b.ReportMetric(float64(n), "wire-bytes/op")
	})
	b.Run("floats", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			var req floatsRequest
			n = roundTrip(b, floatsRequest{Vector: q, K: 11}, &req)
			var resp floatsResponse
			n += roundTrip(b, floatsResponse{Results: results, Vector: req.Vector}, &resp)
		}
		b.ReportMetric(float64(n), "wire-bytes/op")
	})
}
