package server

// Tests of the /shard/v1/* wire: the search frame, the number of
// shard calls a routed query costs, both halves of the wire under
// fuzz, and what the search frame costs against the JSON form it
// replaced.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

// appendSearchFrame appends the search request for qs at k to dst, the
// frame the router sends for one query of len(qs) rows.
func appendSearchFrame(dst []byte, k int, qs [][]float32) []byte {
	dst = appendSearchHeader(dst, k, len(qs))
	for _, q := range qs {
		dst = appendSearchRow(dst, q)
	}
	return dst
}

// postFrame POSTs a search frame and returns the status and the body.
func postFrame(t *testing.T, url string, frame []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

// TestShardSearchFrame pins /shard/v1/search: each query's decoded
// list is the shard's own SearchBatch answer in global IDs, ID and
// score bits alike, at one query and at several, and every malformed
// frame is a 400.
func TestShardSearchFrame(t *testing.T) {
	const vocab, dim, shards, maxBatch = 60, 8, 2, 5
	m, tokens := testModel(vocab, dim, 42)
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ModelPath: path, ShardCount: shards, ShardID: 1, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	url := hs.URL + "/shard/v1/search"

	row := func(id int) []float32 { return m.Vectors[id*dim : (id+1)*dim] }
	for _, tc := range []struct {
		k  int
		qs [][]float32
	}{
		{5, [][]float32{row(0)}},
		{1, [][]float32{row(7)}},
		{defaultMaxK + 1, [][]float32{row(3)}}, // one past the public cap is the router's k+1
		{4, [][]float32{row(1), vec(dim, 1), row(1), row(59), vec(dim, 0, -2)}},
	} {
		code, body := postFrame(t, url, appendSearchFrame(nil, tc.k, tc.qs))
		if code != http.StatusOK {
			t.Fatalf("k %d, %d queries: status %d body %s", tc.k, len(tc.qs), code, body)
		}
		got, err := decodeSearchResults(body, len(tc.qs))
		if err != nil {
			t.Fatalf("k %d, %d queries: %v", tc.k, len(tc.qs), err)
		}
		want := s.state.Load().sharded.SearchBatch(tc.qs, tc.k)
		for q := range want {
			want[q] = s.shard.toGlobal(want[q])
			if len(got[q]) != len(want[q]) {
				t.Fatalf("k %d, query %d: %d results, SearchBatch has %d", tc.k, q, len(got[q]), len(want[q]))
			}
			for i, h := range want[q] {
				if g := got[q][i]; g.ID != h.ID || math.Float64bits(g.Score) != math.Float64bits(h.Score) {
					t.Fatalf("k %d, query %d, result %d: %+v, SearchBatch has %+v", tc.k, q, i, g, h)
				}
			}
		}
	}

	good := appendSearchFrame(nil, 5, [][]float32{row(0), row(1)})
	for name, frame := range map[string][]byte{
		"empty":                 nil,
		"a short header":        good[:7],
		"one byte short":        good[:len(good)-1],
		"one value short":       good[:len(good)-4],
		"one byte long":         append(append([]byte{}, good...), 0),
		"one vector long":       append(append([]byte{}, good...), good[8:8+4*dim]...),
		"no queries":            appendSearchFrame(nil, 5, nil),
		"n past MaxBatch":       appendSearchFrame(nil, 5, [][]float32{row(0), row(1), row(2), row(3), row(4), row(5)}),
		"k zero":                appendSearchFrame(nil, 0, [][]float32{row(0)}),
		"k past the limit":      appendSearchFrame(nil, defaultMaxK+2, [][]float32{row(0)}),
		"a NaN":                 appendSearchFrame(nil, 5, [][]float32{vec(dim, float32(math.NaN()))}),
		"an infinity":           appendSearchFrame(nil, 5, [][]float32{row(0), vec(dim, 1, float32(math.Inf(-1)))}),
		"a JSON body":           []byte(`{"vectors":["AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="],"k":5}`),
		"a JSON body of floats": []byte(`{"vectors":[[0,0,0,0,0,0,0,0]],"k":5}`),
	} {
		if code, body := postFrame(t, url, frame); code != http.StatusBadRequest || !bytes.HasPrefix(body, []byte(`{"error":`)) {
			t.Errorf("%s: status %d body %s, want a JSON 400", name, code, body)
		}
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
// /v1/neighbors or /v1/neighbors/batch costs exactly one search call
// per shard and nothing else, a cached one nothing; similarity, a
// batch of pairs too, is answered from the router's rows with no call
// at all.
func TestRouterShardCalls(t *testing.T) {
	for _, shards := range []int{3, 1} {
		const vocab, dim = 40, 6
		path, addrs, _ := startShardFleet(t, vocab, dim, shards)
		proxies, calls := countingFleet(t, addrs)
		_, router := startRouter(t, path, proxies, nil)
		only := func(what, path string, n int) {
			t.Helper()
			if got := calls(); got[path] != n || len(got) != min(n, 1) {
				t.Errorf("%d shards, %s: shard calls %v, want %d to %s and no others", shards, what, got, n, path)
			}
		}
		for _, vertex := range []string{"v0", "v1", "v17", "v39"} {
			calls()
			if code, body := getRaw(t, router.URL+"/v1/neighbors?vertex="+vertex+"&k=5"); code != 200 {
				t.Fatalf("%d shards, %s: status %d body %s", shards, vertex, code, body)
			}
			only("cold "+vertex, "/shard/v1/search", shards)
			getRaw(t, router.URL+"/v1/neighbors?vertex="+vertex+"&k=5")
			only("cached "+vertex, "/shard/v1/search", 0)
		}
		batch := []string{"v2", "v3", "v18", "v38", "v3"}
		if code, body := postRaw(t, router.URL+"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: batch, K: 5}); code != 200 {
			t.Fatalf("%d shards, batch: status %d body %s", shards, code, body)
		}
		only("cold batch", "/shard/v1/search", shards)

		for _, p := range []string{"/v1/similarity?a=v3&b=v3", "/v1/similarity?a=v5&b=v6"} {
			if code, body := getRaw(t, router.URL+p); code != 200 {
				t.Fatalf("%d shards, %s: status %d body %s", shards, p, code, body)
			}
			only(p, "/shard/v1/search", 0)
		}
		var pairs [][2]string
		for id := 0; id < vocab; id += 3 {
			pairs = append(pairs, [2]string{fmt.Sprintf("v%d", id), fmt.Sprintf("v%d", vocab-1-id)})
		}
		if code, body := postRaw(t, router.URL+"/v1/similarity/batch", SimilarityBatchRequest{Pairs: pairs}); code != 200 {
			t.Fatalf("%d shards, similarity batch: status %d body %s", shards, code, body)
		}
		only(fmt.Sprintf("%d pairs", len(pairs)), "/shard/v1/search", 0)
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

// TestRouterFetchSpan: no request fetches rows, so none records a
// shard_wait/rows span; similarity records no shard span at all, as
// in-process, and a neighbours query exactly one per shard.
func TestRouterFetchSpan(t *testing.T) {
	const vocab, dim, shards = 40, 6, 2
	path, addrs, _ := startShardFleet(t, vocab, dim, shards)
	var slowlog logBuffer
	_, router := startRouter(t, path, addrs, func(c *Config) {
		c.SlowLogMs = 0.000001
		c.Log = log.New(&slowlog, "", 0)
	})
	for p, spans := range map[string]int{
		"/v1/similarity?a=v3&b=v11":   0,
		"/v1/neighbors?vertex=v7&k=5": shards,
	} {
		if code, body := getRaw(t, router.URL+p); code != 200 {
			t.Fatalf("%s: status %d body %s", p, code, body)
		}
		logged := slowlog.takeSlow(t)
		if n := strings.Count(logged, "shard_wait/"); n != spans || strings.Contains(logged, "shard_wait/rows=") {
			t.Errorf("%s: slow log has %d shard_wait spans, want %d and no shard_wait/rows: %q", p, n, spans, logged)
		}
		for sid := 0; sid < spans; sid++ {
			if !strings.Contains(logged, fmt.Sprintf("shard_wait/%d=", sid)) {
				t.Errorf("%s: slow log has no shard_wait/%d span: %q", p, sid, logged)
			}
		}
	}
}

// FuzzShardWire throws arbitrary bodies at the three /shard/v1/*
// request decoders of a live shard: no body may panic a handler
// (net/http would turn that into a dropped connection; here it fails
// the test) or be answered 5xx, and a body whose vectors are not
// exactly the shard's dimension is never answered 200.
func FuzzShardWire(f *testing.F) {
	const vocab, dim = 24, 4
	m, tokens := testModel(vocab, dim, 42)
	path := f.TempDir() + "/model.snap"
	if err := snapshot.SaveBundleFile(path, m, tokens, nil); err != nil {
		f.Fatal(err)
	}
	// Shard 0 of 1 owns every row, so deletes resolve.
	s, err := New(Config{ModelPath: path, ShardCount: 1, ShardID: 0, Index: vecstore.Config{Kind: vecstore.KindHNSW}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	paths := []string{"/shard/v1/search", "/shard/v1/insert", "/shard/v1/delete"}

	q := make([]float32, dim)
	v32 := packVec(q)
	frames := [][]byte{
		appendSearchFrame(nil, 3, [][]float32{q}),
		appendSearchFrame(nil, 2, [][]float32{q, vec(dim, 1), q}),
		appendSearchFrame(nil, defaultMaxK+1, [][]float32{q})[:8+4*dim-1],
		appendSearchFrame(nil, 3, [][]float32{vec(dim, float32(math.NaN()))}),
		appendSearchFrame(nil, 0, [][]float32{q}),
		[]byte(`{"vectors":["AAAAAAAAAAAAAAAAAAAAAA=="],"k":3}`),
	}
	for _, frame := range frames {
		f.Add(uint8(0), frame)
	}
	for _, seed := range []struct {
		path int
		body any
	}{
		{1, shardInsertRequest{ID: vocab, Token: "nan", Vector: packVec(vec(dim, float32(math.NaN())))}},
		{1, shardInsertRequest{ID: vocab, Token: "new", Vector: v32}},
		{2, shardDeleteRequest{ID: 2}},
		{2, shardDeleteRequest{ID: vocab + 5}},
		{1, shardInsertRequest{ID: vocab, Token: "long", Vector: packVec(make([]float32, 2*dim))}},
		{1, map[string]any{"id": vocab + 1, "token": "t", "vector": []float32{1, 2, 3, 4}}},
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
		// Accepted: whatever vectors the body carried were exactly the
		// shard's dimension.
		if p == "/shard/v1/search" {
			n := int(binary.LittleEndian.Uint32(body[4:]))
			if len(body) != 8+4*dim*n {
				t.Fatalf("search accepted a %d-byte frame of %d queries (dimension %d): %q", len(body), n, dim, body)
			}
			if _, err := decodeSearchResults(rec.Body.Bytes(), n); err != nil {
				t.Fatalf("search answered %q with a reply the router refuses: %v", body, err)
			}
			return
		}
		var got struct {
			Vector []byte `json:"vector"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return // a decoder more lenient than this struct, e.g. trailing data
		}
		if p == "/shard/v1/insert" && len(got.Vector) != 4*dim {
			t.Fatalf("insert accepted a vector of %d bytes (dimension %d): %q", len(got.Vector), dim, body)
		}
	})
}

// FuzzSearchResults throws arbitrary bytes at the router's decoder of
// a search reply of n lists: it must not panic, what it accepts must
// re-encode to the same bytes, and it allocates results only for the
// bytes it was given — a count claiming 2³²−1 results in a 12-byte
// reply is refused before anything is allocated for them.
func FuzzSearchResults(f *testing.F) {
	claim := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	claim = append(claim, make([]byte, 8)...)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := decodeSearchResults(claim, 1)
	runtime.ReadMemStats(&ms1)
	if err == nil {
		f.Fatal("a count of 2^32-1 in a 12-byte reply was accepted")
	}
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<12 {
		f.Fatalf("refusing a 12-byte reply allocated %d bytes", grew)
	}

	lists := [][]vecstore.Result{{{ID: 3, Score: 0.5}, {ID: 1 << 40, Score: -1}}, {}, {{ID: 0, Score: 0}}}
	f.Add(uint8(3), appendSearchResults(nil, lists))
	f.Add(uint8(1), appendSearchResults(nil, lists[:1]))
	f.Add(uint8(2), appendSearchResults(nil, lists[1:]))
	f.Add(uint8(1), claim)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), appendSearchResults(nil, [][]vecstore.Result{{{ID: 1, Score: math.Inf(1)}}}))
	f.Fuzz(func(t *testing.T, n uint8, b []byte) {
		got, err := decodeSearchResults(b, int(n))
		if err != nil {
			return
		}
		if len(got) != int(n) {
			t.Fatalf("%d lists decoded for n %d", len(got), n)
		}
		if again := appendSearchResults(nil, got); !bytes.Equal(again, b) {
			t.Fatalf("%x decodes to %v, which encodes to %x", b, got, again)
		}
	})
}

// BenchmarkShardWire is one dim-64 search exchange with an 11-result
// answer, both directions encoded and decoded. "frame" is the binary
// frame of shard.go; "json" is the JSON form it replaced (the query
// row as base64 bits, the answer as JSON numbers with the owner's
// echoed row), kept here for the record of what the change bought.
func BenchmarkShardWire(b *testing.B) {
	const dim = 64
	m, _ := testModel(1, dim, 42)
	q := m.Vectors[:dim]
	results := make([]vecstore.Result, 11)
	for i := range results {
		results[i] = vecstore.Result{ID: 1000 * i, Score: 1 / float64(i+3)}
	}
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			req := appendSearchFrame(nil, 11, [][]float32{q})
			if k, _, err := readSearchFrame(bytes.NewReader(req), dim, 1, defaultMaxK+1); err != nil || k != 11 {
				b.Fatal(k, err)
			}
			resp := appendSearchResults(nil, [][]vecstore.Result{results})
			if _, err := decodeSearchResults(resp, 1); err != nil {
				b.Fatal(err)
			}
			n = len(req) + len(resp)
		}
		b.ReportMetric(float64(n), "wire-bytes/op")
	})
	type jsonRequest struct {
		Vectors [][]byte `json:"vectors,omitempty"`
		K       int      `json:"k"`
	}
	type jsonResponse struct {
		Results [][]vecstore.Result `json:"results"`
		Rows    [][]byte            `json:"rows,omitempty"`
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
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			var req jsonRequest
			n = roundTrip(b, jsonRequest{Vectors: [][]byte{packVec(q)}, K: 11}, &req)
			if _, err := unpackVec("query", req.Vectors[0], dim); err != nil {
				b.Fatal(err)
			}
			var resp jsonResponse
			n += roundTrip(b, jsonResponse{Results: [][]vecstore.Result{results}, Rows: req.Vectors}, &resp)
		}
		b.ReportMetric(float64(n), "wire-bytes/op")
	})
}
