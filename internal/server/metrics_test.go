package server

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"

	"v2v/internal/telemetry"
	"v2v/internal/vecstore"
)

// scrape fetches and parses /metrics, failing the test on transport,
// parse or validation errors — so every scrape in the suite doubles
// as an exposition-format conformance check.
func scrape(t *testing.T, baseURL string) *telemetry.Exposition {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	e, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, body)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("validating exposition: %v\n%s", err, body)
	}
	return e
}

func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{Index: vecstore.Config{Shards: 3}}, 300, 16)

	// Drive traffic: queries, a cache hit, an error, and a write.
	for i := 0; i < 3; i++ {
		if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v7&k=5", nil); code != 200 {
			t.Fatalf("neighbors status %d", code)
		}
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=no-such-vertex", nil); code != 404 {
		t.Fatalf("missing vertex status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/similarity?a=v1&b=v2", nil); code != 200 {
		t.Fatalf("similarity status %d", code)
	}
	vec := make([]float32, 16)
	vec[0] = 1
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "fresh", Vector: vec}, nil); code != 200 {
		t.Fatalf("upsert status %d", code)
	}

	e := scrape(t, hs.URL)

	if v, ok := e.Value("v2v_requests_total", `endpoint="neighbors"`); !ok || v != 4 {
		t.Fatalf("neighbors requests_total = %v, %v", v, ok)
	}
	if v, ok := e.Value("v2v_request_errors_total", `endpoint="neighbors",class="4xx"`); !ok || v != 1 {
		t.Fatalf("neighbors 4xx = %v, %v", v, ok)
	}
	if v, ok := e.Value("v2v_request_errors_total", `endpoint="neighbors",class="5xx"`); !ok || v != 0 {
		t.Fatalf("neighbors 5xx = %v, %v", v, ok)
	}
	f := e.Family("v2v_request_seconds")
	if f == nil || f.Type != "histogram" {
		t.Fatal("v2v_request_seconds missing or mistyped")
	}
	if got := f.Series["_count"][`endpoint="neighbors"`]; got != 4 {
		t.Fatalf("neighbors latency count = %g", got)
	}
	// The sharded search must have fed the fan-out stages.
	st := e.Family("v2v_stage_seconds")
	if st == nil {
		t.Fatal("v2v_stage_seconds missing")
	}
	for _, stage := range []string{"parse", "gen_acquire", "cache_lookup", "index_search", "shard_wait", "merge", "encode", "write", "wal_append", "apply"} {
		if got := st.Series["_count"][fmt.Sprintf("stage=%q", stage)]; got == 0 {
			t.Errorf("stage %q recorded no observations", stage)
		}
	}
	// Per-shard occupancy series, one per shard.
	live := e.Family("v2v_shard_live")
	if live == nil || len(live.Series[""]) != 3 {
		t.Fatalf("v2v_shard_live series: %+v", live)
	}
	// Build info and core gauges.
	bi := e.Family("v2v_build_info")
	if bi == nil || len(bi.Series[""]) != 1 {
		t.Fatalf("v2v_build_info: %+v", bi)
	}
	for labels, v := range bi.Series[""] {
		if v != 1 || !strings.Contains(labels, `go_version="go`) {
			t.Fatalf("build info series %q = %g", labels, v)
		}
	}
	if v, ok := e.Value("v2v_model_vectors", ""); !ok || v != 301 {
		t.Fatalf("model vectors = %v, %v", v, ok)
	}
	if v, ok := e.Value("v2v_upserts_total", ""); !ok || v != 1 {
		t.Fatalf("upserts = %v, %v", v, ok)
	}
	if v, ok := e.Value("v2v_cache_hits_total", ""); !ok || v < 2 {
		t.Fatalf("cache hits = %v, %v (want >= 2 from the repeated neighbors query)", v, ok)
	}
	if v, ok := e.Value("v2v_wal_enabled", ""); !ok || v != 0 {
		t.Fatalf("wal_enabled = %v, %v", v, ok)
	}
	// The scrape itself is instrumented.
	if v, ok := e.Value("v2v_requests_total", `endpoint="metrics"`); !ok || v < 1 {
		t.Fatalf("metrics requests_total = %v, %v", v, ok)
	}
}

func TestStatsPercentilesAndBuild(t *testing.T) {
	_, hs := newTestServer(t, Config{}, 200, 12)
	for i := 0; i < 5; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/neighbors?vertex=v%d&k=5", hs.URL, i), nil)
	}
	var stats StatsResponse
	if code := getJSON(t, hs.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if !strings.HasPrefix(stats.Build.GoVersion, "go") || stats.Build.GOMAXPROCS < 1 {
		t.Fatalf("stats build block: %+v", stats.Build)
	}
	ep := stats.Endpoints["neighbors"]
	if ep.Requests != 5 {
		t.Fatalf("neighbors requests = %d", ep.Requests)
	}
	if ep.P50Ms <= 0 || ep.P99Ms < ep.P50Ms || ep.P999Ms < ep.P99Ms || ep.MaxMs <= 0 {
		t.Fatalf("neighbors percentiles not populated/ordered: %+v", ep)
	}
	var health map[string]any
	getJSON(t, hs.URL+"/healthz", &health)
	build, ok := health["build"].(map[string]any)
	if !ok || !strings.HasPrefix(build["go_version"].(string), "go") {
		t.Fatalf("healthz build block: %v", health["build"])
	}
}

// syncBuffer is a goroutine-safe log sink: the slow-query line is
// written after the response reaches the client, so the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestSlowQueryLog pins the slow-log contract: with a threshold of ~0
// every request logs one structured line, and on the query hot path
// the top-level spans explain the request total to within 10% (the
// acceptance bound for the tracing's coverage). The write endpoints'
// lines must open with the body decode like every other: a batch
// upsert is the largest body the server parses. A batch records what
// its single query does — it is the same path — and the pair
// endpoints record their stages too.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, hs := newTestServer(t, Config{
		SlowLogMs: 0.0001,
		CacheSize: -1, // force the search path (cache hits are near-free)
		Log:       log.New(&buf, "", 0),
	}, 10000, 64)

	for i := 0; i < 5; i++ {
		if code := getJSON(t, fmt.Sprintf("%s/v1/neighbors?vertex=v%d&k=100", hs.URL, i), nil); code != 200 {
			t.Fatalf("neighbors status %d", code)
		}
	}
	items := []UpsertRequest{{Vertex: "fresh", Vector: make([]float32, 64)}}
	items[0].Vector[0] = 1
	if code := postJSON(t, hs.URL+"/v1/upsert/batch", UpsertBatchRequest{Items: items}, nil); code != 200 {
		t.Fatalf("upsert batch status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: "fresh"}, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/similarity?a=v1&b=v2", nil); code != 200 {
		t.Fatalf("similarity status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/predict/batch", PredictBatchRequest{Pairs: [][2]string{{"v1", "v2"}, {"v3", "v4"}}}, nil); code != 200 {
		t.Fatalf("predict batch status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/neighbors/batch", NeighborsBatchRequest{Vertices: []string{"v5", "v6"}, K: 100}, nil); code != 200 {
		t.Fatalf("neighbors batch status %d", code)
	}

	// A line is emitted after the response is written; wait for it.
	slowLines := func(endpoint string, want int) []string {
		t.Helper()
		var lines []string
		waitFor(t, fmt.Sprintf("%d slow-query lines for %s", want, endpoint), func() bool {
			lines = lines[:0]
			for _, ln := range strings.Split(buf.String(), "\n") {
				if strings.Contains(ln, "slow query endpoint="+endpoint+" ") {
					lines = append(lines, ln)
				}
			}
			return len(lines) >= want
		})
		return lines
	}
	for endpoint, stages := range map[string][]string{
		"upsert_batch":    {"parse=", "gen_acquire=", "apply=", "write="},
		"delete":          {"parse=", "gen_acquire=", "apply=", "write="},
		"similarity":      {"parse=", "gen_acquire=", "index_search=", "encode=", "write="},
		"predict_batch":   {"parse=", "gen_acquire=", "index_search=", "encode=", "write="},
		"neighbors_batch": {"parse=", "gen_acquire=", "cache_lookup=", "index_search=", "shard_wait/0=", "merge/topk=", "encode=", "write="},
	} {
		ln := slowLines(endpoint, 1)[0]
		for _, stage := range stages {
			if !strings.Contains(ln, stage) {
				t.Fatalf("span %q missing from %q", stage, ln)
			}
		}
	}
	lines := slowLines("neighbors", 5)

	bestRatio := 0.0
	for _, ln := range lines {
		var total, spans float64
		if _, err := fmt.Sscanf(ln[strings.Index(ln, "total_ms="):], "total_ms=%f spans_ms=%f", &total, &spans); err != nil {
			t.Fatalf("unparseable slow-query line %q: %v", ln, err)
		}
		if total <= 0 || spans <= 0 || spans > total*1.02 {
			t.Fatalf("implausible totals in %q", ln)
		}
		if r := spans / total; r > bestRatio {
			bestRatio = r
		}
		for _, stage := range []string{"parse=", "gen_acquire=", "cache_lookup=", "index_search=", "encode=", "write="} {
			if !strings.Contains(ln, stage) {
				t.Fatalf("span %q missing from %q", stage, ln)
			}
		}
	}
	// Scheduling jitter can dilate any single request, so the bound
	// applies to the best-covered of the five.
	if bestRatio < 0.9 {
		t.Fatalf("top-level spans explain only %.1f%% of the request total (want >= 90%%)", bestRatio*100)
	}
}

func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{}, 30, 8)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof reachable without opt-in: status %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{Pprof: true}, 30, 8)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index with opt-in: status %d", resp.StatusCode)
	}
}
