package v2v

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOverloadSheddingE2E is the ISSUE acceptance criterion: a server
// whose read class is deliberately tiny (2 slots + 2 queued) driven
// closed-loop by 8 load workers is overloaded by construction —
// more requests in flight than the class can hold. The server must
// answer every admitted request (bounded p99: the wait behind at most
// 2 queued requests), shed the excess as 429s, and produce zero 5xx
// and zero dropped connections while staying fully observable through
// /stats.
//
// Each request is an uncached 16-query batch scan (~tens of ms of
// compute), longer than the Go scheduler's preemption quantum: even
// on GOMAXPROCS=1, in-flight handlers are preempted while later
// arrivals reach the admission gate, so the class genuinely
// overflows. Sub-millisecond requests would instead serialize on one
// CPU and never trip the limit.
func TestOverloadSheddingE2E(t *testing.T) {
	srv, err := NewQueryServerFromModel(ServeConfig{
		CacheSize: -1, // every query does real index work
		Admission: ServeAdmissionConfig{
			Read: ServeClassLimit{Concurrency: 2, Queue: 2},
		},
	}, e2eModel(20000, 64), nil)
	if err != nil {
		t.Fatalf("NewQueryServerFromModel: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Each request is one 16-vertex /v1/neighbors/batch at k = 10.
	o := load{Workers: 8, Requests: 100, Seed: 21, Timeout: 10 * time.Second}.run(t, hs.URL, func(w *loadWorker) int {
		vs := make([]string, 16)
		for i := range vs {
			vs[i] = w.rawTok()
		}
		return w.post("/v1/neighbors/batch", map[string]any{"vertices": vs, "k": 10})
	})
	t.Logf("overload run: %d requests, %d ok, %d shed, p99 %.3fms",
		o.Requests, o.Requests-o.Errors(), o.Status[429], o.P99Ms)

	// 8 closed-loop workers against 2+2 slots: excess load was shed.
	if o.Status[429] == 0 {
		t.Fatal("no requests shed: 8 workers against a 2+2 read class must overflow")
	}
	// Every admitted request succeeded; every failure was a deliberate
	// 429. Zero 5xx (no deadline is configured, so no 503s either) and
	// zero dropped connections (status 0).
	if o.Errors() != o.Status[429] || o.Status[503] != 0 || o.Status[0] != 0 {
		t.Fatalf("errors %d / shed %d / expired %d / net %d: overload must shed cleanly, nothing else",
			o.Errors(), o.Status[429], o.Status[503], o.Status[0])
	}
	if o.Requests-o.Errors() == 0 {
		t.Fatal("no requests admitted at all")
	}
	// Bounded p99 for the admitted requests: each waited behind at most
	// 2 queued batch scans. The 2s ceiling is orders of magnitude above
	// any real value — it catches unbounded queueing, not slow hardware.
	if o.P99Ms <= 0 || o.P99Ms > 2000 {
		t.Fatalf("admitted p99 = %.3fms, want bounded (0, 2000]", o.P99Ms)
	}

	// The overload is visible in /stats: sheds recorded, nothing still
	// in flight or queued after the run.
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var st struct {
		Admission map[string]struct {
			Inflight int    `json:"inflight"`
			Queued   int    `json:"queued"`
			Shed     uint64 `json:"shed"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	resp.Body.Close()
	read := st.Admission["read"]
	if read.Shed != uint64(o.Status[429]) {
		t.Errorf("server counted %d sheds, client saw %d", read.Shed, o.Status[429])
	}
	if read.Inflight != 0 || read.Queued != 0 {
		t.Errorf("read class not drained after the run: %+v", read)
	}
}
