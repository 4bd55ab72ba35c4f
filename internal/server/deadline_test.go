// Deadline-propagation tests: per-class deadlines must turn into 503s
// at stage boundaries, increment the expired counter, show up in the
// slow-query log with the partial stage trace, and leak neither the
// generation reader lock nor pooled trace state (-race covers the
// latter; the post-expiry write probe covers the former).
package server

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"v2v/internal/vecstore"
)

// blockingBackend wraps the real shard backend but parks every
// SearchRows call on a channel the test controls — the "slow index"
// stub — and then answers as if the search had run past its budget
// unnoticed: a complete result, whatever became of the deadline.
type blockingBackend struct {
	shardBackend
	entered chan struct{} // one token per SearchRows entry
	release chan struct{} // closed to let parked searches finish
}

func (b *blockingBackend) SearchRows(ctx context.Context, ids []int, k int, rec vecstore.SpanRecorder) ([][]vecstore.Result, searchMeta, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.shardBackend.SearchRows(context.WithoutCancel(ctx), ids, k, rec)
}

// newDeadlineServer builds a server whose read class has the given
// deadline, over a blocking index when block is non-nil.
func newDeadlineServer(t *testing.T, deadlineMs float64, block *blockingBackend, logBuf *bytes.Buffer) (*Server, *httptest.Server) {
	t.Helper()
	m, tokens := testModel(50, 8, 42)
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{Read: ClassLimit{DeadlineMs: deadlineMs}},
	}
	if logBuf != nil {
		cfg.SlowLogMs = 1e9 // enabled, but only deadline expiries will log
		cfg.Log = log.New(logBuf, "", 0)
	}
	s, err := newFromModel(cfg, m, tokens, nil, "test")
	if err != nil {
		t.Fatalf("newFromModel: %v", err)
	}
	if block != nil {
		st := s.state.Load()
		block.shardBackend = st.backend
		st.backend = block
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// TestDeadlineExpiryAnswers503 uses a deadline that has always
// already expired by the first stage boundary (1ns), so the 503 path
// is exercised deterministically: the handler aborts before the index
// search, the class expired counter increments, and the reader lock
// is released (proven by a write, which needs the writer side).
func TestDeadlineExpiryAnswers503(t *testing.T) {
	var logBuf bytes.Buffer
	s, hs := newDeadlineServer(t, 1e-6, nil, &logBuf)

	resp, err := http.Get(hs.URL + "/v1/neighbors?vertex=v1&k=3")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := s.classes[classRead].expired.Load(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	// The expiry was logged with its partial stage trace even though
	// the request was far under the slowlog threshold.
	if !strings.Contains(logBuf.String(), "slow query endpoint=neighbors status=503") {
		t.Fatalf("deadline expiry missing from slowlog: %q", logBuf.String())
	}
	// No reader lock leaked: a write (writer lock) succeeds, as does a
	// fresh read through the write class (no deadline there).
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "w0", Vector: make([]float32, 8)}, nil); code != http.StatusOK {
		t.Fatalf("write after expiry: %d, want 200", code)
	}

	// /stats reflects it too.
	var st StatsResponse
	getJSON(t, hs.URL+"/stats", &st)
	if st.Admission[classRead].Expired != 1 {
		t.Fatalf("stats admission.read.expired = %d, want 1", st.Admission[classRead].Expired)
	}
	if st.Admission[classRead].DeadlineMs == 0 {
		t.Fatal("stats admission.read.deadline_ms not reported")
	}
}

// TestDeadlineExpiryMidSearch parks the request — a single query and
// a batch, which take the same path — inside the index search (the
// slow-index stub) until the deadline is certainly expired, then
// releases it: the handler must notice the expiry at the post-search
// boundary and answer 503 instead of serving a result computed past
// its budget. The sequencing is handshake-based — the test waits for
// the stub's entry signal, and the only wall-clock dependence is "30ms
// has passed a 5ms deadline", which holds on any machine.
func TestDeadlineExpiryMidSearch(t *testing.T) {
	for i, send := range []func(url string) (*http.Response, error){
		func(url string) (*http.Response, error) { return http.Get(url + "/v1/neighbors?vertex=v1&k=3") },
		func(url string) (*http.Response, error) {
			return http.Post(url+"/v1/neighbors/batch", "application/json", strings.NewReader(`{"vertices":["v1","v2"],"k":3}`))
		},
	} {
		block := &blockingBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
		s, hs := newDeadlineServer(t, 5, block, nil)

		done := make(chan int, 1)
		go func() {
			resp, err := send(hs.URL)
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-block.entered                   // the handler is inside SearchRows
		time.Sleep(30 * time.Millisecond) // 5ms deadline is now certainly expired
		close(block.release)
		if code := <-done; code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status = %d, want 503 (deadline expired during index search)", i, code)
		}
		if got := s.classes[classRead].expired.Load(); got != 1 {
			t.Fatalf("request %d: expired counter = %d, want 1", i, got)
		}
		// Server is healthy afterwards: a query with no parked stub
		// answers 200.
		if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusOK {
			t.Fatalf("request %d: query after expiry: %d, want 200", i, code)
		}
	}
}

// TestDeadlineShardedFanoutExpiry runs the expired-deadline path over
// a sharded generation: the pre-search boundary check answers 503 and
// the scatter-gather machinery, per-generation lock and trace pool
// survive intact (-race guards the trace reuse; the follow-up
// requests prove the locks).
func TestDeadlineShardedFanoutExpiry(t *testing.T) {
	m, tokens := testModel(200, 8, 42)
	cfg := Config{
		CacheSize: -1,
		Index:     vecstore.Config{Shards: 2},
		Admission: AdmissionConfig{Read: ClassLimit{DeadlineMs: 1e-6}},
	}
	s, err := NewFromModel(cfg, m, tokens)
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	get := func() (*http.Response, error) { return http.Get(hs.URL + "/v1/neighbors?vertex=v1&k=3") }
	// A batch takes the same fan-out to the same 503.
	batch := func() (*http.Response, error) {
		return http.Post(hs.URL+"/v1/neighbors/batch", "application/json", strings.NewReader(`{"vertices":["v1","v7","v8"],"k":3}`))
	}
	for i, send := range []func() (*http.Response, error){get, get, get, batch} {
		resp, err := send()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status = %d, want 503", i, resp.StatusCode)
		}
	}
	if got := s.classes[classRead].expired.Load(); got != 4 {
		t.Fatalf("expired counter = %d, want 4", got)
	}
	// Writes (no write-class deadline configured) still mutate the
	// sharded generation — nothing leaked.
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "w0", Vector: make([]float32, 8)}, nil); code != http.StatusOK {
		t.Fatalf("write after sharded expiries: %d, want 200", code)
	}
}

// TestWriteDeadlineCleanRejection: an expired write-class deadline
// must abort before the WAL append and apply — a clean 503 with no
// side effects (the vertex must not exist afterwards).
func TestWriteDeadlineCleanRejection(t *testing.T) {
	m, tokens := testModel(50, 8, 42)
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{Write: ClassLimit{DeadlineMs: 1e-6}},
	}
	s, err := NewFromModel(cfg, m, tokens)
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "w0", Vector: make([]float32, 8)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("expired write: %d, want 503", code)
	}
	if got := s.classes[classWrite].expired.Load(); got != 1 {
		t.Fatalf("write expired counter = %d, want 1", got)
	}
	// Clean rejection: the write left no trace.
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=w0&k=1", nil); code != http.StatusNotFound {
		t.Fatalf("vertex w0 after rejected write: %d, want 404", code)
	}
	if s.upserts.Load() != 0 {
		t.Fatalf("upserts counter = %d after clean rejection, want 0", s.upserts.Load())
	}
}
