// Package loadgen is the measuring client for the embedding query
// server: a FalkorDB-benchmark-style load generator that fires a
// configurable mix of endpoint queries at a target aggregate QPS from
// N concurrent workers and reports throughput plus latency
// percentiles. The end-to-end suites at the module root drive it
// against real servers: the overload run, and the crash-recovery runs
// that audit its write journal after a kill -9.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"v2v/internal/telemetry"
	"v2v/internal/xrand"
)

// Op names one request shape the generator can issue. The batch ops
// issue one HTTP request carrying BatchSize queries.
type Op string

// Supported operations. The write ops (upsert, delete) target
// generator-owned synthetic tokens in a per-worker namespace, so they
// never invalidate the vocabulary the read ops sample from — a mixed
// read/write run must be able to finish with zero errors.
const (
	OpNeighbors       Op = "neighbors"
	OpNeighborsBatch  Op = "neighbors-batch"
	OpSimilarity      Op = "similarity"
	OpSimilarityBatch Op = "similarity-batch"
	OpAnalogy         Op = "analogy"
	OpPredict         Op = "predict"
	OpPredictBatch    Op = "predict-batch"
	OpUpsert          Op = "upsert"
	OpDelete          Op = "delete"
)

var allOps = []Op{
	OpNeighbors, OpNeighborsBatch, OpSimilarity, OpSimilarityBatch,
	OpAnalogy, OpPredict, OpPredictBatch, OpUpsert, OpDelete,
}

// writeOps reports whether the mix issues any write operations.
func writeOps(mix map[Op]float64) bool {
	return mix[OpUpsert] > 0 || mix[OpDelete] > 0
}

// WithWriteFraction rescales mix so that writes make up fraction f of
// all operations, split 2:1 between upserts and deletes (every
// deleted row must first have been upserted, so a delete-heavy mix
// would starve). The read portion keeps its relative weights. f = 0
// returns the mix unchanged; mixes that already contain write ops
// cannot be rescaled.
func WithWriteFraction(mix map[Op]float64, f float64) (map[Op]float64, error) {
	if f == 0 {
		return mix, nil
	}
	if f < 0 || f >= 1 {
		return nil, fmt.Errorf("loadgen: write fraction %g outside [0, 1)", f)
	}
	if writeOps(mix) {
		return nil, fmt.Errorf("loadgen: mix already contains upsert/delete weights; set either the mix or the write fraction")
	}
	if len(mix) == 0 {
		mix = map[Op]float64{OpNeighbors: 1}
	}
	var total float64
	for _, w := range mix {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: empty operation mix")
	}
	out := make(map[Op]float64, len(mix)+2)
	for op, w := range mix {
		out[op] = w / total * (1 - f)
	}
	out[OpUpsert] = f * 2 / 3
	out[OpDelete] = f / 3
	return out, nil
}

// Config tunes a load run.
type Config struct {
	// BaseURL of the target server, e.g. "http://127.0.0.1:8080".
	BaseURL string

	// Workers is the number of concurrent client goroutines
	// (0 = GOMAXPROCS).
	Workers int

	// QPS is the target aggregate request rate; 0 runs closed-loop at
	// maximum speed.
	QPS float64

	// Requests bounds the run by request count; when 0, Duration
	// bounds it by wall clock (default 10s).
	Requests int
	Duration time.Duration

	// Mix weights the operations (need not sum to 1); nil means 100%
	// neighbors queries.
	Mix map[Op]float64

	// K is the top-k per neighbors/analogy query (default 10).
	K int

	// BatchSize is the queries carried per batch request (default 16).
	BatchSize int

	// Seed drives query sampling; runs with equal seeds issue the
	// same query sequence per worker.
	Seed uint64

	// WarmupPasses issues that many unmeasured passes over the whole
	// sampled vocabulary (one neighbors query per token at K) before
	// the clock starts, pre-filling the server's response cache the
	// way steady-state traffic would have. 0 measures from cold.
	WarmupPasses int

	// Timeout is the per-request client timeout (0 = 10s).
	Timeout time.Duration

	// RecordWrites journals every issued write operation into
	// Result.Writes, in per-worker issue order, with whether the server
	// acknowledged it. Crash-recovery harnesses replay the journal
	// against a restarted server to prove no acknowledged write was
	// lost (see the serve e2e tests and Makefile crash-smoke).
	RecordWrites bool
}

// WriteEvent is one journaled write operation. Worker-scoped token
// namespaces (lg-<worker>-<seq>) make per-token ordering equal to the
// worker's event order, so a verifier only needs each token's last
// event. Acked means the client read an HTTP 200: an unacked event's
// outcome is unknown (the server may have applied it before the
// connection died), acked ones are the durability contract.
type WriteEvent struct {
	Worker int    `json:"worker"`
	Op     Op     `json:"op"`
	Vertex string `json:"vertex"`
	Acked  bool   `json:"acked"`
}

// OpResult is the measured outcome of one operation type. Percentiles
// cover successful requests (errors are counted, not timed) and come
// from the shared telemetry histogram, so they carry its ≤ 0.78%
// relative bucket-width error; Max and Mean are exact.
//
// Errors counts every failed request; Shed (HTTP 429: admission
// control), Expired (HTTP 503: deadline expiry) and NetErrors
// (transport-level failures: refused, reset, timed out) break it down
// so an overload run can tell deliberate load-shedding apart from a
// server falling over. Errors ≥ Shed + Expired + NetErrors, with the
// remainder being other non-200 statuses.
type OpResult struct {
	Op        Op      `json:"op"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Shed      int     `json:"shed,omitempty"`
	Expired   int     `json:"expired,omitempty"`
	NetErrors int     `json:"net_errors,omitempty"`
	QPS       float64 `json:"qps"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	P999Ms    float64 `json:"p999_ms"`
	MaxMs     float64 `json:"max_ms"`
	MeanMs    float64 `json:"mean_ms"`
}

// Result is a completed load run.
type Result struct {
	DurationSeconds float64    `json:"duration_seconds"`
	Workers         int        `json:"workers"`
	TargetQPS       float64    `json:"target_qps,omitempty"`
	Overall         OpResult   `json:"overall"`
	PerOp           []OpResult `json:"per_op"`

	// Writes is the write journal (Config.RecordWrites), grouped by
	// worker and ordered by issue time within each worker.
	Writes []WriteEvent `json:"writes,omitempty"`
}

// opAgg accumulates one operation's outcomes within one worker: a
// request/error tally plus an HDR histogram of successful-request
// latencies. Workers aggregate into their own opAggs with no
// synchronization; after the run joins, per-worker aggs merge
// bucket-wise into per-op totals, and the per-op totals merge again
// into the overall row — the fixed bucket layout makes both merges
// exact (the merged histogram equals the histogram of the union of
// observations). The histogram is allocated lazily so ops absent from
// the mix cost nothing.
type opAgg struct {
	requests  int
	errors    int
	shed      int
	expired   int
	netErrors int
	hist      *telemetry.Histogram
}

// observe records one completed request by its HTTP status (0 means
// the request never got a response: connection refused, reset, or
// timed out).
func (a *opAgg) observe(code int, d time.Duration) {
	a.requests++
	if code == http.StatusOK {
		if a.hist == nil {
			a.hist = telemetry.NewHistogram()
		}
		a.hist.Observe(d)
		return
	}
	a.errors++
	switch code {
	case 0:
		a.netErrors++
	case http.StatusTooManyRequests:
		a.shed++
	case http.StatusServiceUnavailable:
		a.expired++
	}
}

// merge folds o into a, bucket-wise.
func (a *opAgg) merge(o opAgg) {
	a.requests += o.requests
	a.errors += o.errors
	a.shed += o.shed
	a.expired += o.expired
	a.netErrors += o.netErrors
	if o.hist != nil {
		if a.hist == nil {
			a.hist = telemetry.NewHistogram()
		}
		a.hist.Merge(o.hist)
	}
}

// Run executes the configured load and aggregates the measurements.
func Run(cfg Config) (*Result, error) {
	base := strings.TrimRight(strings.TrimSpace(cfg.BaseURL), "/")
	if base == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	duration := cfg.Duration
	if cfg.Requests <= 0 && duration <= 0 {
		duration = 10 * time.Second
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = map[Op]float64{OpNeighbors: 1}
	}

	// Build the operation CDF in the fixed allOps order so equal
	// seeds draw identical op sequences regardless of map iteration.
	opIdx := make(map[Op]int, len(allOps))
	for i, op := range allOps {
		opIdx[op] = i
	}
	var cdf []float64
	var cdfOps []int8
	total := 0.0
	for _, op := range allOps {
		w := mix[op]
		if w < 0 {
			return nil, fmt.Errorf("loadgen: negative weight for %q", op)
		}
		if w == 0 {
			continue
		}
		total += w
		cdf = append(cdf, total)
		cdfOps = append(cdfOps, int8(opIdx[op]))
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: empty operation mix")
	}
	for op := range mix {
		if _, ok := opIdx[op]; !ok {
			return nil, fmt.Errorf("loadgen: unknown operation %q (supported: %v)", op, allOps)
		}
	}

	transport := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: timeout}

	tokens, err := fetchVocab(client, base)
	if err != nil {
		return nil, err
	}

	// Write ops synthesize vectors, which needs the served
	// dimensionality (reported by /healthz).
	dim := 0
	if writeOps(mix) {
		if dim, err = fetchDim(client, base); err != nil {
			return nil, err
		}
	}

	for pass := 0; pass < cfg.WarmupPasses; pass++ {
		if err := warmup(client, base, tokens, k, workers); err != nil {
			return nil, err
		}
	}

	// Pacing: request i is due at start + i/QPS, claimed from a
	// global counter — open-loop arrivals shared across workers, like
	// the rate-limited FalkorDB benchmark client. next doubles as the
	// request-count budget when cfg.Requests bounds the run.
	var next atomic.Int64
	deadline := time.Time{}
	start := time.Now()
	if duration > 0 {
		deadline = start.Add(duration)
	}

	perWorker := make([][]opAgg, workers)
	journals := make([][]WriteEvent, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewStream(cfg.Seed, uint64(w))
			aggs := make([]opAgg, len(allOps))
			g := generator{
				client: client, base: base, tokens: tokens,
				k: k, batch: batch, rng: rng,
				dim: dim, worker: w, record: cfg.RecordWrites,
			}
			for {
				i := next.Add(1) - 1
				if cfg.Requests > 0 && i >= int64(cfg.Requests) {
					break
				}
				var due time.Time
				if cfg.QPS > 0 {
					due = start.Add(time.Duration(float64(i) / cfg.QPS * float64(time.Second)))
					// A claimed slot due after the deadline will never
					// be issued — stop instead of sleeping past the
					// run's nominal window (at low QPS the first
					// claimed slots can already lie beyond it).
					if !deadline.IsZero() && due.After(deadline) {
						break
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				op := cdfOps[pick(rng, cdf, total)]
				t0 := time.Now()
				// Open-loop latency is measured from the request's
				// scheduled arrival, not the send: when every worker is
				// stuck behind a slow server, later slots go out late,
				// and the wait they accumulated is queue delay a real
				// client would have experienced. Measuring from the send
				// is the coordinated-omission error that makes an
				// overloaded server look fast. (After the pacing sleep,
				// now >= due, so t0 only ever moves backwards.)
				if cfg.QPS > 0 && due.Before(t0) {
					t0 = due
				}
				executed, code := g.issue(allOps[op])
				// issue may substitute the drawn op (a delete with no
				// outstanding target performs an upsert instead);
				// attribute the observation to what actually ran so
				// per-op latency is honest.
				aggs[opIdx[executed]].observe(code, time.Since(t0))
			}
			perWorker[w] = aggs
			journals[w] = g.writes
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Per-op totals across workers, then the overall row as a merge of
	// the per-op merges — both exact bucket-wise additions.
	perOp := make([]opAgg, len(allOps))
	for _, aggs := range perWorker {
		for i := range aggs {
			perOp[i].merge(aggs[i])
		}
	}
	var overall opAgg
	for i := range perOp {
		overall.merge(perOp[i])
	}

	res := &Result{
		DurationSeconds: elapsed.Seconds(),
		Workers:         workers,
		TargetQPS:       cfg.QPS,
	}
	for _, j := range journals {
		res.Writes = append(res.Writes, j...)
	}
	res.Overall = summarize("overall", overall, elapsed)
	for i, op := range allOps {
		if perOp[i].requests > 0 {
			res.PerOp = append(res.PerOp, summarize(op, perOp[i], elapsed))
		}
	}
	return res, nil
}

// pick draws an op index from the CDF.
func pick(rng *xrand.RNG, cdf []float64, total float64) int {
	x := rng.Float64() * total
	for i, c := range cdf {
		if x < c {
			return i
		}
	}
	return len(cdf) - 1
}

// generator issues one request per call, reusing buffers across
// requests within a worker.
type generator struct {
	client *http.Client
	base   string
	tokens []string
	k      int
	batch  int
	rng    *xrand.RNG
	buf    bytes.Buffer

	// Write-op state: worker namespaces the synthetic tokens, seq
	// makes them unique, outstanding holds tokens upserted but not yet
	// deleted (the only valid delete targets).
	dim         int
	worker      int
	seq         int
	outstanding []string

	// Write journal (Config.RecordWrites).
	record bool
	writes []WriteEvent
}

// journal records one write's outcome when journaling is on.
func (g *generator) journal(op Op, vertex string, acked bool) {
	if g.record {
		g.writes = append(g.writes, WriteEvent{Worker: g.worker, Op: op, Vertex: vertex, Acked: acked})
	}
}

// tok samples a vocabulary token, URL-escaped: models trained with
// -named can hold tokens with query-reserved characters ('&', '+',
// '=', spaces), which must not splice rawly into a query string.
func (g *generator) tok() string {
	return url.QueryEscape(g.tokens[int(g.rng.Uint64()%uint64(len(g.tokens)))])
}

// rawTok samples an unescaped token (for JSON bodies).
func (g *generator) rawTok() string {
	return g.tokens[int(g.rng.Uint64()%uint64(len(g.tokens)))]
}

// issue fires one request of the drawn shape, returning the operation
// actually executed (a delete drawn with no outstanding target runs
// an upsert instead, so its sample is attributed honestly) and the
// HTTP status it got back — 200 with a fully-read body is success, 0
// means the request never completed at the transport level.
func (g *generator) issue(op Op) (Op, int) {
	switch op {
	case OpNeighbors:
		return op, g.get(fmt.Sprintf("%s/v1/neighbors?vertex=%s&k=%d", g.base, g.tok(), g.k))
	case OpSimilarity:
		return op, g.get(fmt.Sprintf("%s/v1/similarity?a=%s&b=%s", g.base, g.tok(), g.tok()))
	case OpAnalogy:
		return op, g.get(fmt.Sprintf("%s/v1/analogy?a=%s&b=%s&c=%s&k=%d", g.base, g.tok(), g.tok(), g.tok(), g.k))
	case OpPredict:
		return op, g.get(fmt.Sprintf("%s/v1/predict?u=%s&v=%s", g.base, g.tok(), g.tok()))
	case OpNeighborsBatch:
		vs := make([]string, g.batch)
		for i := range vs {
			vs[i] = g.rawTok()
		}
		return op, g.post(g.base+"/v1/neighbors/batch", map[string]any{"vertices": vs, "k": g.k})
	case OpSimilarityBatch, OpPredictBatch:
		pairs := make([][2]string, g.batch)
		for i := range pairs {
			pairs[i] = [2]string{g.rawTok(), g.rawTok()}
		}
		path := "/v1/similarity/batch"
		if op == OpPredictBatch {
			path = "/v1/predict/batch"
		}
		return op, g.post(g.base+path, map[string]any{"pairs": pairs})
	case OpUpsert:
		return OpUpsert, g.upsert()
	case OpDelete:
		// Deletes target a token this worker upserted and has not yet
		// deleted. With none outstanding, the slot runs (and is
		// recorded as) an upsert — seeding the target for the next
		// delete — so a delete-leading mix cannot 404 and no hidden
		// second request pollutes the latency samples.
		if len(g.outstanding) == 0 {
			return OpUpsert, g.upsert()
		}
		last := len(g.outstanding) - 1
		pick := int(g.rng.Uint64() % uint64(len(g.outstanding)))
		tok := g.outstanding[pick]
		g.outstanding[pick] = g.outstanding[last]
		g.outstanding = g.outstanding[:last]
		code := g.post(g.base+"/v1/delete", map[string]any{"vertex": tok})
		g.journal(OpDelete, tok, code == http.StatusOK)
		return op, code
	default:
		return op, 0
	}
}

// upsert issues one write: every 4th rewrites an outstanding token
// (the replace/tombstone path); the rest insert fresh ones.
func (g *generator) upsert() int {
	var tok string
	if g.seq%4 == 3 && len(g.outstanding) > 0 {
		tok = g.outstanding[int(g.rng.Uint64()%uint64(len(g.outstanding)))]
	} else {
		tok = fmt.Sprintf("lg-%d-%d", g.worker, g.seq)
		if len(g.outstanding) < 1<<16 {
			g.outstanding = append(g.outstanding, tok)
		}
	}
	g.seq++
	code := g.post(g.base+"/v1/upsert", map[string]any{"vertex": tok, "vector": g.randVec()})
	g.journal(OpUpsert, tok, code == http.StatusOK)
	return code
}

// randVec synthesizes a write payload in the served dimensionality.
func (g *generator) randVec() []float64 {
	v := make([]float64, g.dim)
	for i := range v {
		v[i] = g.rng.Float64()*2 - 1
	}
	return v
}

func (g *generator) get(url string) int {
	resp, err := g.client.Get(url)
	if err != nil {
		return 0
	}
	return drain(resp)
}

func (g *generator) post(url string, body any) int {
	g.buf.Reset()
	if err := json.NewEncoder(&g.buf).Encode(body); err != nil {
		return 0
	}
	resp, err := g.client.Post(url, "application/json", &g.buf)
	if err != nil {
		return 0
	}
	return drain(resp)
}

// drain consumes and closes the body (required to reuse the
// connection) and returns the response status — or 0 when the body
// read fails, which is a transport error no matter what the status
// line claimed.
func drain(resp *http.Response) int {
	_, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// warmup issues one neighbors query per token, fanned across workers.
func warmup(client *http.Client, base string, tokens []string, k, workers int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(tokens)) {
					return
				}
				resp, err := client.Get(fmt.Sprintf("%s/v1/neighbors?vertex=%s&k=%d", base, url.QueryEscape(tokens[i]), k))
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if drain(resp) != http.StatusOK {
					err := fmt.Errorf("loadgen: warmup query for %q failed", tokens[i])
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// fetchVocab samples the server's token set (up to 100000 tokens).
func fetchVocab(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/v1/vocab?limit=100000")
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetching vocabulary: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /v1/vocab returned %s", resp.Status)
	}
	var out struct {
		Tokens []string `json:"tokens"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("loadgen: decoding vocabulary: %w", err)
	}
	if len(out.Tokens) == 0 {
		return nil, fmt.Errorf("loadgen: server returned an empty vocabulary")
	}
	return out.Tokens, nil
}

// fetchDim reads the served model dimensionality from /healthz.
func fetchDim(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, fmt.Errorf("loadgen: fetching /healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("loadgen: /healthz returned %s", resp.Status)
	}
	var out struct {
		Dim int `json:"dim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("loadgen: decoding /healthz: %w", err)
	}
	if out.Dim <= 0 {
		return 0, fmt.Errorf("loadgen: server reports dimension %d", out.Dim)
	}
	return out.Dim, nil
}

// summarize renders an aggregated opAgg into an OpResult. Latency
// percentiles cover successful requests; error counts cover the rest.
func summarize(op Op, agg opAgg, elapsed time.Duration) OpResult {
	r := OpResult{
		Op: op, Requests: agg.requests, Errors: agg.errors,
		Shed: agg.shed, Expired: agg.expired, NetErrors: agg.netErrors,
	}
	if elapsed > 0 {
		r.QPS = float64(agg.requests) / elapsed.Seconds()
	}
	if agg.hist == nil {
		return r
	}
	s := agg.hist.Snapshot()
	r.P50Ms = s.QuantileMs(0.50)
	r.P95Ms = s.QuantileMs(0.95)
	r.P99Ms = s.QuantileMs(0.99)
	r.P999Ms = s.QuantileMs(0.999)
	r.MaxMs = s.MaxMs()
	r.MeanMs = s.MeanMs()
	return r
}

// percentile returns the q-quantile of sorted values (nearest-rank:
// the smallest value such that at least a q fraction of the samples
// are <= it, i.e. rank ceil(q*n)). The historical implementation
// rounded (int(q*n+0.5)) instead of taking the ceiling, which
// under-reports whenever q*n has a fractional part below 0.5 — e.g.
// n=11, q=0.75 gives rank 8 where nearest-rank defines 9. Reporting
// now comes from the telemetry histogram; this exact implementation
// stays as the test oracle the histogram's quantiles are checked
// against.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
