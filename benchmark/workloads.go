package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"v2v"
)

// env is what one run of one workload works with.
type env struct {
	bin     string // the built cmd/v2v
	dir     string // scratch directory of this run, removed at exit
	seed    uint64
	window  time.Duration
	trace   bool
	size    sizes
	clients int
	procs   *procSet
	tr      *tracer  // nil on the untraced pass
	ref     *hostRef // the untraced pass's host-speed reference; nil on the traced pass
}

// reading is one reported number.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload    string             `json:"workload"`
	Valid       bool               `json:"valid"`
	Reasons     []string           `json:"reasons,omitempty"`
	Noisy       bool               `json:"noisy"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Samples     int                `json:"samples"`
	SliceQPS    []float64          `json:"slice_qps"`            // as measured
	SliceHost   []float64          `json:"slice_host,omitempty"` // the host reference's rate around each slice
	SliceSpread float64            `json:"slice_spread"`         // of the slices restated at the nominal host speed
	Metrics     map[string]reading `json:"metrics"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Valid: true, Metrics: map[string]reading{}}
}

func (r *result) fail(format string, args ...any) {
	r.Valid = false
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				r.Metrics[name] = reading{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// count adds commands and requests to the attempted/failed tally.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// ---- traffic ----

// vocabulary is the served model as the traffic and the checks see it.
type vocabulary struct {
	tokens []string
	row    map[string]int
}

func newVocabulary(tokens []string) *vocabulary {
	v := &vocabulary{tokens: tokens, row: make(map[string]int, len(tokens))}
	for i, t := range tokens {
		v.row[t] = i
	}
	return v
}

func neighborsURL(token string) string {
	return "/v1/neighbors?vertex=" + token + "&k=" + strconv.Itoa(topK)
}

// cycleSource walks one seeded permutation of every token, round and
// round: no token repeats within len(tokens) draws, so with more
// tokens than cache entries every request misses the response cache.
type cycleSource struct {
	ops []op // in permuted order
	at  atomic.Int64
}

func newCycleSource(v *vocabulary, r *rng) *cycleSource {
	c := &cycleSource{}
	for _, i := range r.Perm(len(v.tokens)) {
		c.ops = append(c.ops, op{kind: opRead, url: neighborsURL(v.tokens[i]), token: v.tokens[i]})
	}
	return c
}

func (c *cycleSource) next(int) op {
	return c.ops[int((c.at.Add(1)-1)%int64(len(c.ops)))]
}

// hotSource draws with replacement from a small hot set, one generator
// per worker.
type hotSource struct {
	hot  []op
	rngs []*rng
}

func newHotSource(v *vocabulary, r *rng, hot, workers int) *hotSource {
	h := &hotSource{hot: newCycleSource(v, r).ops[:min(hot, len(v.tokens))]}
	for w := 0; w < workers; w++ {
		h.rngs = append(h.rngs, newRNG(r.Uint64()))
	}
	return h
}

func (h *hotSource) next(w int) op { return h.hot[h.rngs[w].Intn(len(h.hot))] }

// mixedSource is the write workload: of every 20 operations 17 read
// (cycling the base tokens only), 2 upsert a new token and 1 deletes
// the worker's oldest outstanding token. Each worker writes in its own
// namespace "w<worker>-<n>", so no two workers touch one token. A
// delete with nothing outstanding becomes an upsert and is recorded as
// one. Upsert vectors are anchor + noise, like the fixture.
type mixedSource struct {
	reads   *cycleSource
	kinds   []opKind
	at      atomic.Int64
	fixture *vectorFixture
	workers []mixedWorker
}

type mixedWorker struct {
	rng         *rng
	seq         int
	outstanding []string
}

func newMixedSource(v *vocabulary, fixture *vectorFixture, r *rng, workers int) *mixedSource {
	m := &mixedSource{reads: newCycleSource(v, r), fixture: fixture}
	for i := 0; i < 1000; i++ {
		switch {
		case i < 850:
			m.kinds = append(m.kinds, opRead)
		case i < 950:
			m.kinds = append(m.kinds, opUpsert)
		default:
			m.kinds = append(m.kinds, opDelete)
		}
	}
	for i, j := range r.Perm(len(m.kinds)) {
		m.kinds[i], m.kinds[j] = m.kinds[j], m.kinds[i]
	}
	for w := 0; w < workers; w++ {
		m.workers = append(m.workers, mixedWorker{rng: newRNG(r.Uint64())})
	}
	return m
}

func (m *mixedSource) next(w int) op {
	kind := m.kinds[int((m.at.Add(1)-1)%int64(len(m.kinds)))]
	if kind == opRead {
		return m.reads.next(w)
	}
	me := &m.workers[w]
	if kind == opDelete && len(me.outstanding) > 0 {
		token := me.outstanding[0]
		me.outstanding = me.outstanding[1:]
		return op{kind: opDelete, url: "/v1/delete", token: token, body: []byte(`{"vertex":"` + token + `"}`)}
	}
	token := fmt.Sprintf("w%d-%d", w, me.seq)
	me.seq++
	me.outstanding = append(me.outstanding, token)
	vec := make([]float32, m.fixture.dim)
	m.fixture.point(me.rng, vec)
	body := []byte(`{"vertex":"` + token + `","vector":[`)
	for i, x := range vec {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, float64(x), 'g', -1, 32)
	}
	return op{kind: opUpsert, url: "/v1/upsert", token: token, body: append(body, "]}"...)}
}

// ---- checks on responses ----

type neighborsBody struct {
	Vertex    string `json:"vertex"`
	Neighbors []struct {
		Vertex string  `json:"vertex"`
		Score  float64 `json:"score"`
	} `json:"neighbors"`
}

// checkNeighbors decodes one /v1/neighbors answer and verifies its
// shape: the queried vertex, topK results, scores descending, every
// neighbour a token the benchmark knows. It returns the neighbours.
func checkNeighbors(v *vocabulary, token string, body []byte) ([]string, error) {
	var nb neighborsBody
	if err := json.Unmarshal(body, &nb); err != nil {
		return nil, fmt.Errorf("neighbors of %s: undecodable body: %w", token, err)
	}
	if nb.Vertex != token {
		return nil, fmt.Errorf("neighbors of %s: answer is for %q", token, nb.Vertex)
	}
	if len(nb.Neighbors) != topK {
		return nil, fmt.Errorf("neighbors of %s: %d results, want %d", token, len(nb.Neighbors), topK)
	}
	out := make([]string, topK)
	for i, n := range nb.Neighbors {
		if i > 0 && n.Score > nb.Neighbors[i-1].Score {
			return nil, fmt.Errorf("neighbors of %s: scores not descending at %d", token, i)
		}
		if _, known := v.row[n.Vertex]; !known && !strings.HasPrefix(n.Vertex, "w") {
			return nil, fmt.Errorf("neighbors of %s: unknown token %q", token, n.Vertex)
		}
		out[i] = n.Vertex
	}
	return out, nil
}

// journal is the client's record of acknowledged writes: the state
// every written token must have after a crash and replay.
type journal struct {
	mu   sync.Mutex
	live map[string]bool // token → true after an acked upsert, false after an acked delete
}

// checker returns the per-response check of the measured window: one
// read in 64 is decoded and verified, every acknowledged write is
// journalled.
func checker(v *vocabulary, j *journal) func(op, []byte) error {
	var reads atomic.Int64
	return func(o op, body []byte) error {
		if o.kind == opRead {
			if reads.Add(1)%64 != 0 {
				return nil
			}
			_, err := checkNeighbors(v, o.token, body)
			return err
		}
		j.mu.Lock()
		j.live[o.token] = o.kind == opUpsert
		j.mu.Unlock()
		return nil
	}
}

// firstAnswer polls /v1/neighbors until the first 200. A router
// answers 503 until its first probe round has admitted its shards, so
// refusals before the first answer are start-up, not failures.
func firstAnswer(base, token string) error {
	if err := pollFor200(base + neighborsURL(token)); err != nil {
		return fmt.Errorf("no first answer from %s: %w", base, err)
	}
	return nil
}

// probeRecall asks the server for the neighbours of seeded query rows
// and returns their mean top-10 overlap with the oracle's. Every probe
// answer is fully checked; it returns the number of failed requests.
func probeRecall(base string, v *vocabulary, o *cosineOracle, r *rng, queries int) (recall float64, failed int, firstErr error) {
	var sum float64
	for i := 0; i < queries; i++ {
		q := r.Intn(len(v.tokens))
		got, err := getNeighbors(base, v, v.tokens[q])
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rows := make([]int, 0, len(got))
		for _, t := range got {
			if row, ok := v.row[t]; ok {
				rows = append(rows, row)
			}
		}
		sum += overlap(o.topK(q, topK), rows)
	}
	return sum / float64(queries), failed, firstErr
}

func getNeighbors(base string, v *vocabulary, token string) ([]string, error) {
	status, body, err := get(base + neighborsURL(token))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("neighbors of %s: status %d", token, status)
	}
	return checkNeighbors(v, token, body)
}

func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ---- measured windows ----

// topology is the set of server processes one workload runs; clients
// talk to front.
type topology struct {
	front *server
	all   []*server
}

func (t *topology) stop() {
	if t == nil {
		return
	}
	// Front first: a router that outlives its shards only logs noise.
	if t.front != nil {
		t.front.stop()
	}
	for _, s := range t.all {
		if s != t.front {
			s.stop()
		}
	}
}

func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, s := range t.all {
		c, err := s.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (t *topology) peakRSSMiB() (float64, error) {
	var sum float64
	for _, s := range t.all {
		m, err := s.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

// window is one measured stretch of load with the server-side counters
// read at its two ends.
type window struct {
	load          *loadResult
	before, after metricsPage // the front process's /metrics
	cpuSeconds    float64     // all server processes, over the window
}

func (e *env) measure(top *topology, cfg loadConfig, traced bool) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrape(top.front.base); err != nil {
		return nil, err
	}
	cpu0, err := top.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cfg.base = top.front.base
	cfg.clients = e.clients
	cfg.slices = max(int(cfg.duration/e.size.slice), 1)
	if traced {
		cfg.tr = e.tr
	}
	if e.ref != nil {
		w.load, err = e.slicesAgainstRef(cfg)
		if err != nil {
			return nil, err
		}
	} else {
		_ = e.tr.do("window", 0, func(id int64) error {
			cfg.parent = id
			w.load = runLoad(cfg)
			return nil
		})
	}
	cpu1, err := top.cpuSeconds()
	if err != nil {
		return nil, err
	}
	w.cpuSeconds = cpu1 - cpu0
	if w.after, err = scrape(top.front.base); err != nil {
		return nil, err
	}
	return w, nil
}

// slicesAgainstRef runs the window one slice at a time, with a reading
// of the host reference before the first slice, between every two and
// after the last. A slice's host speed is the mean of the readings on
// its two sides. The clients reconnect for every slice; the source
// carries on where it was.
func (e *env) slicesAgainstRef(cfg loadConfig) (*loadResult, error) {
	one := cfg
	one.duration, one.slices = cfg.duration/time.Duration(cfg.slices), 1
	all := &loadResult{}
	before, err := e.ref.sample(refSample)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.slices; i++ {
		l := runLoad(one)
		after, err := e.ref.sample(refSample)
		if err != nil {
			return nil, err
		}
		l.sliceHost = []float64{(before + after) / 2}
		all.add(l)
		before = after
	}
	return all, nil
}

// tracedWindows runs the traced pass's measured load: an untraced half
// window followed by a traced half. It returns both, the first for the
// tracing overhead, the second to report.
func (e *env) tracedWindows(top *topology, cfg loadConfig) (plain, traced *window, err error) {
	cfg.duration /= 2
	if plain, err = e.measure(top, cfg, false); err != nil {
		return nil, nil, err
	}
	traced, err = e.measure(top, cfg, true)
	return plain, traced, err
}

func (w *window) cacheHitRatio() float64 {
	hits := delta(w.before, w.after, "v2v_cache_hits_total")
	misses := delta(w.before, w.after, "v2v_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// checkCounters applies the validity checks on the server's own
// counters over one window: nothing shed, nothing expired, and the
// cache behaviour the two cache workloads are defined by.
func checkCounters(res *result, name string, w *window) {
	if shed := sumDelta(w.before, w.after, "v2v_admission_shed_total"); shed != 0 {
		res.fail("server shed %g requests", shed)
	}
	if expired := sumDelta(w.before, w.after, "v2v_deadline_expired_total"); expired != 0 {
		res.fail("%g requests expired at their deadline", expired)
	}
	ratio := w.cacheHitRatio()
	switch {
	case name == "serve_exact" && ratio >= 0.01:
		res.fail("cache hit ratio %.4f on serve_exact, want < 0.01", ratio)
	case name == "serve_hot" && ratio <= 0.99:
		res.fail("cache hit ratio %.4f on serve_hot, want > 0.99", ratio)
	}
}

// reportLoad fills in what the measured load reports — all of a run's
// windows together — and checks that nothing failed and that a p99
// could be quoted from it.
func reportLoad(res *result, l *loadResult) {
	res.count(l.attempted, l.failed)
	res.Samples = len(l.samples)
	res.SliceQPS = l.sliceQPS
	res.SliceHost = l.sliceHost
	res.SliceSpread = iqrSpread(l.sliceQPS)
	if len(l.sliceHost) > 0 {
		res.SliceSpread = iqrSpread(atNominalSpeed(l.sliceQPS, l.sliceHost))
	}
	res.Noisy = res.SliceSpread > boundOf("throughput")
	if l.failed > 0 {
		res.fail("%d of %d requests failed; first: %s", l.failed, l.attempted, l.firstError)
	}
	if tail := supportedTail(l.ok()); tail < 99 {
		res.fail("p99 would rest on fewer than 10 samples beyond it (%d samples support p%g)", l.ok(), tail)
	}
}

func (r *result) setEndToEnd(setups []float64, throughput, recall, rss float64) {
	r.set("setup_s", median(setups))
	r.set("throughput", throughput)
	r.set("recall_at_10", recall)
	r.set("rss_mb", rss)
}

// setServerLayers reports the per-layer numbers read from the server's
// own counters over the traced window.
func (e *env) setServerLayers(res *result, plain, traced *window) {
	l := traced.load
	b, a := traced.before, traced.after
	for _, stage := range stageNames {
		sum := delta(b, a, `v2v_stage_seconds_sum{stage="`+stage+`"}`)
		n := delta(b, a, `v2v_stage_seconds_count{stage="`+stage+`"}`)
		v := 0.0
		if n > 0 {
			v = sum / n * 1e3
		}
		res.set("server.stage_ms."+stage, v)
	}
	res.set("server.cache_hit_ratio", traced.cacheHitRatio())
	res.set("server.shed_total", sumDelta(b, a, "v2v_admission_shed_total"))
	res.set("server.deadline_expired_total", sumDelta(b, a, "v2v_deadline_expired_total"))
	res.set("server.cpu_ms_per_req", traced.cpuSeconds*1e3/float64(max(l.ok(), 1)))

	// Wire share: the client's mean read latency minus the mean the
	// server reports for the same requests.
	reads := l.latencies(isRead)
	var clientMean float64
	for _, ms := range reads {
		clientMean += ms
	}
	clientMean /= float64(max(len(reads), 1))
	srvSum := delta(b, a, `v2v_request_seconds_sum{endpoint="neighbors"}`)
	srvN := delta(b, a, `v2v_request_seconds_count{endpoint="neighbors"}`)
	if srvN > 0 {
		res.set("server.wire_us", (clientMean-srvSum/srvN*1e3)*1e3)
	}

	writes := delta(b, a, "v2v_upserts_total") + delta(b, a, "v2v_deletes_total")
	if writes > 0 {
		res.set("wal.fsyncs_per_write", delta(b, a, "v2v_wal_fsyncs_total")/writes)
		res.set("wal.bytes_per_write", delta(b, a, "v2v_wal_appended_bytes_total")/writes)
	}

	all := l.latencies(anyKind)
	res.set("driver.samples", float64(len(l.samples)))
	res.set("driver.slice_spread", iqrSpread(l.sliceQPS))
	res.set("driver.p50_ms", percentile(all, 50))
	res.set("driver.p95_ms", percentile(all, 95))
	res.set("driver.p99_ms", percentile(all, 99))
	res.set("driver.read_p50_ms", percentile(reads, 50))
	if w := l.latencies(isWrite); len(w) > 0 {
		res.set("driver.write_p50_ms", percentile(w, 50))
		res.set("driver.write_p95_ms", percentile(w, 95))
	}
	p, t := median(plain.load.sliceQPS), median(l.sliceQPS)
	res.set("driver.trace_overhead_pct", (p-t)/p*100)
}

// zeroMissingLayers gives every per-layer metric the workload's path
// does not touch an explicit 0, so a traced run always prints the full
// declared set.
func zeroMissingLayers(res *result) {
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.set(m.Name, 0)
		}
	}
}

// ---- the serving workloads ----

// serveSpec describes one serving workload.
type serveSpec struct {
	hnsw      bool     // serve a prebuilt HNSW bundle (hnswRows) instead of the plain snapshot (exactRows)
	indexArgs []string // extra arguments of `v2v index`
	serveArgs []string
	fleet     bool   // two shard processes and a router instead of one process
	traffic   string // "cycle", "hot" or "mixed"
	wal       bool
}

var serveSpecs = map[string]serveSpec{
	"serve_exact":     {traffic: "cycle"},
	"serve_hot":       {traffic: "hot"},
	"serve_sharded":   {hnsw: true, indexArgs: []string{"-shards", "2"}, serveArgs: []string{"-index", "hnsw", "-shards", "2"}, traffic: "cycle"},
	"serve_fleet":     {hnsw: true, indexArgs: []string{"-shards", "2"}, fleet: true, traffic: "cycle"},
	"serve_write_wal": {hnsw: true, serveArgs: []string{"-index", "hnsw"}, traffic: "mixed", wal: true},
}

// startTopology starts the workload's server processes on model.
func (e *env) startTopology(spec serveSpec, model, dir string) (*topology, error) {
	if !spec.fleet {
		args := append([]string{"-model", model}, spec.serveArgs...)
		if spec.wal {
			args = append(args, "-wal", filepath.Join(dir, "wal"))
		}
		s, err := startServer(e.procs, e.bin, dir, "server", args...)
		if err != nil {
			return nil, err
		}
		return &topology{front: s, all: []*server{s}}, nil
	}
	top := &topology{}
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := startServer(e.procs, e.bin, dir, fmt.Sprintf("shard%d", i),
			"-model", model, "-index", "hnsw", "-shards", "2", "-shard-id", strconv.Itoa(i))
		if err != nil {
			top.stop()
			return nil, err
		}
		top.all = append(top.all, s)
		addrs = append(addrs, s.base)
	}
	r, err := startServer(e.procs, e.bin, dir, "router",
		"-model", model, "-router", "-shard-addrs", strings.Join(addrs, ","))
	if err != nil {
		top.stop()
		return nil, err
	}
	top.front = r
	top.all = append(top.all, r)
	return top, nil
}

func (e *env) newSource(spec serveSpec, v *vocabulary, fixture *vectorFixture) source {
	// One stream per purpose, all from the run's seed: the traffic does
	// not change when the probe or the fixture draws more or fewer numbers.
	r := newRNG(e.seed ^ 0x7472616666696300)
	switch spec.traffic {
	case "hot":
		return newHotSource(v, r, e.size.hotSet, e.clients)
	case "mixed":
		return newMixedSource(v, fixture, r, e.clients)
	}
	return newCycleSource(v, r)
}

// trial is one set-up of a serving workload, left running.
type trial struct {
	dir     string
	fixture *vectorFixture
	vocab   *vocabulary
	top     *topology
	src     source
	jr      *journal // acknowledged writes on this trial's servers
	setupS  float64
	recall  float64 // when probed
}

// setUp generates the workload's fixture, writes it, builds its index,
// starts the servers, waits for the first answer and warms up with the
// workload's own traffic: everything setup_s covers. With probe set it
// also measures recall, before the warm-up so that the write workload
// is probed before its first write; the probe is the benchmark's own
// work and its time is taken out of the set-up's.
func (e *env) setUp(res *result, name string, spec serveSpec, rep int, probe bool) (*trial, error) {
	t := &trial{dir: filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, rep))}
	rows := e.size.exactRows
	if spec.hnsw {
		rows = e.size.hnswRows
	}
	err := e.tr.do("setup", 0, func(id int64) error {
		t0 := time.Now()
		if err := os.MkdirAll(t.dir, 0o755); err != nil {
			return err
		}
		t.fixture = genVectors(e.seed, rows, e.size.dim, e.size.anchors)
		t.vocab = newVocabulary(t.fixture.tokens)
		model := filepath.Join(t.dir, "V.snap")
		if err := t.fixture.writeSnapshot(model); err != nil {
			return err
		}
		res.count(1, 0)
		if spec.hnsw {
			bundle := filepath.Join(t.dir, "V.hnsw")
			args := append([]string{"index", "-model", model, "-out", bundle}, spec.indexArgs...)
			err := e.tr.do("v2v index", id, func(int64) error {
				took, _, err := runCommand(e.bin, args...)
				res.set("cmd.index_s", took.Seconds())
				return err
			})
			if err != nil {
				res.count(0, 1)
				return err
			}
			model = bundle
		}
		err := e.tr.do("v2v serve: start", id, func(int64) error {
			var err error
			t.top, err = e.startTopology(spec, model, t.dir)
			return err
		})
		if err != nil {
			res.count(0, 1)
			return err
		}
		ready := time.Now()
		res.set("server.ready_ms", float64(ready.Sub(t.top.front.execAt))/1e6)
		if err := firstAnswer(t.top.front.base, t.vocab.tokens[0]); err != nil {
			res.count(0, 1)
			return err
		}
		res.set("cmd.first_query_ms", float64(time.Since(ready))/1e6)

		var probeTook time.Duration
		if probe {
			probeAt := time.Now()
			oracle := newCosineOracle(t.fixture.data, t.fixture.dim)
			recall, failed, err := probeRecall(t.top.front.base, t.vocab, oracle, newRNG(e.seed^0x70726f6265), e.size.probeQueries)
			res.count(e.size.probeQueries, failed)
			if err != nil {
				res.fail("recall probe: %d failed; first: %v", failed, err)
			}
			if recall < 0.99 {
				res.fail("recall_at_10 = %.4f, below 0.99", recall)
			}
			t.recall = recall
			probeTook = time.Since(probeAt)
		}

		t.src = e.newSource(spec, t.vocab, t.fixture)
		t.jr = &journal{live: map[string]bool{}}
		if h, ok := t.src.(*hotSource); ok {
			// Touch every hot token once so the window starts warm.
			for _, o := range h.hot {
				if _, err := getNeighbors(t.top.front.base, t.vocab, o.token); err != nil {
					return err
				}
			}
		}
		warm := runLoad(loadConfig{
			base: t.top.front.base, clients: e.clients, duration: e.size.warmup, slices: 1,
			src: t.src, check: checker(t.vocab, t.jr),
		})
		if warm.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed; first: %s", warm.failed, warm.attempted, warm.firstError)
		}
		t.setupS = (time.Since(t0) - probeTook).Seconds()
		return nil
	})
	if err != nil {
		t.top.stop()
		return nil, err
	}
	return t, nil
}

// runServe is the untraced pass of a serving workload: setupReps
// trials, each a full set-up followed by its share of the window on the
// servers that set-up started. Spreading the window over the run's
// trials lets it sample more of this box's slow and fast spells, and
// more than one process instance, than one stretch at the end would;
// throughput is the median slice of all of them. The last trial carries
// the recall probe and, on the write workload, the crash audit.
func (e *env) runServe(name string) *result {
	if e.trace {
		return e.traceServe(name)
	}
	spec := serveSpecs[name]
	res := newResult(name)
	reps := e.size.setupReps
	var (
		setups, rss []float64
		recall      float64
		all         = &loadResult{}
	)
	for rep := 0; rep < reps; rep++ {
		last := rep == reps-1
		t, err := e.setUp(res, name, spec, rep, last)
		if err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		cfg := loadConfig{duration: e.window / time.Duration(reps), src: t.src, check: checker(t.vocab, t.jr)}
		w, err := e.measure(t.top, cfg, false)
		if err == nil {
			// The set-up is restated at the host speed read through the
			// window that follows it.
			setups = append(setups, secondsAtNominalSpeed(t.setupS, e.size.warmup.Seconds(), mean(w.load.sliceHost)))
			checkCounters(res, name, w)
			all.add(w.load)
			var peak float64
			if peak, err = t.top.peakRSSMiB(); err == nil {
				rss = append(rss, peak)
			}
		}
		if err == nil && last {
			recall = t.recall
			if spec.wal {
				t.top, err = e.crashAndAudit(res, spec, t)
			}
		}
		t.top.stop()
		if err != nil {
			res.fail("trial %d: %v", rep, err)
			return res
		}
	}
	reportLoad(res, all)
	res.setEndToEnd(setups, median(atNominalSpeed(all.sliceQPS, all.sliceHost)), recall, median(rss))
	return res
}

// traceServe is the traced pass of a serving workload: one set-up, an
// untraced and a traced half window, the server's own counters over the
// traced half, and the layer pass.
func (e *env) traceServe(name string) *result {
	spec := serveSpecs[name]
	res := newResult(name)
	t, err := e.setUp(res, name, spec, 0, true)
	if err != nil {
		res.fail("set-up: %v", err)
		return res
	}
	defer func() { t.top.stop() }()
	cfg := loadConfig{duration: e.window, src: t.src, check: checker(t.vocab, t.jr)}
	plain, w, err := e.tracedWindows(t.top, cfg)
	if err != nil {
		res.fail("window: %v", err)
		return res
	}
	checkCounters(res, name, w)
	reportLoad(res, w.load)
	res.count(plain.load.attempted, plain.load.failed)
	e.setServerLayers(res, plain, w)
	if spec.wal {
		if err := e.pacedWindow(res, t.top, cfg); err != nil {
			res.fail("paced window: %v", err)
		}
		if t.top, err = e.crashAndAudit(res, spec, t); err != nil {
			res.fail("crash audit: %v", err)
		}
	}
	if spec.fleet {
		if err := e.routerHop(res, w, t.dir, t.vocab, cfg); err != nil {
			res.fail("router hop: %v", err)
		}
	}
	if err := e.serveLayers(res, name, spec, t.fixture, t.dir); err != nil {
		res.fail("layer pass: %v", err)
	}
	zeroMissingLayers(res)
	return res
}

// pacedWindow offers the workload's mix in an open loop at pacedRate,
// well below capacity, and reports what a caller on a schedule sees:
// latency by operation kind, timed from the due time whenever the
// server kept a request waiting, with the generator's own lateness and
// the share of the schedule it met beside it.
func (e *env) pacedWindow(res *result, top *topology, cfg loadConfig) error {
	cfg.rate = e.size.pacedRate
	cfg.duration = e.window / 2
	w, err := e.measure(top, cfg, false)
	if err != nil {
		return err
	}
	l := w.load
	res.count(l.attempted, l.failed)
	if l.failed > 0 {
		return fmt.Errorf("%d of %d requests failed; first: %s", l.failed, l.attempted, l.firstError)
	}
	met := float64(l.attempted) / float64(max(l.offered, 1))
	res.set("driver.achieved_over_offered", met)
	if met < 0.98 {
		res.fail("the open loop finished %d of the %d requests due in its window (%.3f, want at least 0.98)", l.attempted, l.offered, met)
	}
	res.set("driver.late_p99_ms", percentile(l.lateness(), 99))
	res.set("driver.paced_read_p50_ms", percentile(l.latencies(isRead), 50))
	writes := l.latencies(isWrite)
	res.set("driver.paced_write_p50_ms", percentile(writes, 50))
	res.set("driver.paced_write_p95_ms", percentile(writes, 95))
	return nil
}

// crashAndAudit SIGKILLs the WAL server, restarts it on the same log
// directory and checks the journal: every acknowledged upsert that was
// not later deleted must answer 200, every acknowledged delete 404.
// It returns the restarted topology for the caller to stop.
func (e *env) crashAndAudit(res *result, spec serveSpec, t *trial) (*topology, error) {
	dir, jr := t.dir, t.jr
	t.top.front.kill()
	var again *topology
	restartAt := time.Now()
	err := e.tr.do("v2v serve: replay", 0, func(int64) error {
		var err error
		again, err = e.startTopology(spec, filepath.Join(dir, "V.hnsw"), dir)
		return err
	})
	res.count(1, 0)
	if err != nil {
		res.count(0, 1)
		return nil, err
	}
	replayS := time.Since(restartAt).Seconds()
	after, err := scrape(again.front.base)
	if err != nil {
		return again, err
	}
	res.set("wal.replay_records_per_s", after["v2v_wal_replayed_records"]/replayS)

	lost := 0
	var first string
	jr.mu.Lock()
	defer jr.mu.Unlock()
	for token, live := range jr.live {
		status, _, err := get(again.front.base + neighborsURL(token))
		want := 404
		if live {
			want = 200
		}
		res.count(1, 0)
		if err != nil || status != want {
			lost++
			res.count(0, 1)
			if first == "" {
				first = fmt.Sprintf("%s: status %d (err %v), want %d", token, status, err, want)
			}
		}
	}
	res.set("wal.lost_acked_writes", float64(lost))
	if lost > 0 {
		res.fail("%d of %d acknowledged writes lost after kill -9; first: %s", lost, len(jr.live), first)
	}
	if len(jr.live) == 0 {
		return again, errors.New("the window acknowledged no write")
	}
	return again, nil
}

// routerHop runs the traced window's traffic against an in-process
// two-shard server on the same bundle and reports what the HTTP shard
// boundary added.
func (e *env) routerHop(res *result, fleet *window, dir string, v *vocabulary, cfg loadConfig) error {
	spec := serveSpecs["serve_sharded"]
	local, err := e.startTopology(spec, filepath.Join(dir, "V.hnsw"), dir)
	if err != nil {
		return err
	}
	defer local.stop()
	cfg.src = e.newSource(spec, v, nil)
	cfg.duration = e.window / 2 // as long as the traced half it is compared with
	warm := cfg
	warm.base, warm.clients, warm.duration, warm.slices = local.front.base, e.clients, e.size.warmup, 1
	runLoad(warm)
	w, err := e.measure(local, cfg, false)
	if err != nil {
		return err
	}
	res.count(w.load.attempted, w.load.failed)
	if w.load.failed > 0 {
		return fmt.Errorf("%d requests failed on the in-process reference; first: %s", w.load.failed, w.load.firstError)
	}
	f, l := fleet.load.latencies(anyKind), w.load.latencies(anyKind)
	res.set("router.hop_added_p50_ms", percentile(f, 50)-percentile(l, 50))
	res.set("router.hop_added_p99_ms", percentile(f, 99)-percentile(l, 99))
	return nil
}

// ---- the pipeline workload ----

func (e *env) runPipeline() *result {
	res := newResult("pipeline")
	sz := e.size
	var (
		graph  graphFixture
		setups []float64
		gPath  = filepath.Join(e.dir, "G.txt")
	)
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		res.fail("set-up: %v", err)
		return res
	}
	// The set-up takes a millisecond: it is repeated until setupBudget is
	// spent so that its median rests on many readings.
	reps, budget := sz.setupReps, sz.setupBudget.Seconds()
	if e.trace {
		reps, budget = 1, 0
	}
	for spent := 0.0; len(setups) < reps || spent < budget && len(setups) < maxSetups; {
		t0 := time.Now()
		graph = genGraph(e.seed, sz.communities, sz.communitySize, sz.alpha, sz.interEdges)
		if err := graph.write(gPath); err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}

	var (
		firsts, rss []float64
		host        []float64 // host reference readings: one before the first repetition, one after each
		srv         *server
		model       string
	)
	readHost := func() error {
		if e.ref == nil {
			return nil
		}
		// A repetition is four slices long and has a reading on each
		// side only, so the readings are longer.
		r, err := e.ref.sample(2 * refSample)
		host = append(host, r)
		return err
	}
	if err := readHost(); err != nil {
		res.fail("%v", err)
		return res
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// The pipeline is repeated for the length of the window, at least
	// setupReps times; the traced pass runs it once.
	started := time.Now()
	again := func(rep int) bool {
		if e.trace {
			return rep == 0
		}
		next := time.Since(started).Seconds()
		if len(firsts) > 0 {
			next += firsts[len(firsts)-1]
		}
		return rep < sz.setupReps || next <= e.window.Seconds()
	}
	for rep := 0; again(rep); rep++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("pipeline-%d", rep))
		err := e.tr.do("pipeline", 0, func(id int64) error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			model = filepath.Join(dir, "m.snap")
			bundle := filepath.Join(dir, "m.hnsw")
			t0 := time.Now()
			res.count(3, 0)
			err := e.tr.do("v2v -in", id, func(int64) error {
				took, mib, err := runCommand(e.bin, "-in", gPath, "-out", model, "-format", "bin",
					"-walks", strconv.Itoa(sz.walks), "-length", strconv.Itoa(sz.walkLength))
				res.set("cmd.embed_s", took.Seconds())
				rss = append(rss, mib)
				return err
			})
			if err != nil {
				return err
			}
			err = e.tr.do("v2v index", id, func(int64) error {
				took, _, err := runCommand(e.bin, "index", "-model", model, "-out", bundle)
				res.set("cmd.index_s", took.Seconds())
				return err
			})
			if err != nil {
				return err
			}
			err = e.tr.do("v2v serve: start", id, func(int64) error {
				var err error
				srv, err = startServer(e.procs, e.bin, dir, "server", "-model", bundle, "-index", "hnsw")
				return err
			})
			if err != nil {
				return err
			}
			ready := time.Now()
			res.set("server.ready_ms", float64(ready.Sub(srv.execAt))/1e6)
			if err := firstAnswer(srv.base, "0"); err != nil {
				return err
			}
			res.set("cmd.first_query_ms", float64(time.Since(ready))/1e6)
			firsts = append(firsts, time.Since(t0).Seconds())
			return readHost()
		})
		if err != nil {
			res.count(0, 1)
			res.fail("pipeline: %v", err)
			return res
		}
	}

	// The applications: k-NN answers served from the trained model,
	// checked against the oracle on the trained vectors, and k-means
	// communities scored against the generator's labels.
	f, err := os.Open(model)
	if err != nil {
		res.fail("reading the trained model: %v", err)
		return res
	}
	trained, tokens, err := v2v.LoadModel(f)
	f.Close()
	if err != nil {
		res.fail("reading the trained model: %v", err)
		return res
	}
	vocab := newVocabulary(tokens)
	oracle := newCosineOracle(trained.Vectors, trained.Dim)
	recall, failed, perr := probeRecall(srv.base, vocab, oracle, newRNG(e.seed^0x70726f6265), sz.probeQueries)
	res.count(sz.probeQueries, failed)
	if perr != nil {
		res.fail("recall probe: %d failed; first: %v", failed, perr)
	}
	if recall < 0.99 {
		res.fail("recall_at_10 = %.4f, below 0.99", recall)
	}

	points := make([][]float64, trained.Vocab)
	truth := make([]int, trained.Vocab)
	for i := range points {
		points[i] = make([]float64, trained.Dim)
		for j, x := range trained.Vectors[i*trained.Dim : (i+1)*trained.Dim] {
			points[i][j] = float64(x)
		}
		vertex, err := strconv.Atoi(tokens[i])
		if err != nil || vertex < 0 || vertex >= len(graph.truth) {
			res.fail("trained model names a vertex the graph does not have: %q", tokens[i])
			return res
		}
		truth[i] = graph.truth[vertex]
	}
	var f1 float64
	err = e.tr.do("cluster.KMeans", 0, func(int64) error {
		kcfg := v2v.KMeansConfig{K: sz.communities, Restarts: sz.kmeansRestarts, MaxIter: 100, Tolerance: 1e-6, PlusPlus: true}
		t0 := time.Now()
		km, err := v2v.KMeans(points, kcfg)
		if err != nil {
			return err
		}
		res.set("cluster.kmeans_ms", float64(time.Since(t0))/1e6)
		f1 = pairwiseF1(truth, km.Assignments)
		res.set("cluster.community_f1", f1)
		return nil
	})
	res.count(1, 0)
	if err != nil {
		res.count(0, 1)
		res.fail("k-means: %v", err)
	} else if f1 < sz.f1Floor {
		res.fail("community_f1 = %.4f, below %.2f", f1, sz.f1Floor)
	}

	if !e.trace {
		// The pipeline's work is the corpus it trains on; its rate is
		// token-epochs per second of wall time from the edge list to the
		// first answer, each repetition's restated at the nominal host
		// speed from the reference readings on its two sides.
		tokens := float64(len(graph.truth) * sz.walks * sz.walkLength * cliEpochs)
		for i, first := range firsts {
			res.SliceQPS = append(res.SliceQPS, tokens/first)
			res.SliceHost = append(res.SliceHost, (host[i]+host[i+1])/2)
		}
		scaled := atNominalSpeed(res.SliceQPS, res.SliceHost)
		res.SliceSpread = iqrSpread(scaled)
		res.Noisy = res.SliceSpread > boundOf("throughput")
		for i := range setups {
			setups[i] = secondsAtNominalSpeed(setups[i], 0, mean(host))
		}
		res.setEndToEnd(setups, median(scaled), recall, median(rss))
		return res
	}
	if err := e.pipelineLayers(res, gPath); err != nil {
		res.fail("layer pass: %v", err)
	}
	zeroMissingLayers(res)
	return res
}
