package server

// Router mode (Config.Router): the router is the same Server as any
// other, over the same vecstore.Sharded coordinator (OpenRemote). Its
// shards hold the bundle's rows and tombstones but no index — every
// write flows through the router — and each shard's search seam is the
// frame queue to the shard process that holds its index
// (shardSearcher). Similarity makes no shard call.
// This file holds what only a router has: the transport (post, call),
// the probe and its membership, the search queues, the owner shard's
// write RPC (write), and newRouter.
//
// Fleet membership is health-checked: a prober GETs each shard's
// /healthz on a fixed cadence and verifies the shard's identity block
// (right shard ID, right partition width, right dimensionality, and
// at least the writes the router has seen it acknowledge in its
// epoch), so a misconfigured process, or one restarted from its bundle
// after acknowledged writes, reads as down instead of quietly merging
// wrong, missing or deleted rows. An unhealthy shard's seam fails at
// once, with no call; the coordinator's fan-out rule then answers
// without it only with AllowPartial and only when it owns none of the
// query rows (partial=true, shards_answered=N), and otherwise the read
// is a 503 — never a hang, never a silently truncated answer. The same
// owner rule holds for similarity (ownersUp), which makes no call.
//
// Parity with the in-process coordinator is by construction: the
// shards run the same per-shard kernels over bit-identical slices
// (snapshot.SliceShard), vectors cross the wire as their bits (shard.go,
// "Fan-out wire types"), and the merge and the pair score are the
// coordinator's own code.
//
// A neighbours query — one vertex or a batch — costs at most one call
// per shard: every shard gets every query row in one binary frame, and
// concurrent single-vertex queries share it, as a WAL's group commit
// shares one fsync. Each shard keeps at most one shared call in flight
// per k; the single-vertex queries that arrive meanwhile wait in the
// shard's queue and leave together in the next call at their k, up to
// the smaller of the router's and the shard's MaxBatch rows. Calls at
// different k go side by side, and a client batch, whose rows already
// share its call, goes at once in a call of its own (take). A shard's
// senders are one parked goroutine plus one per call in flight
// (sender), so the fan-out itself starts no goroutine. A lone query's
// frame is the one it would send alone. The router's rows cost 4·dim
// bytes per vector, as much as all the shards' float32 rows together.
// Both trades, measured on the benchmark's serve_fleet (router and 2
// shard processes on a 2-vCPU Xeon, medians of ten alternating runs):
// the rows against the two-step JSON search they replaced, which asked
// the owners by row ID first, 3190 → 3980 req/s for rss 61.2 → 65.2
// MiB; the shared frame against one call per query, 3345 → 3981 req/s
// (rss unchanged). The sharing pays where many queries wait at one k,
// as serve_fleet's do; docs/SERVING.md has the mixed-k and
// batch-beside-single figures.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
)

const (
	defaultProbeInterval = 2 * time.Second
	defaultRemoteTimeout = 5 * time.Second
)

// backendHealth is one remote shard's membership status as its
// router's probes see it. Surfaced per shard in /stats and /metrics.
type backendHealth struct {
	Shard int `json:"shard"`
	// Addr is the shard's base URL.
	Addr    string `json:"addr,omitempty"`
	Healthy bool   `json:"healthy"`
	// ProbeFailures counts consecutive failed health probes (0 when
	// healthy).
	ProbeFailures uint64 `json:"probe_failures,omitempty"`
	// SearchCalls counts the search frames sent to the shard and
	// SearchQueries the query rows they carried: their ratio is the
	// queries one call serves.
	SearchCalls   uint64 `json:"search_calls"`
	SearchQueries uint64 `json:"search_queries"`
}

// errShardUnavailable builds the 503 a router answers when a shard it
// needs is down and partial results are not allowed (or the query's
// own row lives on the dead shard).
func errShardUnavailable(sid int, addr string, cause error) *httpError {
	msg := fmt.Sprintf("shard %d (%s) unavailable", sid, addr)
	if cause != nil {
		msg = fmt.Sprintf("%s: %v", msg, cause)
	}
	return &httpError{code: http.StatusServiceUnavailable, msg: msg}
}

// remoteShard is one shard process as the router sees it: a pooled
// HTTP client plus probe-maintained membership state.
type remoteShard struct {
	sid    int
	addr   string // normalized base URL, no trailing slash
	client *http.Client

	healthy       atomic.Bool
	probeFailures atomic.Uint64
	// searchCalls counts the search frames sent to this shard and
	// searchQueries the query rows they carried.
	searchCalls, searchQueries atomic.Uint64
	// acked counts the writes, inserts and deletes, this shard has
	// acknowledged to this router; a probe finding a lower epoch marks
	// it down.
	acked atomic.Uint64
	// stat caches the occupancy block of the last successful probe, so
	// /stats and /metrics never fan out.
	stat atomic.Pointer[vecstore.ShardStat]
	// maxBatch is the shard's own limit on query rows per search frame,
	// from its last successful probe (0 before one).
	maxBatch atomic.Int64

	// The search queue and its senders (sender): queue holds the
	// queries waiting for one of this shard's frames, oldest first, and
	// busy the k of every shared frame in flight, at most one per k.
	// idle counts the senders parked on wake and not yet woken. closed
	// is set at Close.
	mu     sync.Mutex
	wake   sync.Cond // L is &mu
	queue  []*searchQuery
	busy   map[int]bool
	idle   int
	closed bool
}

// searchQuery is one search on one shard as its senders see it: its
// query rows, and the channel the coordinator's fan-out waits on.
type searchQuery struct {
	ctx   context.Context
	k     int                        // the frame's k
	n     int                        // query rows
	qs    [][]float32                // the rows, immutable: read without a lock
	reply chan<- vecstore.ShardReply // room for every shard: a sender never blocks
}

// errClosed is the error a search on sh meets once the backend has
// closed.
func (sh *remoteShard) errClosed() error {
	return errShardUnavailable(sh.sid, sh.addr, errors.New("router closed"))
}

// remoteBackend is a router's fleet of shard processes: their
// membership, their search queues and the calls to them. The rows and
// their tombstones are the router's Sharded's (newRouter).
type remoteBackend struct {
	shards   []*remoteShard
	dim      int
	timeout  time.Duration
	maxBatch int // query rows per search frame
	log      *log.Logger

	probeInterval time.Duration
	// ctx ends at Close, stopping the prober and cancelling the calls in
	// flight; done waits for the prober and the senders.
	ctx    context.Context
	cancel context.CancelFunc
	done   sync.WaitGroup
}

func newRemoteBackend(cfg Config, dim, maxBatch int, logger *log.Logger) *remoteBackend {
	shards := make([]*remoteShard, len(cfg.ShardAddrs))
	for i, addr := range cfg.ShardAddrs {
		addr = strings.TrimRight(addr, "/")
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		shards[i] = &remoteShard{
			sid:  i,
			addr: addr,
			client: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			}},
			busy: make(map[int]bool),
		}
		shards[i].wake.L = &shards[i].mu
	}
	timeout := cfg.RemoteTimeout
	if timeout <= 0 {
		timeout = defaultRemoteTimeout
	}
	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	rb := &remoteBackend{
		shards:        shards,
		dim:           dim,
		timeout:       timeout,
		maxBatch:      maxBatch,
		log:           logger,
		probeInterval: interval,
		ctx:           ctx,
		cancel:        cancel,
	}
	// One synchronous probe round before serving: startup logs (and the
	// first requests) see the real fleet state, not all-down defaults.
	rb.probeAll()
	rb.done.Add(1)
	go rb.probeLoop()
	return rb
}

// ---- Health probing -------------------------------------------------

// healthzProbe is the slice of a shard's /healthz response the prober
// verifies (shard.go writes the full response).
type healthzProbe struct {
	Dim   int        `json:"dim"`
	Shard *ShardInfo `json:"shard"`
}

func (rb *remoteBackend) probeLoop() {
	defer rb.done.Done()
	t := time.NewTicker(rb.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-rb.ctx.Done():
			return
		case <-t.C:
			rb.probeAll()
		}
	}
}

func (rb *remoteBackend) probeAll() {
	var wg sync.WaitGroup
	for _, sh := range rb.shards {
		wg.Add(1)
		go func(sh *remoteShard) {
			defer wg.Done()
			rb.probe(sh)
		}(sh)
	}
	wg.Wait()
}

// probe checks sh once. Its deadline is RemoteTimeout, as for every
// other shard call: a /healthz slower than the probe interval is not a
// shard down.
func (rb *remoteBackend) probe(sh *remoteShard) {
	ctx, cancel := context.WithTimeout(rb.ctx, rb.timeout)
	defer cancel()
	// Read before the shard answers: a write acknowledged by then is
	// already in its epoch, which only a restart takes back.
	acked := sh.acked.Load()
	var hz healthzProbe
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/healthz", nil)
	if err == nil {
		resp, derr := sh.client.Do(req)
		if derr == nil {
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&hz) == nil {
				// Identity check: answering HTTP is not enough — the
				// process must be the shard this slot is configured for,
				// or its global IDs would merge as garbage, and it must
				// hold every write it acknowledged, or its answers would
				// silently miss inserted rows or serve deleted ones. A
				// higher epoch is a write in flight or one whose
				// acknowledgment was lost (the merge's horizon drops
				// such a row: vecstore.Sharded.SearchRowsPartial).
				ok = hz.Shard != nil && hz.Shard.ID == sh.sid &&
					hz.Shard.Of == len(rb.shards) && hz.Dim == rb.dim &&
					hz.Shard.Epoch >= acked
			}
			resp.Body.Close()
		}
	}
	if ok {
		sh.probeFailures.Store(0)
		sh.maxBatch.Store(int64(hz.Shard.MaxBatch))
		sh.stat.Store(&vecstore.ShardStat{
			Rows:        hz.Shard.Rows,
			Live:        hz.Shard.Live,
			Deleted:     hz.Shard.Deleted,
			Epoch:       hz.Shard.Epoch,
			Compactions: hz.Shard.Compactions,
		})
		if !sh.healthy.Swap(true) {
			rb.log.Printf("server: shard %d (%s) joined", sh.sid, sh.addr)
		}
		return
	}
	if rb.ctx.Err() != nil {
		return // closing: a probe cut short says nothing of the shard
	}
	sh.probeFailures.Add(1)
	if sh.healthy.Swap(false) {
		rb.log.Printf("server: shard %d (%s) left (probe failed)", sh.sid, sh.addr)
	}
}

// ---- RPC plumbing ---------------------------------------------------

// call is a write's post, with in marshalled as the JSON body and the
// reply unmarshalled into out; a reply that does not decode is the
// shard's failure, not the client's. Writes are never retried.
func (rb *remoteBackend) call(ctx context.Context, sh *remoteShard, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	raw, err := rb.post(ctx, sh, path, body, false)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return errShardUnavailable(sh.sid, sh.addr, err)
	}
	return nil
}

// post POSTs body to path on sh and returns the 200 reply's bytes.
// The context is the deadline authority; a call with no inherited
// deadline gets the backend's RemoteTimeout. idempotent calls retry
// once — but only on transport errors, where the shard never answered
// or its reply was cut off; once a shard has answered (any status),
// its verdict is forwarded, never replayed. A non-200 reply is the
// shard's JSON error, forwarded with its status. Context expiry maps
// to errDeadlineExpired (503), exhausted transport attempts to
// errShardUnavailable.
func (rb *remoteBackend) post(ctx context.Context, sh *remoteShard, path string, body []byte, idempotent bool) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rb.timeout)
		defer cancel()
	}
	attempts := 1
	if idempotent {
		attempts = 2
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if ctx.Err() != nil {
			return nil, errDeadlineExpired
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.addr+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := sh.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, errDeadlineExpired
			}
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			msg := strings.TrimSpace(string(raw))
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(raw, &e) == nil && e.Error != "" {
				msg = e.Error
			}
			return nil, &httpError{code: resp.StatusCode, msg: fmt.Sprintf("shard %d: %s", sh.sid, msg)}
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return nil, errDeadlineExpired
			}
			lastErr = err
			continue
		}
		return raw, nil
	}
	return nil, errShardUnavailable(sh.sid, sh.addr, lastErr)
}

// ---- Search queues --------------------------------------------------

// shardSearcher is shard sh's search seam (vecstore.ShardSearcher):
// the query joins sh's queue, and its frame's sender answers. A shard
// out of membership answers at once, with no call.
type shardSearcher struct {
	rb *remoteBackend
	sh *remoteShard
}

func (s shardSearcher) Search(ctx context.Context, ids []int, qs [][]float32, k int, reply chan<- vecstore.ShardReply) {
	if !s.sh.healthy.Load() {
		reply <- vecstore.ShardReply{Shard: s.sh.sid, Err: errShardUnavailable(s.sh.sid, s.sh.addr, nil)}
		return
	}
	if ids != nil {
		// The shard searches by vector, so a query row ranks in its own
		// shard's list; k+1 leaves room for it, and the merge drops it.
		k++
	}
	s.rb.enqueue(s.sh, &searchQuery{ctx: ctx, k: k, n: len(qs), qs: qs, reply: reply})
}

// enqueue adds q to sh's search queue. Unless q will share the frame
// its k has in flight, a parked sender is woken for it, or a new one
// started if none is parked. A closed queue answers at once.
func (rb *remoteBackend) enqueue(sh *remoteShard, q *searchQuery) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		q.reply <- vecstore.ShardReply{Shard: sh.sid, Err: sh.errClosed()}
		return
	}
	sh.queue = append(sh.queue, q)
	switch {
	case q.n == 1 && sh.busy[q.k]:
		// The sender of q.k's shared frame takes it next.
	case sh.idle > 0:
		sh.idle--
		sh.wake.Signal()
	default:
		rb.done.Add(1)
		go rb.sender(sh)
	}
}

// sender sends sh's frames, one at a time, as long as take finds one.
// Then it parks for the next query, unless another sender is parked
// already: a shard keeps one idle sender, and as many busy ones as it
// has calls in flight. Senders exit at Close.
func (rb *remoteBackend) sender(sh *remoteShard) {
	defer rb.done.Done()
	var frame []*searchQuery
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for !sh.closed {
		// The shard's own limit bounds a frame as well as the router's.
		maxRows := rb.maxBatch
		if m := int(sh.maxBatch.Load()); m > 0 && m < maxRows {
			maxRows = m
		}
		if frame = sh.take(frame[:0], maxRows); len(frame) == 0 {
			if sh.idle > 0 {
				return
			}
			sh.idle++
			sh.wake.Wait()
			continue
		}
		sh.mu.Unlock()
		rb.send(sh, frame)
		sh.mu.Lock()
		if frame[0].n == 1 {
			delete(sh.busy, frame[0].k)
		}
		clear(frame)
	}
}

// take moves the next frame from the queue to dst, oldest query first.
// Single-row queries share frames: the oldest whose k has no shared
// frame in flight leads, every later single-row query of its k joins
// while the frame stays within maxRows rows, and the k is busy until
// the call returns. A client batch, which spreads a call's cost over
// its own rows already, is a frame of its own and waits for none. A
// query whose context has ended is dropped unsent. The caller holds
// sh.mu.
func (sh *remoteShard) take(dst []*searchQuery, maxRows int) []*searchQuery {
	keep := sh.queue[:0]
	for _, q := range sh.queue {
		switch {
		case q.ctx.Err() != nil:
			// Its caller has left: dropped, never sent.
		case len(dst) == 0 && (q.n > 1 || !sh.busy[q.k]):
			dst = append(dst, q)
		case len(dst) > 0 && dst[0].n == 1 && q.n == 1 && q.k == dst[0].k && len(dst) < maxRows:
			dst = append(dst, q)
		default:
			keep = append(keep, q)
		}
	}
	clear(sh.queue[len(keep):])
	sh.queue = keep
	if len(dst) > 0 && dst[0].n == 1 {
		sh.busy[dst[0].k] = true
	}
	return dst
}

// send makes frame's search call and hands each query its own lists,
// or the call's error. The call is cancelled once every query in the
// frame has stopped waiting (its context ended); it is retried once on
// a transport error, like any idempotent post. A shared call fails
// only where each of its queries' own call would: every row the router
// holds is finite (the snapshot loader refuses any other, and so does
// every write), a frame stays within the shard's MaxBatch, and its
// queries share its k. What is left — a shard down or shedding load, a
// transport error after the retry — fails a lone query's call as well.
func (rb *remoteBackend) send(sh *remoteShard, frame []*searchQuery) {
	n := 0
	for _, q := range frame {
		n += q.n
	}
	body := appendSearchHeader(make([]byte, 0, 8+4*rb.dim*n), frame[0].k, n)
	for _, q := range frame {
		for _, row := range q.qs {
			body = appendSearchRow(body, row)
		}
	}
	ctx, cancel := context.WithCancel(rb.ctx)
	defer cancel()
	var waiting atomic.Int32
	waiting.Store(int32(len(frame)))
	stops := make([]func() bool, len(frame))
	for i, q := range frame {
		stops[i] = context.AfterFunc(q.ctx, func() {
			if waiting.Add(-1) == 0 {
				cancel()
			}
		})
	}
	sh.searchCalls.Add(1)
	sh.searchQueries.Add(uint64(n))
	raw, err := rb.post(ctx, sh, "/shard/v1/search", body, true)
	for _, stop := range stops {
		stop()
	}
	var res [][]vecstore.Result
	switch {
	case err != nil && rb.ctx.Err() != nil:
		err = sh.errClosed()
	case err == nil:
		if res, err = decodeSearchResults(raw, n); err != nil {
			err = errShardUnavailable(sh.sid, sh.addr, err)
		}
	}
	off := 0
	for _, q := range frame {
		r := vecstore.ShardReply{Shard: sh.sid, Err: err}
		if err == nil {
			r.Lists = res[off : off+q.n : off+q.n]
		}
		off += q.n
		q.reply <- r
	}
}

// ownersUp is the 503 when a shard owning a row of pair is out of
// membership: no endpoint answers a read while the shard that holds
// one of its own rows is down, AllowPartial or not, although the
// router scores similarity from its own rows. A nil fleet — a server
// that is not a router — has every owner up.
func (rb *remoteBackend) ownersUp(pair [2]int) error {
	if rb == nil {
		return nil
	}
	for _, id := range pair {
		if sh := rb.shards[vecstore.ShardOf(id, len(rb.shards))]; !sh.healthy.Load() {
			return errShardUnavailable(sh.sid, sh.addr, errors.New("query row owner must answer"))
		}
	}
	return nil
}

// ---- Writes ---------------------------------------------------------

// write sends a write of row id to the shard that owns the row and
// counts its acknowledgment, which the probe then holds it to. Writes
// are never partial: an owner out of membership is a 503. It runs
// under the generation's writer lock, before the router's Sharded
// applies the write, so a write the shard refused is never served.
func (rb *remoteBackend) write(ctx context.Context, id int, path string, req, resp any) error {
	sh := rb.shards[vecstore.ShardOf(id, len(rb.shards))]
	if !sh.healthy.Load() {
		return errShardUnavailable(sh.sid, sh.addr, errors.New("row owner must accept the write"))
	}
	if err := rb.call(ctx, sh, path, req, resp); err != nil {
		return err
	}
	sh.acked.Add(1)
	return nil
}

// ---- Membership ------------------------------------------------------

// ShardStats is the per-shard occupancy block of a router's /stats and
// /metrics: each shard process's own counts, as last probed, since the
// router's rows do not compact with them.
func (rb *remoteBackend) ShardStats() []vecstore.ShardStat {
	out := make([]vecstore.ShardStat, len(rb.shards))
	for i, sh := range rb.shards {
		if st := sh.stat.Load(); st != nil {
			out[i] = *st
		}
	}
	return out
}

// Health reports each shard's membership, in shard order; nil on a
// server that is not a router.
func (rb *remoteBackend) Health() []backendHealth {
	if rb == nil {
		return nil
	}
	out := make([]backendHealth, len(rb.shards))
	for i, sh := range rb.shards {
		out[i] = backendHealth{
			Shard:         sh.sid,
			Addr:          sh.addr,
			Healthy:       sh.healthy.Load(),
			ProbeFailures: sh.probeFailures.Load(),
			SearchCalls:   sh.searchCalls.Load(),
			SearchQueries: sh.searchQueries.Load(),
		}
	}
	return out
}

// Close stops the prober and the senders and drops idle connections;
// nil on a server that is not a router.
func (rb *remoteBackend) Close() {
	if rb == nil {
		return
	}
	// Queued queries fail at once and nothing more is queued; parked
	// senders exit, and busy ones once their calls, cancelled, return.
	for _, sh := range rb.shards {
		sh.mu.Lock()
		sh.closed = true
		queued := sh.queue
		sh.queue = nil
		sh.wake.Broadcast()
		sh.mu.Unlock()
		for _, q := range queued {
			q.reply <- vecstore.ShardReply{Shard: sh.sid, Err: sh.errClosed()}
		}
	}
	rb.cancel()
	rb.done.Wait()
	for _, sh := range rb.shards {
		sh.client.CloseIdleConnections()
	}
}

// ---- Router construction --------------------------------------------

// newRouter builds a router-mode server (see the file comment): the
// bundle's token table, and its rows in a Sharded whose shards search
// through the fleet; no index, no WAL.
func newRouter(cfg Config) (*Server, error) {
	if len(cfg.ShardAddrs) == 0 {
		return nil, fmt.Errorf("server: Router requires ShardAddrs (one per shard, in shard order)")
	}
	if cfg.WAL.Dir != "" {
		return nil, fmt.Errorf("server: WAL is not supported in router mode (durability belongs to the bundle; restart the fleet from it)")
	}
	m, tokens, err := snapshot.LoadFile(cfg.ModelPath)
	if err != nil {
		return nil, fmt.Errorf("server: loading model: %w", err)
	}
	if m.Vocab == 0 {
		return nil, fmt.Errorf("server: model %q has no vectors", cfg.ModelPath)
	}
	if tokens == nil {
		// Same decimal names SliceShard synthesizes on the shards.
		tokens = make([]string, m.Vocab)
		for i := range tokens {
			tokens[i] = strconv.Itoa(i)
		}
	}
	if len(tokens) != m.Vocab {
		return nil, fmt.Errorf("server: %d tokens for %d rows", len(tokens), m.Vocab)
	}
	s := newShell(cfg)
	rb := newRemoteBackend(cfg, m.Dim, s.maxBatch(), s.logger)
	seams := make([]vecstore.ShardSearcher, len(rb.shards))
	for i, sh := range rb.shards {
		seams[i] = shardSearcher{rb: rb, sh: sh}
	}
	sharded, err := vecstore.OpenRemote(m.Store(), seams, cfg.AllowPartial)
	if err != nil {
		rb.Close()
		return nil, fmt.Errorf("server: opening the router's shards: %w", err)
	}
	sharded.SetCompactFraction(cfg.compactFraction())
	s.fleet = rb
	byToken := make(map[string]int, len(tokens))
	for i, tok := range tokens {
		byToken[tok] = i
	}
	gen := s.gen.Add(1)
	s.state.Store(&modelState{
		sharded:  sharded,
		tokens:   tokens,
		byToken:  byToken,
		gen:      gen,
		source:   cfg.ModelPath,
		loadedAt: time.Now(),
	})
	s.initMux()
	healthy := 0
	for _, h := range rb.Health() {
		if h.Healthy {
			healthy++
		}
	}
	s.logger.Printf("server: router over %d shards (%d healthy at startup): %d vectors, dim %d",
		len(rb.shards), healthy, m.Vocab, m.Dim)
	return s, nil
}
