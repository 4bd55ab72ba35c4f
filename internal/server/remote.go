package server

// Router mode (Config.Router): the remoteBackend implementation of
// shardBackend, talking HTTP to one shard process per partition, plus
// the newRouter constructor. The router holds the token table and the
// rows (every write flows through it); searches and exact scans come
// from the shard fleet over the /shard/v1/* API (shard.go defines both
// wire halves).
//
// Fleet membership is health-checked: a prober GETs each shard's
// /healthz on a fixed cadence and verifies the shard's identity block
// (right shard ID, right partition width, right dimensionality, and
// at least the rows the router has seen it acknowledge), so a
// misconfigured process, or one restarted from its bundle after
// acknowledged writes, reads as down instead of quietly merging wrong
// or missing rows. An unhealthy shard is skipped before any RPC: with
// AllowPartial the response says so explicitly (partial=true,
// shards_answered=N), without it the read is a 503 — never a hang,
// never a silently truncated answer.
//
// Parity with the in-process coordinator is by construction: the
// shards run the same per-shard kernels over bit-identical slices
// (snapshot.SliceShard), vectors cross the wire as their bits (shard.go,
// "Fan-out wire types"), and the router merges with the exported
// vecstore.MergeRowTopK / MergeTopK the coordinator itself uses, and
// scores pairs with the same Store kernels.
//
// A neighbours query — one vertex or a batch — is one call per shard,
// as in the in-process coordinator: every shard gets every query row
// in one binary frame. The router's rows cost 4·dim bytes per vector,
// as much as all the shards' float32 rows together. The trade,
// measured on the benchmark's serve_fleet (router and 2 shard
// processes on a 2-vCPU Xeon, medians of ten alternating runs)
// against the two-step JSON search it replaced, which asked the owners
// by row ID first: 3190 → 3980 req/s for rss 61.2 → 65.2 MiB.

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
	"v2v/internal/word2vec"
)

const (
	defaultProbeInterval = 2 * time.Second
	defaultRemoteTimeout = 5 * time.Second
)

// remoteShard is one shard process as the router sees it: a pooled
// HTTP client plus probe-maintained membership state.
type remoteShard struct {
	sid    int
	addr   string // normalized base URL, no trailing slash
	client *http.Client

	healthy       atomic.Bool
	probeFailures atomic.Uint64
	// assigned counts this shard's acknowledged rows (its bundle slice,
	// then every acked insert); a probe finding fewer marks it down.
	assigned atomic.Int64
	// stat caches the occupancy block of the last successful probe, so
	// /stats and /metrics never fan out.
	stat atomic.Pointer[vecstore.ShardStat]
}

// remoteBackend implements shardBackend over a fleet of shard
// processes. Liveness bookkeeping (rows assigned, tombstones) and the
// rows themselves live here: every write flows through the router, so
// occupancy reads and row reads never cross the network.
type remoteBackend struct {
	shards []*remoteShard
	dim    int
	// store holds every global row by ID, tombstoned ones too. It grows
	// in Insert, under the generation's writer lock; readers hold the
	// reader lock.
	store        *vecstore.Store
	timeout      time.Duration
	allowPartial bool
	log          *log.Logger

	// rows is the next global ID to assign == rows ever assigned.
	// Writers hold the generation's writer lock, so load-then-add in
	// Insert is not a race; the atomic lets readers skip the lock.
	rows atomic.Int64
	dead atomic.Int64
	// deleted tracks tombstoned global IDs (Deleted() must answer
	// locally — it runs inside token resolution on every read).
	delMu   sync.RWMutex
	deleted map[int]bool

	probeInterval time.Duration
	stop          chan struct{}
	stopOnce      sync.Once
	done          sync.WaitGroup
}

func newRemoteBackend(cfg Config, store *vecstore.Store, logger *log.Logger) *remoteBackend {
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
		}
	}
	timeout := cfg.RemoteTimeout
	if timeout <= 0 {
		timeout = defaultRemoteTimeout
	}
	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	for id := 0; id < store.Len(); id++ {
		shards[vecstore.ShardOf(id, len(shards))].assigned.Add(1)
	}
	rb := &remoteBackend{
		shards:        shards,
		dim:           store.Dim(),
		store:         store,
		timeout:       timeout,
		allowPartial:  cfg.AllowPartial,
		log:           logger,
		deleted:       make(map[int]bool),
		probeInterval: interval,
		stop:          make(chan struct{}),
	}
	rb.rows.Store(int64(store.Len()))
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
		case <-rb.stop:
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

func (rb *remoteBackend) probe(sh *remoteShard) {
	ctx, cancel := context.WithTimeout(context.Background(), rb.probeInterval)
	defer cancel()
	// Read before the shard answers: a row acknowledged by then is
	// already there, and a shard's row count never shrinks.
	acked := sh.assigned.Load()
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
				// hold every row it acknowledged, or its answers would
				// silently miss them. More rows than that is an insert in
				// flight or one whose acknowledgment was lost (filterKnown).
				ok = hz.Shard != nil && hz.Shard.ID == sh.sid &&
					hz.Shard.Of == len(rb.shards) && hz.Dim == rb.dim &&
					int64(hz.Shard.Rows) >= acked
			}
			resp.Body.Close()
		}
	}
	if ok {
		sh.probeFailures.Store(0)
		sh.stat.Store(&vecstore.ShardStat{
			Rows:    hz.Shard.Rows,
			Live:    hz.Shard.Live,
			Deleted: hz.Shard.Deleted,
			Epoch:   hz.Shard.Epoch,
		})
		if !sh.healthy.Swap(true) {
			rb.log.Printf("server: shard %d (%s) joined", sh.sid, sh.addr)
		}
		return
	}
	sh.probeFailures.Add(1)
	if sh.healthy.Swap(false) {
		rb.log.Printf("server: shard %d (%s) left (probe failed)", sh.sid, sh.addr)
	}
}

// ---- RPC plumbing ---------------------------------------------------

// call is post with in marshalled as the JSON body and the reply
// unmarshalled into out; a reply that does not decode is the shard's
// failure, not the client's.
func (rb *remoteBackend) call(ctx context.Context, sh *remoteShard, path string, in, out any, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	raw, err := rb.post(ctx, sh, path, body, idempotent)
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

// scatterShards fans fn out to every healthy shard and collects
// results indexed by shard ID (zero value for shards that did not
// answer). rec, when non-nil, receives one "shard_wait/<sid>" span per
// shard that completed successfully — spans for abandoned shards are
// never recorded, so an expired request's trace shows exactly the
// shards that made the answer. Error policy: context expiry and shard
// 4xx verdicts (a bug surface, not an availability event) always
// propagate; other failures propagate in strict mode and demote the
// shard to "skipped" under AllowPartial — unless owners[sid]: that
// shard owns one of the request's query rows, and a query is never
// answered without its own row's shard (errOwnerDown).
func scatterShards[T any](ctx context.Context, rb *remoteBackend, rec vecstore.SpanRecorder, owners []bool, fn func(ctx context.Context, sh *remoteShard) (T, error)) ([]T, searchMeta, error) {
	type done struct {
		sid int
		val T
		dur time.Duration
		err error
	}
	out := make([]T, len(rb.shards))
	// Buffered to the fleet width: abandoned goroutines park their
	// result and exit instead of leaking.
	ch := make(chan done, len(rb.shards))
	launched, answered := 0, 0
	for _, sh := range rb.shards {
		if !sh.healthy.Load() {
			switch {
			case owners != nil && owners[sh.sid]:
				return nil, searchMeta{}, errOwnerDown(sh)
			case !rb.allowPartial:
				return nil, searchMeta{}, errShardUnavailable(sh.sid, sh.addr, nil)
			}
			continue
		}
		launched++
		go func(sh *remoteShard) {
			start := time.Now()
			v, err := fn(ctx, sh)
			ch <- done{sid: sh.sid, val: v, dur: time.Since(start), err: err}
		}(sh)
	}
	for i := 0; i < launched; i++ {
		select {
		case d := <-ch:
			if d.err != nil {
				if d.err == errDeadlineExpired {
					return nil, searchMeta{}, d.err
				}
				var he *httpError
				if errors.As(d.err, &he) && he.code >= 400 && he.code < 500 {
					return nil, searchMeta{}, d.err
				}
				if (owners != nil && owners[d.sid]) || !rb.allowPartial {
					return nil, searchMeta{}, d.err
				}
				continue
			}
			out[d.sid] = d.val
			answered++
			if rec != nil {
				rec("shard_wait/"+strconv.Itoa(d.sid), d.dur)
			}
		case <-ctx.Done():
			// Slow shards are abandoned, not waited on: the in-flight
			// RPCs are cancelled through ctx and their goroutines drain
			// into the buffered channel.
			return nil, searchMeta{}, errDeadlineExpired
		}
	}
	meta := searchMeta{}
	if answered < len(rb.shards) {
		meta.partial = true
		meta.shardsAnswered = answered
	}
	return out, meta, nil
}

// errOwnerDown is the 503 for a query whose own row lives on a shard
// that is out of membership: a row's owner must answer regardless of
// AllowPartial.
func errOwnerDown(sh *remoteShard) *httpError {
	return errShardUnavailable(sh.sid, sh.addr, errors.New("query row owner must answer"))
}

// owners marks the shards that own ids, or fails with errOwnerDown if
// one of them is out of membership: no endpoint answers a read while
// the shard that holds one of its own rows is down, although the
// router holds the rows itself.
func (rb *remoteBackend) owners(ids ...int) ([]bool, error) {
	out := make([]bool, len(rb.shards))
	for _, id := range ids {
		sh := rb.shards[vecstore.ShardOf(id, len(rb.shards))]
		if !sh.healthy.Load() {
			return nil, errOwnerDown(sh)
		}
		out[sh.sid] = true
	}
	return out, nil
}

// filterKnown drops result IDs at or past the router's row horizon —
// a shard can briefly hold a row the router failed to record (an
// insert whose acknowledgment was lost); serving it would index past
// the token table. Lists are filtered in place, preserving order.
func (rb *remoteBackend) filterKnown(per [][]vecstore.Result) [][]vecstore.Result {
	horizon := int(rb.rows.Load())
	for sid, list := range per {
		keep := list[:0]
		for _, h := range list {
			if h.ID < horizon {
				keep = append(keep, h)
			}
		}
		per[sid] = keep
	}
	return per
}

// ---- shardBackend ---------------------------------------------------

func (rb *remoteBackend) Dim() int  { return rb.dim }
func (rb *remoteBackend) Rows() int { return int(rb.rows.Load()) }
func (rb *remoteBackend) Live() int { return rb.Rows() - rb.Dead() }
func (rb *remoteBackend) Dead() int { return int(rb.dead.Load()) }

func (rb *remoteBackend) Deleted(id int) bool {
	if id < 0 || id >= rb.Rows() {
		return true
	}
	rb.delMu.RLock()
	defer rb.delMu.RUnlock()
	return rb.deleted[id]
}

func (rb *remoteBackend) SearchRows(ctx context.Context, ids []int, k int, rec vecstore.SpanRecorder) ([][]vecstore.Result, searchMeta, error) {
	// One frame for every shard, k+1 like the in-process coordinator: a
	// query row ranks first in its own shard's results and is stripped
	// at the merge. The rows are read here, under the caller's reader
	// lock; the shard calls only send the bytes.
	owners, err := rb.owners(ids...)
	if err != nil {
		return nil, searchMeta{}, err
	}
	qs := make([][]float32, len(ids))
	for p, id := range ids {
		qs[p] = rb.store.Row(id)
	}
	body := appendSearchFrame(nil, k+1, qs)
	per, meta, err := scatterShards(ctx, rb, rec, owners, func(ctx context.Context, sh *remoteShard) ([][]vecstore.Result, error) {
		raw, err := rb.post(ctx, sh, "/shard/v1/search", body, true)
		if err != nil {
			return nil, err
		}
		res, err := decodeSearchResults(raw, len(ids))
		if err != nil {
			return nil, errShardUnavailable(sh.sid, sh.addr, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, searchMeta{}, err
	}
	start := time.Now()
	out := make([][]vecstore.Result, len(ids))
	lists := make([][]vecstore.Result, 0, len(rb.shards))
	for p, id := range ids {
		lists = lists[:0]
		for _, res := range per {
			if res != nil { // nil: a skipped shard
				lists = append(lists, res[p])
			}
		}
		out[p] = vecstore.MergeRowTopK(rb.filterKnown(lists), id, k)
	}
	if rec != nil {
		rec("merge", time.Since(start))
	}
	return out, meta, nil
}

func (rb *remoteBackend) Analogy(ctx context.Context, a, b, c, k int, rec vecstore.SpanRecorder) ([]word2vec.Neighbor, searchMeta, error) {
	if k <= 0 {
		return nil, searchMeta{}, nil
	}
	if _, err := rb.owners(a, b, c); err != nil {
		return nil, searchMeta{}, err
	}
	va, vb, vc := rb.store.Row(a), rb.store.Row(b), rb.store.Row(c)
	// The exact float64 target of word2vec.AnalogyStore; shards
	// recompute its norm from these exactly-transported values, so the
	// distributed kernel is the in-process kernel.
	target := make([]float64, rb.dim)
	for i := range target {
		target[i] = float64(vb[i]) - float64(va[i]) + float64(vc[i])
	}
	req := shardScanRequest{Target: packVec(target), Exclude: []int{a, b, c}, K: k}
	per, meta, err := scatterShards(ctx, rb, rec, nil, func(ctx context.Context, sh *remoteShard) ([]vecstore.Result, error) {
		var resp shardScanResponse
		err := rb.call(ctx, sh, "/shard/v1/scan", req, &resp, true)
		return resp.Results, err
	})
	if err != nil {
		return nil, searchMeta{}, err
	}
	start := time.Now()
	merged := vecstore.MergeTopK(rb.filterKnown(per), k)
	ns := make([]word2vec.Neighbor, len(merged))
	for i, r := range merged {
		ns[i] = word2vec.Neighbor{Word: r.ID, Similarity: r.Score}
	}
	if rec != nil {
		rec("merge", time.Since(start))
	}
	return ns, meta, nil
}

func (rb *remoteBackend) PairScores(ctx context.Context, pairs [][2]int, hadamard bool) ([]float64, error) {
	ids := make([]int, 0, 2*len(pairs))
	for _, p := range pairs {
		ids = append(ids, p[0], p[1])
	}
	if _, err := rb.owners(ids...); err != nil {
		return nil, err
	}
	return pairScores(rb.store, pairs, hadamard), nil
}

func (rb *remoteBackend) Insert(ctx context.Context, token string, v []float32) (int, error) {
	// The caller holds the generation's writer lock, so the
	// load-then-add is not a race: this ID is ours to assign.
	id := int(rb.rows.Load())
	sid := vecstore.ShardOf(id, len(rb.shards))
	sh := rb.shards[sid]
	if !sh.healthy.Load() {
		// Writes are never partial: the row has exactly one home.
		return 0, errShardUnavailable(sid, sh.addr, errors.New("row owner must accept the write"))
	}
	var resp shardInsertResponse
	if err := rb.call(ctx, sh, "/shard/v1/insert", shardInsertRequest{ID: id, Token: token, Vector: packVec(v)}, &resp, false); err != nil {
		return 0, err
	}
	rb.store.AppendRow(v)
	sh.assigned.Add(1)
	rb.rows.Add(1)
	return id, nil
}

func (rb *remoteBackend) Delete(ctx context.Context, id int) error {
	sid := vecstore.ShardOf(id, len(rb.shards))
	sh := rb.shards[sid]
	if !sh.healthy.Load() {
		return errShardUnavailable(sid, sh.addr, errors.New("row owner must accept the write"))
	}
	var resp shardDeleteResponse
	if err := rb.call(ctx, sh, "/shard/v1/delete", shardDeleteRequest{ID: id}, &resp, false); err != nil {
		return err
	}
	rb.delMu.Lock()
	if !rb.deleted[id] {
		rb.deleted[id] = true
		rb.dead.Add(1)
	}
	rb.delMu.Unlock()
	return nil
}

func (rb *remoteBackend) ShardStats() []vecstore.ShardStat {
	out := make([]vecstore.ShardStat, len(rb.shards))
	for i, sh := range rb.shards {
		if st := sh.stat.Load(); st != nil {
			out[i] = *st
		}
	}
	return out
}

func (rb *remoteBackend) Health() []backendHealth {
	out := make([]backendHealth, len(rb.shards))
	for i, sh := range rb.shards {
		out[i] = backendHealth{
			Shard:         sh.sid,
			Addr:          sh.addr,
			Healthy:       sh.healthy.Load(),
			ProbeFailures: sh.probeFailures.Load(),
		}
	}
	return out
}

func (rb *remoteBackend) Close() {
	rb.stopOnce.Do(func() { close(rb.stop) })
	rb.done.Wait()
	for _, sh := range rb.shards {
		sh.client.CloseIdleConnections()
	}
}

// ---- Router construction --------------------------------------------

// newRouter builds a router-mode server (see the file comment): the
// bundle's token table and rows over a remoteBackend, no index, no
// WAL.
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
	rb := newRemoteBackend(cfg, m.Store(), s.logger)
	byToken := make(map[string]int, len(tokens))
	for i, tok := range tokens {
		byToken[tok] = i
	}
	gen := s.gen.Add(1)
	s.state.Store(&modelState{
		backend:  rb,
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
