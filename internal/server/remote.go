package server

// Router mode (Config.Router): the remoteBackend implementation of
// shardBackend, talking HTTP to one shard process per partition, plus
// the newRouter constructor. The router holds the full token table
// (every write flows through it, so it tracks liveness itself) but no
// vectors: row data, searches and exact scans come from the shard
// fleet over the /shard/v1/* API (shard.go defines both wire halves).
//
// Fleet membership is health-checked: a prober GETs each shard's
// /healthz on a fixed cadence and verifies the shard's identity block
// (right shard ID, right partition width, right dimensionality), so a
// misconfigured or restarted-with-the-wrong-flags process reads as
// down instead of quietly merging wrong rows. An unhealthy shard is
// skipped before any RPC: with AllowPartial the response says so
// explicitly (partial=true, shards_answered=N), without it the read is
// a 503 — never a hang, never a silently truncated answer.
//
// Parity with the in-process coordinator is by construction: the
// shards run the same per-shard kernels over bit-identical slices
// (snapshot.SliceShard), vectors cross the wire as their bits (shard.go,
// "Fan-out wire types"), and the router merges with the exported
// vecstore.MergeTopK / CosineFromDot the coordinator itself uses.
//
// A neighbours query — one vertex or a batch — takes two steps: every
// shard that owns query rows is asked first, by row ID — it searches
// with its stored rows and returns them beside its results — and each
// shard then gets the rows it does not own. One vertex costs one call
// per shard; a batch at most two. The alternative that would make it
// one step, keeping every row in the router (newRouter reads them and
// drops them), was rejected: it puts 4·dim bytes per vector into the
// one process that is meant to hold none.

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
	"v2v/internal/telemetry"
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
	// stat caches the occupancy block of the last successful probe, so
	// /stats and /metrics never fan out.
	stat atomic.Pointer[vecstore.ShardStat]
}

// remoteBackend implements shardBackend over a fleet of shard
// processes. Liveness bookkeeping (rows assigned, tombstones) lives
// here: every write flows through the router, so occupancy reads never
// cross the network.
type remoteBackend struct {
	shards       []*remoteShard
	dim          int
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

func newRemoteBackend(cfg Config, vocab, dim int, logger *log.Logger) *remoteBackend {
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
	rb := &remoteBackend{
		shards:        shards,
		dim:           dim,
		timeout:       timeout,
		allowPartial:  cfg.AllowPartial,
		log:           logger,
		deleted:       make(map[int]bool),
		probeInterval: interval,
		stop:          make(chan struct{}),
	}
	rb.rows.Store(int64(vocab))
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
	var hz healthzProbe
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/healthz", nil)
	if err == nil {
		resp, derr := sh.client.Do(req)
		if derr == nil {
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&hz) == nil {
				// Identity check: answering HTTP is not enough — the
				// process must be the shard this slot is configured for,
				// or its global IDs would merge as garbage.
				ok = hz.Shard != nil && hz.Shard.ID == sh.sid &&
					hz.Shard.Of == len(rb.shards) && hz.Dim == rb.dim
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

// call is post with in marshalled as the body; a fan-out marshals once
// and posts the same bytes to every shard instead.
func (rb *remoteBackend) call(ctx context.Context, sh *remoteShard, path string, in, out any, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return rb.post(ctx, sh, path, body, out, idempotent)
}

// post POSTs body to path on sh and decodes the 200 response into out.
// The context is the deadline authority; a call with no inherited
// deadline gets the backend's RemoteTimeout. idempotent calls retry
// once — but only on transport errors, where the shard never answered;
// once a shard has answered (any status), its verdict is forwarded,
// never replayed. Context expiry maps to errDeadlineExpired (503),
// exhausted transport attempts to errShardUnavailable.
func (rb *remoteBackend) post(ctx context.Context, sh *remoteShard, path string, body []byte, out any, idempotent bool) error {
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
			return errDeadlineExpired
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.addr+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := sh.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return errDeadlineExpired
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
			return &httpError{code: resp.StatusCode, msg: fmt.Sprintf("shard %d: %s", sh.sid, msg)}
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return errDeadlineExpired
			}
			lastErr = err
			continue
		}
		return nil
	}
	return errShardUnavailable(sh.sid, sh.addr, lastErr)
}

// scatterShards fans fn out to the healthy shards a request needs —
// every shard when need is nil, else those with positions in
// need[sid], which fn receives; the others count as answered — and
// collects results indexed by shard ID (zero value for shards that
// did not answer). rec, when non-nil, receives one "shard_wait/<sid>"
// span per shard that completed successfully — spans for abandoned
// shards are never recorded, so an expired request's trace shows
// exactly the shards that made the answer. Error policy: context
// expiry and shard 4xx verdicts (a bug surface, not an availability
// event) always propagate; other failures propagate in strict mode and
// demote the shard to "skipped" under AllowPartial — unless owners:
// the shards then hold the request's own rows, which have no partial
// substitute (errOwnerDown).
func scatterShards[T any](ctx context.Context, rb *remoteBackend, rec vecstore.SpanRecorder, need [][]int, owners bool, fn func(ctx context.Context, sh *remoteShard, pos []int) (T, error)) ([]T, searchMeta, error) {
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
		var pos []int
		if need != nil {
			if pos = need[sh.sid]; pos == nil {
				answered++
				continue
			}
		}
		if !sh.healthy.Load() {
			switch {
			case owners:
				return nil, searchMeta{}, errOwnerDown(sh)
			case !rb.allowPartial:
				return nil, searchMeta{}, errShardUnavailable(sh.sid, sh.addr, nil)
			}
			continue
		}
		launched++
		go func(sh *remoteShard) {
			start := time.Now()
			v, err := fn(ctx, sh, pos)
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
				if owners || !rb.allowPartial {
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
// that is out of membership: a query's rows have no partial
// substitute, so their owner must answer regardless of AllowPartial.
func errOwnerDown(sh *remoteShard) *httpError {
	return errShardUnavailable(sh.sid, sh.addr, errors.New("query row owner must answer"))
}

// owned groups the positions in ids by the shard that owns each row.
func (rb *remoteBackend) owned(ids []int) [][]int {
	out := make([][]int, len(rb.shards))
	for p, id := range ids {
		sid := vecstore.ShardOf(id, len(rb.shards))
		out[sid] = append(out[sid], p)
	}
	return out
}

// fetchRows resolves global IDs to row vectors and squared norms from
// their owning shards, one call per owner. The round trip is recorded
// on the request's trace as "shard_wait/rows", so the stages of a
// request that fetches add up to its index_search like those of one
// that only scatters.
func (rb *remoteBackend) fetchRows(ctx context.Context, ids []int) ([][]float32, []float64, error) {
	start := time.Now()
	defer func() { telemetry.FromContext(ctx).Add("shard_wait/rows", time.Since(start)) }()
	owned := rb.owned(ids)
	got, _, err := scatterShards(ctx, rb, nil, owned, true, func(ctx context.Context, sh *remoteShard, pos []int) (shardRowsResponse, error) {
		req := shardRowsRequest{IDs: make([]int, len(pos))}
		for i, p := range pos {
			req.IDs[i] = ids[p]
		}
		var resp shardRowsResponse
		err := rb.call(ctx, sh, "/shard/v1/rows", req, &resp, true)
		if err == nil && (len(resp.Rows) != len(pos) || len(resp.SqNorms) != len(pos)) {
			err = errShardUnavailable(sh.sid, sh.addr,
				fmt.Errorf("rows response covers %d of %d requested rows", len(resp.Rows), len(pos)))
		}
		return resp, err
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]float32, len(ids))
	norms := make([]float64, len(ids))
	for sid, pos := range owned {
		for i, p := range pos {
			if rows[p], err = unpackVec[float32](fmt.Sprintf("row %d", ids[p]), got[sid].Rows[i], rb.dim); err != nil {
				return nil, nil, errShardUnavailable(sid, rb.shards[sid].addr, err)
			}
			norms[p] = got[sid].SqNorms[i]
		}
	}
	return rows, norms, nil
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
	// k+1 like the in-process coordinator: a query row ranks first in
	// its own results and is stripped at the merge.
	search := func(ctx context.Context, sh *remoteShard, pos []int, req shardSearchRequest) (shardSearchResponse, error) {
		req.K = k + 1
		var resp shardSearchResponse
		err := rb.call(ctx, sh, "/shard/v1/search", req, &resp, true)
		if err == nil && len(resp.Results) != len(pos) {
			err = errShardUnavailable(sh.sid, sh.addr,
				fmt.Errorf("search response covers %d of %d queries", len(resp.Results), len(pos)))
		}
		return resp, err
	}
	// First every owner searches with its stored rows and returns them.
	owned := rb.owned(ids)
	own, _, err := scatterShards(ctx, rb, rec, owned, true, func(ctx context.Context, sh *remoteShard, pos []int) (shardSearchResponse, error) {
		req := shardSearchRequest{Rows: make([]int, len(pos))}
		for i, p := range pos {
			req.Rows[i] = ids[p]
		}
		return search(ctx, sh, pos, req)
	})
	if err != nil {
		return nil, searchMeta{}, err
	}
	rows := make([][]byte, len(ids))
	lists := make([][][]vecstore.Result, len(ids)) // per query, one list per shard that answered
	others := make([][]int, len(rb.shards))        // shard ID -> positions of the rows it does not own
	for sid, pos := range owned {
		for i, p := range pos {
			if i >= len(own[sid].Rows) || len(own[sid].Rows[i]) != 4*rb.dim {
				return nil, searchMeta{}, errShardUnavailable(sid, rb.shards[sid].addr,
					fmt.Errorf("row %d did not come back as the %d bytes dimension %d takes", ids[p], 4*rb.dim, rb.dim))
			}
			rows[p] = own[sid].Rows[i]
			lists[p] = append(lists[p], own[sid].Results[i])
			for other := range others {
				if other != sid {
					others[other] = append(others[other], p)
				}
			}
		}
	}
	// Then every shard searches with the rows it does not own, as the
	// bits they arrived in.
	rest, meta, err := scatterShards(ctx, rb, rec, others, false, func(ctx context.Context, sh *remoteShard, pos []int) (shardSearchResponse, error) {
		req := shardSearchRequest{Vectors: make([][]byte, len(pos))}
		for i, p := range pos {
			req.Vectors[i] = rows[p]
		}
		return search(ctx, sh, pos, req)
	})
	if err != nil {
		return nil, searchMeta{}, err
	}
	start := time.Now()
	for sid, resp := range rest {
		for i := range resp.Results { // none from a skipped shard
			lists[others[sid][i]] = append(lists[others[sid][i]], resp.Results[i])
		}
	}
	out := make([][]vecstore.Result, len(ids))
	for p, id := range ids {
		out[p] = vecstore.MergeRowTopK(rb.filterKnown(lists[p]), id, k)
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
	rows, _, err := rb.fetchRows(ctx, []int{a, b, c})
	if err != nil {
		return nil, searchMeta{}, err
	}
	va, vb, vc := rows[0], rows[1], rows[2]
	// The exact float64 target of word2vec.AnalogyStore; shards
	// recompute its norm from these exactly-transported values, so the
	// distributed kernel is the in-process kernel.
	target := make([]float64, rb.dim)
	for i := range target {
		target[i] = float64(vb[i]) - float64(va[i]) + float64(vc[i])
	}
	body, err := json.Marshal(shardScanRequest{Target: packVec(target), Exclude: []int{a, b, c}, K: k})
	if err != nil {
		return nil, searchMeta{}, err
	}
	per, meta, err := scatterShards(ctx, rb, rec, nil, false, func(ctx context.Context, sh *remoteShard, _ []int) ([]vecstore.Result, error) {
		var resp shardScanResponse
		if err := rb.post(ctx, sh, "/shard/v1/scan", body, &resp, true); err != nil {
			return nil, err
		}
		return resp.Results, nil
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
	// One fetch for the whole batch: a call per owning shard, however
	// many pairs.
	ids := make([]int, 0, 2*len(pairs))
	for _, p := range pairs {
		ids = append(ids, p[0], p[1])
	}
	rows, sq, err := rb.fetchRows(ctx, ids)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pairs))
	for i := range pairs {
		u, v := 2*i, 2*i+1
		dot := vecstore.DotF64(rows[u], rows[v])
		if hadamard {
			out[i] = dot
		} else {
			out[i] = vecstore.CosineFromDot(dot, sq[u], sq[v])
		}
	}
	return out, nil
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
// bundle's token table over a remoteBackend, no local vectors, no
// index, no WAL.
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
	rb := newRemoteBackend(cfg, m.Vocab, m.Dim, s.logger)
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
