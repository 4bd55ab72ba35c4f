package server

// The shard boundary of the serving tier, and the only way the /v1/*
// handlers, /stats, /metrics and the WAL replay reach vectors: every
// access — fan-out searches with span recording and context
// cancellation, hash-routed inserts and deletes, pair scores,
// occupancy stats, health — goes through the shardBackend interface.
// There are two implementations and no third, un-abstracted path:
//
//   - localBackend wraps an in-process vecstore.Sharded coordinator.
//     An unsharded server is this with one shard, which the
//     coordinator searches on the caller's goroutine (the parity
//     suites prove bit-identical results against the bare index).
//   - remoteBackend (remote.go) talks HTTP to one shard process per
//     partition: pooled clients, per-call deadlines, bounded retries
//     on idempotent reads, health-checked membership.
//
// Handlers cannot tell whether a shard is the caller's goroutine,
// another goroutine or a process, so every topology is the same
// serving code over a different backend.

import (
	"context"
	"fmt"
	"net/http"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// searchMeta carries partial-result accounting out of a fan-out read.
// The zero value means a complete answer over every shard — the only
// thing localBackend ever returns. A remoteBackend running with
// AllowPartial reports how much of the fleet actually answered so the
// response can say so explicitly instead of passing a silently
// truncated answer off as complete.
type searchMeta struct {
	// partial is true when at least one shard was skipped (unhealthy)
	// or failed mid-query and the answer covers only the rest.
	partial bool
	// shardsAnswered counts the shards whose results are merged into
	// the answer (== the partition width when partial is false).
	shardsAnswered int
}

// backendHealth is one remote shard's membership status as its
// backend's probes see it. Surfaced per shard in /stats and /metrics.
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

// shardBackend is the serving tier's shard boundary (see the file
// comment). Methods taking a context observe cancellation and
// deadlines: an expired context aborts the access and returns
// errDeadlineExpired (in-flight shard work is abandoned or drained,
// never waited on). Implementations return *httpError values for
// client-mappable failures, so handlers forward errors as-is.
//
// Occupancy accessors (Dim, Rows, Live, Dead, Deleted) are local and
// infallible on both implementations: the router tracks liveness
// itself (every write flows through it), so no read of them crosses
// the network.
type shardBackend interface {
	// Dim returns the row dimensionality.
	Dim() int
	// Rows returns the number of global IDs ever assigned (live +
	// tombstoned + compacted); IDs are never reused.
	Rows() int
	// Live returns the number of live rows across all shards.
	Live() int
	// Dead returns the number of tombstoned rows awaiting compaction
	// (rows a compaction reclaimed count toward Rows alone).
	Dead() int
	// Deleted reports whether global row id is dead; out-of-range IDs
	// report true.
	Deleted(id int) bool

	// SearchRows answers "k nearest rows to row id, excluding id" for
	// every id — a single query is a batch of one: every shard searches
	// the whole batch at once, the per-query merges keep the
	// coordinator's tie-breaks and strip the query row (see
	// vecstore.Sharded.SearchRows). rec (may be nil) receives one
	// "shard_wait/<sid>" span per completed shard call and a "merge"
	// span.
	SearchRows(ctx context.Context, ids []int, k int, rec vecstore.SpanRecorder) ([][]vecstore.Result, searchMeta, error)
	// Analogy ranks rows by cosine similarity to
	// vector(b) - vector(a) + vector(c), excluding the three query
	// rows and tombstones — the exact float64 kernel of
	// word2vec.AnalogyStore, over every shard's rows.
	Analogy(ctx context.Context, a, b, c, k int) ([]word2vec.Neighbor, error)
	// PairScores scores every (u, v) pair with the link-prediction
	// embedding score: dot when hadamard, else cosine (0 when either
	// row is the zero vector) — /v1/similarity is the cosine.
	PairScores(ctx context.Context, pairs [][2]int, hadamard bool) ([]float64, error)

	// Insert appends a new row: the next global ID is assigned and the
	// row routes to its ShardOf shard. token names the row for
	// shard-local vocabularies (in-process backends ignore it).
	Insert(ctx context.Context, token string, v []float32) (int, error)
	// Delete tombstones global row id on its owning shard.
	Delete(ctx context.Context, id int) error

	// ShardStats snapshots per-shard occupancy in shard order, one entry
	// per shard of the partition (remote backends serve the last probed
	// values rather than fanning out).
	ShardStats() []vecstore.ShardStat
	// Health reports per-shard membership status in shard order; nil
	// when the shards are in-process and cannot fail independently.
	Health() []backendHealth
	// Close releases backend resources (probe goroutines, idle
	// connections). The backend must not be used after Close.
	Close()
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

// ---- localBackend ---------------------------------------------------

// localBackend adapts an in-process vecstore.Sharded coordinator to
// the shardBackend interface; every method delegates.
type localBackend struct {
	sh *vecstore.Sharded
}

func newLocalBackend(sh *vecstore.Sharded) *localBackend { return &localBackend{sh: sh} }

func (lb *localBackend) Dim() int            { return lb.sh.Dim() }
func (lb *localBackend) Rows() int           { return lb.sh.Rows() }
func (lb *localBackend) Live() int           { return lb.sh.Live() }
func (lb *localBackend) Dead() int           { return lb.sh.Dead() }
func (lb *localBackend) Deleted(id int) bool { return lb.sh.Deleted(id) }

func (lb *localBackend) SearchRows(ctx context.Context, ids []int, k int, rec vecstore.SpanRecorder) ([][]vecstore.Result, searchMeta, error) {
	res, err := lb.sh.SearchRows(ctx, ids, k, rec)
	if err != nil {
		// The ctx-aware fan-out abandons slow shards on expiry: they
		// finish in the background under their own locks and their
		// results are discarded, so the 503 goes out immediately.
		return nil, searchMeta{}, errDeadlineExpired
	}
	return res, searchMeta{}, nil
}

func (lb *localBackend) Analogy(ctx context.Context, a, b, c, k int) ([]word2vec.Neighbor, error) {
	if err := ctxExpired(ctx); err != nil {
		return nil, err
	}
	return word2vec.AnalogySharded(lb.sh, a, b, c, k), nil
}

func (lb *localBackend) PairScores(ctx context.Context, pairs [][2]int, hadamard bool) ([]float64, error) {
	return pairScores(lb.sh, pairs, hadamard), nil
}

// pairScores is PairScores over rows in this process — the
// coordinator's, or the router's copy — with the same float64 kernels.
func pairScores(rows interface {
	Dot(a, b int) float64
	Cosine(a, b int) float64
}, pairs [][2]int, hadamard bool) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		if hadamard {
			out[i] = rows.Dot(p[0], p[1])
		} else {
			out[i] = rows.Cosine(p[0], p[1])
		}
	}
	return out
}

func (lb *localBackend) Insert(ctx context.Context, token string, v []float32) (int, error) {
	return lb.sh.Insert(v)
}

func (lb *localBackend) Delete(ctx context.Context, id int) error { return lb.sh.Delete(id) }

func (lb *localBackend) ShardStats() []vecstore.ShardStat { return lb.sh.ShardStats() }

func (lb *localBackend) Health() []backendHealth { return nil }

func (lb *localBackend) Close() {}

// scorerName names the pair score a /v1/predict response reports.
func scorerName(hadamard bool) string {
	if hadamard {
		return "embedding-dot"
	}
	return "embedding-cosine"
}
