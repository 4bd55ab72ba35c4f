// Package server is the online face of the repository: a long-lived
// HTTP/JSON query service over a trained embedding, turning the
// paper's vertex similarity — nearest neighbors and the cosine of a
// pair — into servable endpoints backed by the vecstore indexes.
//
// Design notes:
//
//   - All model-dependent state (token table, sharded coordinator)
//     lives in one generation behind an atomic pointer. A request
//     loads the pointer once and answers entirely from that
//     generation, so a hot reload (Reload/SwapModel) swaps the whole
//     world atomically: in-flight requests finish against the old
//     model, new requests see the new one, and nothing is ever
//     dropped or torn.
//   - Every generation holds its vectors in one vecstore.Sharded
//     coordinator — one shard wide for an unsharded server — whose
//     shards search in-process or, in router mode, in their shard
//     processes (remote.go). No handler knows which.
//   - Within a generation, /v1/upsert and /v1/delete mutate the shards
//     in place: writes take the generation's writer lock, reads its
//     reader lock, and every write bumps a write epoch that is part of
//     each cache key — so upserts and deletes are visible to the very
//     next query, with no reload and no stale cache hit. Past a
//     tombstone-fraction threshold a shard rebuilds itself over its
//     live rows in the background (vecstore.Sharded); row IDs and the
//     live set do not change, so neither does the generation.
//   - Repeated top-k queries are served from a bounded sharded LRU of
//     serialized responses, keyed by (generation, write epoch) so
//     neither a reload nor a write can ever serve stale hits.
//   - A single request is a batch of one: each of the four
//     single/batch endpoint pairs parses its own request and shapes
//     its own body around one shared core (serveNeighbors, servePairs,
//     serveWrite), which crosses the shard boundary once per request.
//
// See docs/SERVING.md for the API reference and benchmark/ for the
// load-generating client.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/telemetry"
	"v2v/internal/vecstore"
	"v2v/internal/wal"
	"v2v/internal/word2vec"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default
	// "127.0.0.1:8080").
	Addr string

	// ModelPath is the embedding to serve, in either format (binary
	// snapshot or word2vec text; auto-detected). Optional when the
	// server is built with NewFromModel, in which case it is only the
	// default path for /v1/reload.
	ModelPath string

	// Index selects the top-k index built over each loaded model
	// (vecstore.Config zero value = exact cosine). The metric applies
	// to /v1/neighbors; /v1/similarity always scores by cosine (the
	// paper's similarity).
	Index vecstore.Config

	// CacheSize bounds the response cache (entries across all shards);
	// 0 means 4096, negative disables caching.
	CacheSize int

	// MaxK caps the k accepted by query endpoints (0 = 1024).
	MaxK int

	// MaxBatch caps the number of queries in one batch request
	// (0 = 4096).
	MaxBatch int

	// ReadOnly disables the write endpoints: /v1/upsert, /v1/delete
	// and their /batch variants answer 403.
	ReadOnly bool

	// CompactFraction is the tombstone fraction above which a delete
	// triggers compaction of the shard it landed on (gather its live
	// rows, rebuild its index, swap it in; see vecstore.Sharded). 0
	// means the 0.25 default; negative disables compaction entirely.
	// A router compacts its own copy of the rows by the same rule,
	// with no index to rebuild.
	CompactFraction float64

	// WAL enables write-ahead logging of the online write path: every
	// acknowledged upsert/delete is logged before it is applied, and
	// startup replays the log so a crash loses nothing acknowledged.
	// The zero value disables it. See wal.go and docs/SERVING.md.
	WAL WALConfig

	// Admission configures the overload-handling layer: bounded
	// per-class concurrency with a small FIFO wait queue (excess load
	// is shed with 429 + Retry-After) and optional per-class request
	// deadlines (503 on expiry). The zero value enables admission with
	// generous class defaults; see AdmissionConfig and
	// docs/SERVING.md ("Overload and backpressure").
	Admission AdmissionConfig

	// SlowLogMs logs any request slower than this many milliseconds
	// as one structured line with its per-stage span breakdown (see
	// docs/OBSERVABILITY.md). 0 disables the slow-query log.
	SlowLogMs float64

	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/. Off by default: the profile endpoints expose
	// internals and cost CPU while sampling, so they are opt-in.
	Pprof bool

	// Router runs this server as a scatter-gather router over the
	// remote shard processes at ShardAddrs: reads fan out over HTTP
	// and merge with the in-process coordinator's exact semantics,
	// writes hash-route to exactly one shard. ModelPath must name the
	// same bundle the shards were sliced from (the router serves its
	// token table; row data stays in the shards). Router mode rejects
	// WAL (the distributed tier has no durability story yet — restart
	// the fleet together) and serves /v1/reload as 501.
	Router bool

	// ShardAddrs lists the shard base URLs in shard order
	// ("host:port" or "http://host:port"); entry i must be the process
	// started with ShardID=i. Required (non-empty) with Router.
	ShardAddrs []string

	// AllowPartial lets router reads skip unhealthy shards and answer
	// from the rest, marking the response with "partial": true and a
	// "shards_answered" count. Off by default: a needed-but-down shard
	// answers 503 (never a silent partial, never a hang).
	AllowPartial bool

	// ProbeInterval is the router's health-probe cadence against each
	// shard's /healthz (0 = 2s). A shard is dropped from membership on
	// a failed probe or an identity/shape mismatch and rejoins on the
	// next success.
	ProbeInterval time.Duration

	// RemoteTimeout bounds each shard HTTP call (0 = 5s): every health
	// probe and search call, and a write whose request context carries
	// no deadline of its own (with admission deadlines configured the
	// per-class deadline governs a write instead). A search call, which
	// several queries may share, is also cancelled once every one of
	// them has stopped waiting.
	RemoteTimeout time.Duration

	// ShardCount > 0 runs this server as shard ShardID of a
	// ShardCount-way partition: it loads ModelPath, slices out the
	// rows ShardOf routes to ShardID, serves the standard read API
	// over that partition, and exposes the /shard/v1/* fan-out API the
	// router consumes. Shard mode forces ReadOnly on the public write
	// endpoints (writes enter through the router), serves /v1/reload
	// as 501, and rejects WAL.
	ShardCount int

	// ShardID is this process's shard index in [0, ShardCount).
	ShardID int

	// Log receives serving events (startup, reloads). Nil discards.
	Log *log.Logger
}

const (
	defaultAddr            = "127.0.0.1:8080"
	defaultCacheSz         = 4096
	defaultMaxK            = 1024
	defaultMaxBatch        = 4096
	defaultCompactFraction = 0.25
)

// compactFraction is CompactFraction with its default applied, for
// vecstore.Sharded.SetCompactFraction.
func (c Config) compactFraction() float64 {
	if c.CompactFraction == 0 {
		return defaultCompactFraction
	}
	return c.CompactFraction
}

// modelState is one generation of servable state. The token
// identities are fixed for the generation's lifetime, but writes grow
// the table and mutate the shards under mu; epoch counts those writes
// for cache scoping.
type modelState struct {
	// sharded holds the generation's vectors: every access to them
	// goes through it. Its shards search in-process, or in router mode
	// through the shard processes (newRouter).
	sharded  *vecstore.Sharded
	tokens   []string
	byToken  map[string]int
	gen      uint64
	source   string
	loadedAt time.Time

	// mu serialises writes against reads within the generation:
	// queries hold the reader side while they resolve tokens and
	// search; upserts/deletes hold the writer side.
	mu sync.RWMutex
	// epoch counts accepted writes; it scopes cache keys so a write
	// invalidates every previously cached answer of this generation.
	epoch atomic.Uint64
}

// endpointNames fixes the stats key set (and the order /stats reports
// them in).
var endpointNames = []string{
	"neighbors", "neighbors_batch", "similarity", "similarity_batch",
	"vocab", "reload", "healthz", "stats", "metrics",
	"upsert", "upsert_batch", "delete", "delete_batch",
	// The /shard/v1/* fan-out API a shard process serves to its router
	// (registered only in shard mode; the counters always exist so the
	// stats key set stays fixed).
	"shard_search", "shard_insert", "shard_delete",
}

type endpointCounters struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // handler returned an error (any class)
	// Status-class split, counted from the status actually written
	// (via statusWriter), so errors a handler renders itself are
	// classified too.
	errors4xx atomic.Uint64
	errors5xx atomic.Uint64
	latency   *telemetry.Histogram
}

// Server is the embedding query server. Build one with New or
// NewFromModel; it is ready to serve as soon as the constructor
// returns and safe for arbitrarily concurrent requests, including
// concurrent hot reloads.
type Server struct {
	cfg        Config
	logger     *log.Logger
	cache      *lruCache
	state      atomic.Pointer[modelState]
	swapMu     sync.Mutex // serialises generation bump + publish
	gen        atomic.Uint64
	reloads    atomic.Uint64
	upserts    atomic.Uint64
	deletes    atomic.Uint64
	compacting atomic.Bool // single-flight guard: one checkpoint at a time
	started    time.Time
	mux        *http.ServeMux
	counters   map[string]*endpointCounters
	stages     map[string]*telemetry.Histogram
	classes    map[string]*classState // admission + inflight per endpoint class
	tracePool  sync.Pool              // *telemetry.Trace, reset between requests
	build      telemetry.Build

	// fleet is the shard processes of a router (Config.Router): their
	// membership, search queues and write RPCs. Nil otherwise.
	fleet *remoteBackend

	// shard is non-nil when this process serves one partition of a
	// sharded deployment (Config.ShardCount > 0); it carries the
	// global-ID mapping the /shard/v1/* fan-out API translates
	// through. See shard.go.
	shard *shardState

	// Durability (nil/zero without Config.WAL; see wal.go).
	wal           *wal.Log
	walSync       wal.SyncPolicy
	walReplayed   atomic.Uint64 // records replayed at startup
	walRecovered  atomic.Bool   // startup repaired a torn tail
	checkpoints   atomic.Uint64
	ckptMu        sync.Mutex    // serialises checkpoint file writes
	ckptLSN       atomic.Uint64 // LSN the newest checkpoint folds in
	lastCkptBytes atomic.Int64  // wal.AppendedBytes at the last checkpoint
}

// New builds a server and loads cfg.ModelPath. When the file is a
// bundle carrying a prebuilt HNSW index graph and the configured
// index kind is HNSW with a matching metric, the graph is bound
// directly instead of being rebuilt (see internal/snapshot and
// docs/INDEXES.md). With Config.WAL set, an existing checkpoint in
// the WAL directory supersedes ModelPath (it is the model plus every
// checkpointed write) and the surviving log is replayed on top.
func New(cfg Config) (*Server, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("server: Config.ModelPath is required (or use NewFromModel)")
	}
	if cfg.Router && cfg.ShardCount > 0 {
		return nil, fmt.Errorf("server: Router and ShardCount are mutually exclusive (a process is a router or a shard, not both)")
	}
	if cfg.Router {
		return newRouter(cfg)
	}
	if cfg.ShardCount > 0 {
		return newShardProcess(cfg)
	}
	load := func() (*word2vec.Model, []string, *vecstore.Sharded, error) {
		return loadServable(cfg, cfg.ModelPath)
	}
	if cfg.WAL.Dir != "" {
		return newDurable(cfg, load)
	}
	m, tokens, prebuilt, err := load()
	if err != nil {
		return nil, fmt.Errorf("server: loading model: %w", err)
	}
	return newFromModel(cfg, m, tokens, prebuilt, cfg.ModelPath)
}

// loadServable loads a model file in any persistence format plus, when
// the file bundles HNSW graphs the configuration can serve, the
// prebuilt coordinator bound to the model's store. The index
// configuration is validated up front so the bind fast path cannot
// accept a config the build path would reject; non-HNSW configurations
// skip decoding the index trailer entirely.
func loadServable(cfg Config, path string) (*word2vec.Model, []string, *vecstore.Sharded, error) {
	if err := cfg.Index.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if cfg.Index.Kind != vecstore.KindHNSW {
		m, tokens, err := snapshot.LoadFile(path)
		return m, tokens, nil, err
	}
	b, err := snapshot.LoadBundle(path)
	if err != nil {
		return nil, nil, nil, err
	}
	sh, err := bindGraphs(b.Model.Store(), b.Shards, cfg.Index)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("binding bundled index: %w", err)
	}
	return b.Model, b.Tokens, sh, nil
}

// bindGraphs binds a bundle's persisted HNSW graphs, one per shard,
// over store when cfg can serve them (vecstore.Bindable). Anything else
// (no graphs, a different partition) returns nil and the caller builds.
func bindGraphs(store *vecstore.Store, graphs []*vecstore.HNSWGraph, cfg vecstore.Config) (*vecstore.Sharded, error) {
	if !vecstore.Bindable(graphs, cfg) {
		return nil, nil
	}
	return vecstore.OpenShardedFromGraphs(store, graphs, cfg)
}

// NewFromModel builds a server around an in-memory model. tokens may
// be nil (rows are named by decimal index, like Model.Save). With
// Config.WAL set, an existing checkpoint in the WAL directory
// supersedes m, and the surviving log is replayed.
func NewFromModel(cfg Config, m *word2vec.Model, tokens []string) (*Server, error) {
	if err := checkFinite(m, tokens); err != nil {
		return nil, err
	}
	if cfg.WAL.Dir != "" {
		return newDurable(cfg, func() (*word2vec.Model, []string, *vecstore.Sharded, error) {
			return m, tokens, nil, nil
		})
	}
	return newFromModel(cfg, m, tokens, nil, cfg.ModelPath)
}

// newShell builds the Server scaffolding every serving mode shares —
// logger, response cache, per-endpoint counters, stage histograms,
// admission classes — with no generation published yet. Callers must
// publish a first modelState and call initMux before serving.
func newShell(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		logger:   cfg.Log,
		started:  time.Now(),
		counters: make(map[string]*endpointCounters, len(endpointNames)),
		stages:   make(map[string]*telemetry.Histogram, len(stageNames)),
		build:    telemetry.BuildInfo(),
	}
	s.tracePool.New = func() any { return new(telemetry.Trace) }
	if s.logger == nil {
		s.logger = log.New(io.Discard, "", 0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSz
	}
	s.cache = newLRUCache(size) // nil (always-miss) when negative
	for _, name := range endpointNames {
		s.counters[name] = &endpointCounters{latency: telemetry.NewHistogram()}
	}
	for _, name := range stageNames {
		s.stages[name] = telemetry.NewHistogram()
	}
	s.initAdmission()
	return s
}

// newFromModel implements NewFromModel, optionally seeding the first
// generation with a prebuilt coordinator; source names where the model
// came from (/stats, the default /v1/reload path).
func newFromModel(cfg Config, m *word2vec.Model, tokens []string, prebuilt *vecstore.Sharded, source string) (*Server, error) {
	s := newShell(cfg)
	if _, err := s.swapModel(m, tokens, source, prebuilt); err != nil {
		return nil, err
	}
	s.initMux()
	return s, nil
}

// maxK returns the configured k cap.
func (s *Server) maxK() int {
	if s.cfg.MaxK > 0 {
		return s.cfg.MaxK
	}
	return defaultMaxK
}

// maxBatch returns the configured batch-size cap.
func (s *Server) maxBatch() int {
	if s.cfg.MaxBatch > 0 {
		return s.cfg.MaxBatch
	}
	return defaultMaxBatch
}

// checkBatch bounds a batch of n items named what.
func (s *Server) checkBatch(n int, what string) error {
	if n == 0 {
		return errBadRequest("empty '%s'", what)
	}
	if max := s.maxBatch(); n > max {
		return errBadRequest("batch of %d exceeds limit %d", n, max)
	}
	return nil
}

// SwapModel atomically replaces the served model: it builds the new
// generation's index and token lookup off to the side, publishes the
// finished state with one pointer store, and purges the response
// cache. Requests racing the swap are answered consistently by
// whichever generation they loaded first. Returns the new generation.
func (s *Server) SwapModel(m *word2vec.Model, tokens []string, source string) (uint64, error) {
	if s.cfg.Router || s.cfg.ShardCount > 0 {
		// One process swapping alone would serve a torn mix of models
		// against the rest of its fleet; restart the deployment instead.
		return 0, fmt.Errorf("server: model swaps are not supported in router/shard mode")
	}
	if err := checkFinite(m, tokens); err != nil {
		return 0, err
	}
	return s.swapModel(m, tokens, source, nil)
}

// checkFinite holds a model handed over in memory to the check every
// loader makes of what it reads.
func checkFinite(m *word2vec.Model, tokens []string) error {
	if m == nil {
		return nil // swapModel names the empty model
	}
	if err := snapshot.CheckFinite(m, tokens); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// swapModel implements SwapModel; prebuilt, when non-nil, is served
// as the new generation's coordinator instead of building one from
// Config.Index (the bundled-graph fast path).
func (s *Server) swapModel(m *word2vec.Model, tokens []string, source string, prebuilt *vecstore.Sharded) (uint64, error) {
	if m == nil || m.Vocab == 0 {
		return 0, fmt.Errorf("server: refusing to serve an empty model")
	}
	if tokens == nil {
		tokens = make([]string, m.Vocab)
		for i := range tokens {
			tokens[i] = strconv.Itoa(i)
		}
	}
	if len(tokens) != m.Vocab {
		return 0, fmt.Errorf("server: %d tokens for %d vectors", len(tokens), m.Vocab)
	}
	store := m.Store()
	// A model whose cached store was grown or tombstoned by online
	// writes can no longer be republished against its own token
	// table: the Vocab-based length check below would pass while the
	// store holds more rows than tokens, and the first query touching
	// an appended row would index past the table. Republish from a
	// fresh snapshot instead.
	if store.Len() != m.Vocab || store.Dead() > 0 {
		return 0, fmt.Errorf("server: model store holds %d rows (%d tombstoned) but the model reports %d vectors — it was mutated by online writes; reload from a snapshot instead of republishing it",
			store.Len(), store.Dead(), m.Vocab)
	}
	// Every generation is a coordinator; Shards < 2 is one shard, which
	// serves the model's store itself rather than a copy.
	sharded := prebuilt
	if prebuilt == nil {
		var err error
		sharded, err = vecstore.OpenSharded(store, s.cfg.Index)
		if err != nil {
			return 0, fmt.Errorf("server: building index: %w", err)
		}
	}
	sharded.SetCompactFraction(s.cfg.compactFraction()) // negative disables
	byToken := make(map[string]int, len(tokens))
	for i, tok := range tokens {
		byToken[tok] = i
	}
	// Copy the token table: writes grow it in place, and the caller's
	// slice must not be mutated behind its back.
	tokens = append([]string(nil), tokens...)
	// The bump and the publish must be one critical section: two
	// concurrent swaps interleaving them could publish generations out
	// of order (serve gen N while reporting gen N+1). Index builds
	// above happen outside the lock; only the publish serialises.
	//
	// Publishing also takes the *outgoing* generation's writer lock
	// (lock order: swapMu, then st.mu): a write that already passed
	// lockCurrent's recheck
	// finishes and is acknowledged before the swap, instead of racing
	// it and landing, already acknowledged, on a generation that is
	// no longer served.
	s.swapMu.Lock()
	old := s.state.Load()
	if old != nil {
		old.mu.Lock()
	}
	gen := s.gen.Add(1)
	// With a WAL attached, a swap must checkpoint the *new* world: the
	// old checkpoint + log now describe a state this server no longer
	// serves, and a crash would restart into it. The outgoing writer
	// lock is held, so no write can be acknowledged here — LastLSN is
	// exactly the cut the new model supersedes. The vectors are copied
	// inside the critical section (post-publish writes mutate the live
	// store) and the file is written after the locks drop.
	var ckptModel *word2vec.Model
	var ckptLSN uint64
	if s.wal != nil {
		ckptModel = &word2vec.Model{Dim: m.Dim, Vocab: m.Vocab,
			Vectors: append([]float32(nil), m.Vectors...)}
		ckptLSN = s.wal.LastLSN()
	}
	s.state.Store(&modelState{
		sharded:  sharded,
		tokens:   tokens,
		byToken:  byToken,
		gen:      gen,
		source:   source,
		loadedAt: time.Now(),
	})
	if old != nil {
		old.mu.Unlock()
	}
	if gen > 1 {
		s.reloads.Add(1)
	}
	s.swapMu.Unlock()
	if old != nil {
		// In-flight reads may still use the retired generation; only
		// its compactions stop, joined here.
		old.sharded.Close()
	}
	if ckptModel != nil {
		// tokens is the copy published above; post-publish writes only
		// append past its length, never mutate the prefix this slice
		// header sees.
		s.writeCheckpoint(ckptModel, tokens, ckptLSN, true, "reload")
	}
	s.cache.purge()
	how := ""
	if prebuilt != nil {
		how = " (prebuilt graph)"
	}
	s.logger.Printf("server: generation %d live: %d vectors, dim %d, %d-shard %s index%s (source %q)",
		gen, m.Vocab, m.Dim, sharded.NumShards(), s.cfg.Index.Kind, how, source)
	return gen, nil
}

// readState loads the current generation and takes its reader lock;
// the returned unlock must be deferred, and is idempotent so handlers
// can also release it early — before writing the response to the
// client — without the deferred call double-unlocking. Queries answer
// entirely from this generation: concurrent writes are excluded and a
// concurrent reload simply leaves this request on the old,
// still-valid world.
func (s *Server) readState() (*modelState, func()) {
	st := s.state.Load()
	st.mu.RLock()
	return st, sync.OnceFunc(st.mu.RUnlock)
}

// writeJSONUnlocked marshals v while the caller still holds its
// generation reader lock (the value may alias locked state such as
// the token table), releases the lock, and only then writes to the
// client: a slow client draining a large response must never hold
// the generation lock and stall writers (and, transitively, every
// other reader queued behind a pending writer).
func writeJSONUnlocked(w http.ResponseWriter, unlock func(), v any) error {
	buf, err := json.Marshal(v)
	unlock()
	if err != nil {
		return err
	}
	writeJSONBytes(w, http.StatusOK, buf)
	return nil
}

// lockCurrent takes the writer lock on the *current* generation,
// retrying if a reload published a newer one between
// the load and the lock — otherwise a write could land on a
// generation that is no longer served and silently vanish.
func (s *Server) lockCurrent() *modelState {
	for {
		st := s.state.Load()
		st.mu.Lock()
		if s.state.Load() == st {
			return st
		}
		st.mu.Unlock()
	}
}

// Reload loads path (empty = the path the current generation came
// from, falling back to Config.ModelPath) and swaps it in under load.
// Not supported in router/shard mode (the fleet must swap together).
func (s *Server) Reload(path string) (uint64, error) {
	if s.cfg.Router || s.cfg.ShardCount > 0 {
		return 0, fmt.Errorf("server: reload is not supported in router/shard mode")
	}
	if path == "" {
		if st := s.state.Load(); st != nil && st.source != "" {
			path = st.source
		} else {
			path = s.cfg.ModelPath
		}
	}
	if path == "" {
		return 0, fmt.Errorf("server: no model path to reload from")
	}
	m, tokens, prebuilt, err := loadServable(s.cfg, path)
	if err != nil {
		return 0, fmt.Errorf("server: reload: %w", err)
	}
	return s.swapModel(m, tokens, path, prebuilt)
}

// Generation returns the current model generation (1 = initial load).
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 5 seconds to finish)
// and closes the write-ahead log.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- hs.Shutdown(shCtx)
	}()
	err := hs.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		s.Close()
		return err
	}
	err = <-done
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ListenAndServe listens on Config.Addr and calls Serve. ready, when
// non-nil, receives the bound address once listening (useful with
// ":0").
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- net.Addr) error {
	addr := s.cfg.Addr
	if addr == "" {
		addr = defaultAddr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logger.Printf("server: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// ---- HTTP plumbing -------------------------------------------------

func (s *Server) initMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	if s.cfg.Pprof {
		// The default pprof handlers register on http.DefaultServeMux;
		// mount them on this server's mux explicitly so they exist only
		// when opted in.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("/v1/neighbors", s.instrument("neighbors", s.handleNeighbors))
	s.mux.HandleFunc("/v1/neighbors/batch", s.instrument("neighbors_batch", s.handleNeighborsBatch))
	s.mux.HandleFunc("/v1/similarity", s.instrument("similarity", s.handleSimilarity))
	s.mux.HandleFunc("/v1/similarity/batch", s.instrument("similarity_batch", s.handleSimilarityBatch))
	s.mux.HandleFunc("/v1/vocab", s.instrument("vocab", s.handleVocab))
	s.mux.HandleFunc("/v1/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("/v1/upsert", s.instrument("upsert", s.writable(s.handleUpsert)))
	s.mux.HandleFunc("/v1/upsert/batch", s.instrument("upsert_batch", s.writable(s.handleUpsertBatch)))
	s.mux.HandleFunc("/v1/delete", s.instrument("delete", s.writable(s.handleDelete)))
	s.mux.HandleFunc("/v1/delete/batch", s.instrument("delete_batch", s.writable(s.handleDeleteBatch)))
}

// httpError carries a status code through the handler return path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *httpError {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// instrument wraps a handler with the full request telemetry and the
// admission layer: request/error counting (errors split by status
// class via a wrapping statusWriter), a latency histogram
// observation, a pooled per-request trace threaded through the
// request context for stage spans, the per-class inflight gauge,
// admission control (429 + Retry-After when the class's concurrency
// budget and wait queue are both full; the time spent parked in the
// queue lands in the "queue_wait" stage), the per-class deadline
// (the request context expires and the handler answers 503 at its
// next stage boundary), and the slow-query log — which also records
// every deadline-expired request, so the partial stage trace showing
// where the budget went is never lost.
func (s *Server) instrument(name string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	c := s.counters[name]
	cs := s.classes[endpointClass(name)]
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		cs.inflight.Add(1)
		defer cs.inflight.Add(-1)
		tr := s.tracePool.Get().(*telemetry.Trace)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		ctx := telemetry.NewContext(r.Context(), tr)
		if cs.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cs.deadline)
			defer cancel()
		}
		err := func() error {
			if cs.adm != nil {
				t0 := time.Now()
				aerr := cs.adm.acquire(ctx)
				spanSince(tr, "queue_wait", t0)
				if aerr != nil {
					return aerr
				}
				defer cs.adm.release()
			}
			return h(sw, r.WithContext(ctx))
		}()
		if err != nil {
			c.errors.Add(1)
			code := http.StatusInternalServerError
			var he *httpError
			if errors.As(err, &he) {
				code = he.code
			}
			if code == http.StatusTooManyRequests {
				sw.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			}
			if err == errDeadlineExpired {
				cs.expired.Add(1)
			}
			writeJSON(sw, code, map[string]string{"error": err.Error()})
		}
		elapsed := time.Since(start)
		c.latency.Observe(elapsed)
		status := sw.status()
		switch {
		case status >= 500:
			c.errors5xx.Add(1)
		case status >= 400:
			c.errors4xx.Add(1)
		}
		s.observeSpans(tr)
		if th := s.slowThreshold(); th > 0 && (elapsed >= th || err == errDeadlineExpired) {
			s.logSlow(name, status, elapsed, tr)
		}
		tr.Reset()
		s.tracePool.Put(tr)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, code, buf)
}

func writeJSONBytes(w http.ResponseWriter, code int, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(code)
	w.Write(buf)
}

// param reads a request parameter from the URL query (GET) or a
// previously-decoded JSON body (see bodyParams).
func param(r *http.Request, body map[string]any, key string) (string, bool) {
	if v := r.URL.Query().Get(key); v != "" {
		return v, true
	}
	if body != nil {
		switch v := body[key].(type) {
		case string:
			return v, true
		case float64:
			return strconv.FormatFloat(v, 'g', -1, 64), true
		case bool:
			return strconv.FormatBool(v), true
		}
	}
	return "", false
}

// bodyParams decodes a JSON object body on POST; GET returns nil.
func bodyParams(r *http.Request) (map[string]any, error) {
	switch r.Method {
	case http.MethodGet:
		return nil, nil
	case http.MethodPost:
		if r.ContentLength == 0 {
			return nil, nil
		}
		var m map[string]any
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&m); err != nil {
			return nil, errBadRequest("invalid JSON body: %v", err)
		}
		return m, nil
	default:
		return nil, &httpError{code: http.StatusMethodNotAllowed, msg: "use GET or POST"}
	}
}

// decodePost decodes a JSON body into v, rejecting non-POST methods
// (the batch and reload endpoints).
func decodePost(r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return &httpError{code: http.StatusMethodNotAllowed, msg: "use POST"}
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return errBadRequest("invalid JSON body: %v", err)
	}
	return nil
}

// resolve maps a vertex token to its row in st, with a typed 404.
func (st *modelState) resolve(tok string) (int, error) {
	id, ok := st.byToken[tok]
	if !ok {
		return 0, errNotFound("unknown vertex %q", tok)
	}
	return id, nil
}

func (s *Server) parseK(r *http.Request, body map[string]any) (int, error) {
	raw, ok := param(r, body, "k")
	if !ok {
		return 10, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, errBadRequest("invalid k %q", raw)
	}
	if max := s.maxK(); k > max {
		return 0, errBadRequest("k %d exceeds limit %d", k, max)
	}
	return k, nil
}

// ---- Response shapes ----------------------------------------------

// NeighborJSON is one similarity hit.
type NeighborJSON struct {
	Vertex string  `json:"vertex"`
	Score  float64 `json:"score"`
}

// NeighborsResponse answers /v1/neighbors.
type NeighborsResponse struct {
	Vertex    string         `json:"vertex,omitempty"`
	K         int            `json:"k"`
	Neighbors []NeighborJSON `json:"neighbors"`
	// Partial is true only when a router running with -allow-partial
	// skipped unhealthy shards: the neighbors above cover
	// ShardsAnswered of the fleet's shards, not all of them. Complete
	// answers omit both fields, so healthy-path responses are
	// byte-identical to a non-router server's.
	Partial        bool `json:"partial,omitempty"`
	ShardsAnswered int  `json:"shards_answered,omitempty"`
}

// SimilarityResponse answers /v1/similarity.
type SimilarityResponse struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Similarity float64 `json:"similarity"`
}

func toNeighborJSON(st *modelState, res []vecstore.Result) []NeighborJSON {
	out := make([]NeighborJSON, len(res))
	for i, r := range res {
		out[i] = NeighborJSON{Vertex: st.tokens[r.ID], Score: r.Score}
	}
	return out
}

// ---- Handlers ------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	st, unlock := s.readState()
	defer unlock()
	resp := map[string]any{
		"status":     "ok",
		"generation": st.gen,
		"epoch":      st.epoch.Load(),
		"vectors":    st.sharded.Live(),
		"dim":        st.sharded.Dim(),
		"shards":     st.sharded.NumShards(),
		"build":      s.build,
	}
	// A shard process identifies its slice here: the router's health
	// probe parses this block to verify it is talking to the shard it
	// thinks it is (and to cache per-shard occupancy for /stats).
	if info := s.shardInfo(); info != nil {
		resp["shard"] = info
	}
	return writeJSONUnlocked(w, unlock, resp)
}

// StatsResponse answers /stats.
type StatsResponse struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Build         telemetry.Build      `json:"build"`
	Generation    uint64               `json:"generation"`
	Reloads       uint64               `json:"reloads"`
	Model         ModelStats           `json:"model"`
	Writes        WriteStats           `json:"writes"`
	Shards        []vecstore.ShardStat `json:"shards,omitempty"`
	// Shards is the per-shard occupancy block, in shard order: one
	// entry for an unsharded server. A router reports the shard
	// processes' probed Shard blocks here, which count differently
	// (docs/OBSERVABILITY.md).
	//
	// Backends reports per-shard membership health — present only in
	// router mode, where shards are remote processes that can fail
	// independently (in-process shards are trivially healthy).
	Backends []backendHealth `json:"backends,omitempty"`
	// Shard identifies this process's slice of a sharded deployment —
	// present only in shard mode.
	Shard     *ShardInfo                     `json:"shard,omitempty"`
	WAL       WALStats                       `json:"wal"`
	Cache     CacheStats                     `json:"cache"`
	Admission map[string]AdmissionClassStats `json:"admission"`
	Endpoints map[string]EndpointStatsJSON   `json:"endpoints"`
}

// WriteStats reports the online-write state of the serving stack.
type WriteStats struct {
	ReadOnly    bool   `json:"read_only"`
	Upserts     uint64 `json:"upserts"`
	Deletes     uint64 `json:"deletes"`
	Compactions uint64 `json:"compactions"`
	Epoch       uint64 `json:"epoch"`
	Tombstones  int    `json:"tombstones"`
}

// ModelStats describes the served model.
type ModelStats struct {
	Vectors  int    `json:"vectors"`
	Dim      int    `json:"dim"`
	Index    string `json:"index"`
	Source   string `json:"source,omitempty"`
	LoadedAt string `json:"loaded_at"`
}

// CacheStats reports response-cache effectiveness.
type CacheStats struct {
	Enabled  bool   `json:"enabled"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// EndpointStatsJSON reports per-endpoint traffic and latency. The
// percentiles come from the endpoint's HDR histogram (worst-case
// ~0.8% relative error, see internal/telemetry) over every request
// since startup.
type EndpointStatsJSON struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	Errors4xx uint64  `json:"errors_4xx,omitempty"`
	Errors5xx uint64  `json:"errors_5xx,omitempty"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	P999Ms    float64 `json:"p999_ms"`
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// shardStats is the per-shard occupancy block of /stats and /metrics,
// in shard order: a router's comes from its shards' probes.
func (s *Server) shardStats(st *modelState) []vecstore.ShardStat {
	if s.fleet != nil {
		return s.fleet.ShardStats()
	}
	return st.sharded.ShardStats()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	st, unlock := s.readState()
	defer unlock()
	eps := make(map[string]EndpointStatsJSON, len(s.counters))
	for name, c := range s.counters {
		snap := c.latency.Snapshot()
		eps[name] = EndpointStatsJSON{
			Requests:  c.requests.Load(),
			Errors:    c.errors.Load(),
			Errors4xx: c.errors4xx.Load(),
			Errors5xx: c.errors5xx.Load(),
			P50Ms:     snap.QuantileMs(0.5),
			P95Ms:     snap.QuantileMs(0.95),
			P99Ms:     snap.QuantileMs(0.99),
			P999Ms:    snap.QuantileMs(0.999),
			MeanMs:    snap.MeanMs(),
			MaxMs:     snap.MaxMs(),
		}
	}
	// Shards compact on their own side of the boundary; the server-wide
	// counter is their sum.
	shardStats := s.shardStats(st)
	var compactions uint64
	for _, ss := range shardStats {
		compactions += ss.Compactions
	}
	return writeJSONUnlocked(w, unlock, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         s.build,
		Generation:    st.gen,
		Reloads:       s.reloads.Load(),
		Model: ModelStats{
			Vectors:  st.sharded.Live(),
			Dim:      st.sharded.Dim(),
			Index:    s.cfg.Index.Kind.String(),
			Source:   st.source,
			LoadedAt: st.loadedAt.UTC().Format(time.RFC3339),
		},
		Writes: WriteStats{
			ReadOnly:    s.cfg.ReadOnly,
			Upserts:     s.upserts.Load(),
			Deletes:     s.deletes.Load(),
			Compactions: compactions,
			Epoch:       st.epoch.Load(),
			Tombstones:  st.sharded.Dead(),
		},
		Shards:    shardStats,
		Backends:  s.fleet.Health(),
		Shard:     s.shardInfo(),
		WAL:       s.walStats(),
		Admission: s.admissionStats(),
		Cache: CacheStats{
			Enabled:  s.cache != nil,
			Entries:  s.cache.len(),
			Capacity: s.cache.capacity(),
			Hits:     s.cache.hitCount(),
			Misses:   s.cache.missCount(),
		},
		Endpoints: eps,
	})
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) error {
	tr := telemetry.FromContext(r.Context())
	t := time.Now()
	body, err := bodyParams(r)
	if err != nil {
		return err
	}
	tok, ok := param(r, body, "vertex")
	if !ok {
		return errBadRequest("missing parameter 'vertex'")
	}
	k, err := s.parseK(r, body)
	if err != nil {
		return err
	}
	t = spanSince(tr, "parse", t)
	return s.serveNeighbors(w, r, t, []string{tok}, k, func(parts [][]byte) []byte { return parts[0] })
}

// NeighborsBatchRequest is the /v1/neighbors/batch body.
type NeighborsBatchRequest struct {
	Vertices []string `json:"vertices"`
	K        int      `json:"k"`
}

// NeighborsBatchResponse answers /v1/neighbors/batch.
type NeighborsBatchResponse struct {
	Results []NeighborsResponse `json:"results"`
}

func (s *Server) handleNeighborsBatch(w http.ResponseWriter, r *http.Request) error {
	tr := telemetry.FromContext(r.Context())
	t := time.Now()
	var req NeighborsBatchRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if err := s.checkBatch(len(req.Vertices), "vertices"); err != nil {
		return err
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 0 || k > s.maxK() {
		return errBadRequest("invalid k %d", k)
	}
	t = spanSince(tr, "parse", t)
	return s.serveNeighbors(w, r, t, req.Vertices, k, func(parts [][]byte) []byte {
		return append(append([]byte(`{"results":[`), bytes.Join(parts, []byte{','})...), `]}`...)
	})
}

// searchRows is the generation's neighbours search
// (vecstore.Sharded.SearchRowsPartial), with the end of ctx reported as
// errDeadlineExpired; a shard's own failure is an *httpError already.
func (st *modelState) searchRows(ctx context.Context, ids []int, k int, rec vecstore.SpanRecorder) ([][]vecstore.Result, int, error) {
	res, answered, err := st.sharded.SearchRowsPartial(ctx, ids, k, rec)
	if err != nil && ctx.Err() != nil {
		return nil, 0, errDeadlineExpired
	}
	return res, answered, err
}

// serveNeighbors answers the top k of every vertex — /v1/neighbors is
// a batch of one — from the generation acquired after parsing (t) and
// writes the body render builds from the per-vertex answers. Each
// answer is the single query's body under the single query's cache
// key: hits are spliced in as already-serialized JSON, and the misses
// cross the shard boundary once, in one SearchRows call.
func (s *Server) serveNeighbors(w http.ResponseWriter, r *http.Request, t time.Time, vertices []string, k int, render func(parts [][]byte) []byte) error {
	tr := telemetry.FromContext(r.Context())
	st, unlock := s.readState()
	defer unlock()
	t = spanSince(tr, "gen_acquire", t)
	epoch := st.epoch.Load()
	parts := make([][]byte, len(vertices))
	keys := make([]string, len(vertices))
	var missIdx, missIDs []int
	for i, tok := range vertices {
		id, err := st.resolve(tok)
		if err != nil {
			return err
		}
		keys[i] = cacheKey(st.gen, epoch, k, tok)
		if buf, ok := s.cache.get(keys[i]); ok {
			parts[i] = buf
			continue
		}
		missIdx = append(missIdx, i)
		missIDs = append(missIDs, id)
	}
	t = spanSince(tr, "cache_lookup", t)
	if len(missIDs) > 0 {
		if err := ctxExpired(r.Context()); err != nil {
			return err
		}
		// The shard boundary: fan out through every shard's seam (in
		// process, a goroutine or the caller's own; in router mode each
		// shard's search queue, whose calls concurrent queries share). A
		// ctx-aware fan-out abandons slow shards on expiry — they finish
		// on their own, or are cancelled once no query waits on them,
		// and their results are discarded, so the 503 goes out
		// immediately. The deferred (idempotent) unlock releases this
		// generation's reader lock as usual — shard searches never touch
		// it.
		res, answered, err := st.searchRows(r.Context(), missIDs, k, traceRecorder(tr))
		if err != nil {
			return err
		}
		// A partial answer reflects a degraded fleet, not the data: it
		// says so, and it is not cached.
		partial, shardsAnswered := answered < st.sharded.NumShards(), 0
		if partial {
			shardsAnswered = answered
		}
		t = spanSince(tr, "index_search", t)
		// Post-search boundary: a search that ran past the budget must
		// not be dressed up as success — the client has likely already
		// given up on this response.
		if err := ctxExpired(r.Context()); err != nil {
			return err
		}
		for j, i := range missIdx {
			buf, err := json.Marshal(NeighborsResponse{Vertex: vertices[i], K: k, Neighbors: toNeighborJSON(st, res[j]),
				Partial: partial, ShardsAnswered: shardsAnswered})
			if err != nil {
				return err
			}
			if !partial {
				s.cache.put(keys[i], buf)
			}
			parts[i] = buf
		}
	}
	buf := render(parts)
	t = spanSince(tr, "encode", t)
	unlock()
	writeJSONBytes(w, http.StatusOK, buf)
	spanSince(tr, "write", t)
	return nil
}

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) error {
	tr := telemetry.FromContext(r.Context())
	t := time.Now()
	body, err := bodyParams(r)
	if err != nil {
		return err
	}
	aTok, okA := param(r, body, "a")
	bTok, okB := param(r, body, "b")
	if !okA || !okB {
		return errBadRequest("missing parameter 'a' or 'b'")
	}
	t = spanSince(tr, "parse", t)
	return s.servePairs(w, r, t, [][2]string{{aTok, bTok}}, func(scores []float64) any {
		return SimilarityResponse{A: aTok, B: bTok, Similarity: scores[0]}
	})
}

// SimilarityBatchRequest is the /v1/similarity/batch body.
type SimilarityBatchRequest struct {
	Pairs [][2]string `json:"pairs"`
}

// SimilarityBatchResponse answers /v1/similarity/batch.
type SimilarityBatchResponse struct {
	Results []SimilarityResponse `json:"results"`
}

func (s *Server) handleSimilarityBatch(w http.ResponseWriter, r *http.Request) error {
	tr := telemetry.FromContext(r.Context())
	t := time.Now()
	var req SimilarityBatchRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if err := s.checkBatch(len(req.Pairs), "pairs"); err != nil {
		return err
	}
	t = spanSince(tr, "parse", t)
	return s.servePairs(w, r, t, req.Pairs, func(scores []float64) any {
		out := SimilarityBatchResponse{Results: make([]SimilarityResponse, len(scores))}
		for i, p := range req.Pairs {
			out.Results[i] = SimilarityResponse{A: p[0], B: p[1], Similarity: scores[i]}
		}
		return out
	})
}

// servePairs scores every pair by cosine (0 when either row is the
// zero vector) — /v1/similarity is a batch of one — from the
// generation acquired after parsing (t), and writes the body render
// builds from the scores. Pairs resolve in order, so the first unknown
// vertex is the 404; on a router, a pair whose row's owner shard is
// down is the 503 next (ownersUp).
func (s *Server) servePairs(w http.ResponseWriter, r *http.Request, t time.Time, pairs [][2]string, render func(scores []float64) any) error {
	tr := telemetry.FromContext(r.Context())
	st, unlock := s.readState()
	defer unlock()
	t = spanSince(tr, "gen_acquire", t)
	ids := make([][2]int, len(pairs))
	for i, p := range pairs {
		for j, tok := range p {
			id, err := st.resolve(tok)
			if err != nil {
				return err
			}
			ids[i][j] = id
		}
	}
	for _, p := range ids {
		if err := s.fleet.ownersUp(p); err != nil {
			return err
		}
	}
	scores := make([]float64, len(ids))
	for i, p := range ids {
		scores[i] = st.sharded.Cosine(p[0], p[1])
	}
	t = spanSince(tr, "index_search", t)
	buf, err := json.Marshal(render(scores))
	unlock()
	if err != nil {
		return err
	}
	t = spanSince(tr, "encode", t)
	writeJSONBytes(w, http.StatusOK, buf)
	spanSince(tr, "write", t)
	return nil
}

// VocabResponse answers /v1/vocab.
type VocabResponse struct {
	Count  int      `json:"count"`
	Offset int      `json:"offset"`
	Tokens []string `json:"tokens"`
}

func (s *Server) handleVocab(w http.ResponseWriter, r *http.Request) error {
	st, unlock := s.readState()
	defer unlock()
	q := r.URL.Query()
	live := st.sharded.Live()
	offset, limit := 0, live
	if raw := q.Get("offset"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return errBadRequest("invalid offset %q", raw)
		}
		offset = v
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return errBadRequest("invalid limit %q", raw)
		}
		limit = v
	}
	if offset > live {
		offset = live
	}
	if rem := live - offset; limit > rem {
		limit = rem
	}
	// Dead rows — tombstoned, or since reclaimed by a compaction — keep
	// their token slot in the table but are no longer vocabulary:
	// offset and limit page over the live tokens
	// only, stopping as soon as the page is full (no O(vocab) work
	// for a small page).
	var tokens []string
	if st.sharded.Rows() == live {
		tokens = st.tokens[offset : offset+limit]
	} else {
		tokens = make([]string, 0, limit)
		skipped := 0
		for i, tok := range st.tokens {
			if st.sharded.Deleted(i) {
				continue
			}
			if skipped < offset {
				skipped++
				continue
			}
			if len(tokens) == limit {
				break
			}
			tokens = append(tokens, tok)
		}
	}
	return writeJSONUnlocked(w, unlock, VocabResponse{
		Count:  live,
		Offset: offset,
		Tokens: tokens,
	})
}

// ReloadRequest is the /v1/reload body.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse answers /v1/reload.
type ReloadResponse struct {
	Generation uint64  `json:"generation"`
	Vectors    int     `json:"vectors"`
	Dim        int     `json:"dim"`
	Source     string  `json:"source"`
	LoadMillis float64 `json:"load_ms"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.Router || s.cfg.ShardCount > 0 {
		// A hot reload must swap the whole fleet's world atomically;
		// one process reloading alone would serve a torn mix of models.
		// Restart the deployment together instead.
		return &httpError{code: http.StatusNotImplemented, msg: "reload is not supported in router/shard mode; restart the deployment with the new bundle"}
	}
	var req ReloadRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	start := time.Now()
	gen, err := s.Reload(req.Path)
	if err != nil {
		return errBadRequest("%v", err)
	}
	st, unlock := s.readState()
	defer unlock()
	return writeJSONUnlocked(w, unlock, ReloadResponse{
		Generation: gen,
		Vectors:    st.sharded.Live(),
		Dim:        st.sharded.Dim(),
		Source:     st.source,
		LoadMillis: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// ---- Write endpoints -----------------------------------------------

// UpsertRequest is the /v1/upsert body (and one /v1/upsert/batch
// item): a vertex token and its vector, which must match the served
// model's dimensionality.
type UpsertRequest struct {
	Vertex string    `json:"vertex"`
	Vector []float32 `json:"vector"`
}

// UpsertResponse answers /v1/upsert.
type UpsertResponse struct {
	Vertex string `json:"vertex"`
	ID     int    `json:"id"`
	// Updated is true when the vertex existed and its vector was
	// replaced (the old row is tombstoned, the new one indexed).
	Updated    bool   `json:"updated"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
}

// UpsertBatchRequest is the /v1/upsert/batch body.
type UpsertBatchRequest struct {
	Items []UpsertRequest `json:"items"`
}

// UpsertBatchResponse answers /v1/upsert/batch.
type UpsertBatchResponse struct {
	Results []UpsertResponse `json:"results"`
}

// DeleteRequest is the /v1/delete body (and one /v1/delete/batch
// item's shape; the batch takes a bare token list).
type DeleteRequest struct {
	Vertex string `json:"vertex"`
}

// DeleteResponse answers /v1/delete.
type DeleteResponse struct {
	Vertex     string `json:"vertex"`
	Deleted    bool   `json:"deleted"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
}

// DeleteBatchRequest is the /v1/delete/batch body.
type DeleteBatchRequest struct {
	Vertices []string `json:"vertices"`
}

// DeleteBatchResponse answers /v1/delete/batch.
type DeleteBatchResponse struct {
	Results []DeleteResponse `json:"results"`
}

// errReadOnly is the write-endpoint answer on a read-only server.
var errReadOnly = &httpError{code: http.StatusForbidden, msg: "server is read-only (started without write support)"}

// validateUpsert checks one upsert record against the current store
// shape before any mutation is applied.
func validateUpsert(st *modelState, rec *wal.Record) error {
	if rec.Token == "" {
		return errBadRequest("missing 'vertex'")
	}
	for _, r := range rec.Token {
		if r < 0x20 || r == 0x7f {
			return errBadRequest("vertex name contains control characters")
		}
	}
	if dim := st.sharded.Dim(); len(rec.Vector) != dim {
		return errBadRequest("vector for %q has dimension %d, model dimension is %d",
			rec.Token, len(rec.Vector), dim)
	}
	for _, x := range rec.Vector {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return errBadRequest("vector for %q contains NaN/Inf", rec.Token)
		}
	}
	return nil
}

// applyUpsert performs one validated upsert under st's writer lock:
// an existing vertex's row is tombstoned and the new vector is
// appended and indexed (in-place overwrites would silently corrupt
// HNSW structure; tombstone-and-reinsert keeps every index
// coherent). The token table grows in step with the rows so row IDs
// and token slots stay aligned. The context bounds remote shard RPCs
// in router mode; in-process shards ignore it.
func (s *Server) applyUpsert(ctx context.Context, st *modelState, rec *wal.Record) (UpsertResponse, error) {
	updated := false
	if old, ok := st.byToken[rec.Token]; ok {
		if err := s.deleteRow(ctx, st, old); err != nil {
			return UpsertResponse{}, fmt.Errorf("replacing %q: %w", rec.Token, err)
		}
		updated = true
	}
	id, err := s.insertRow(ctx, st, rec.Token, rec.Vector)
	if err != nil {
		return UpsertResponse{}, err
	}
	st.tokens = append(st.tokens, rec.Token)
	st.byToken[rec.Token] = id
	s.upserts.Add(1)
	return UpsertResponse{
		Vertex:     rec.Token,
		ID:         id,
		Updated:    updated,
		Generation: st.gen,
		Epoch:      st.epoch.Add(1),
	}, nil
}

// insertRow appends v as the generation's next row, under its writer
// lock, and deleteRow tombstones row id; on a router the row's owner
// shard takes the write first (remoteBackend.write).
func (s *Server) insertRow(ctx context.Context, st *modelState, token string, v []float32) (int, error) {
	if s.fleet != nil {
		id := st.sharded.Rows()
		req := shardInsertRequest{ID: id, Token: token, Vector: packVec(v)}
		if err := s.fleet.write(ctx, id, "/shard/v1/insert", req, &shardInsertResponse{}); err != nil {
			return 0, err
		}
	}
	return st.sharded.Insert(v)
}

func (s *Server) deleteRow(ctx context.Context, st *modelState, id int) error {
	if s.fleet != nil {
		if err := s.fleet.write(ctx, id, "/shard/v1/delete", shardDeleteRequest{ID: id}, &shardDeleteResponse{}); err != nil {
			return err
		}
	}
	return st.sharded.Delete(id)
}

// applyDelete performs one delete under st's writer lock.
func (s *Server) applyDelete(ctx context.Context, st *modelState, rec *wal.Record) (DeleteResponse, error) {
	id, ok := st.byToken[rec.Token]
	if !ok {
		return DeleteResponse{}, errNotFound("unknown vertex %q", rec.Token)
	}
	if err := s.deleteRow(ctx, st, id); err != nil {
		return DeleteResponse{}, err
	}
	delete(st.byToken, rec.Token)
	s.deletes.Add(1)
	return DeleteResponse{
		Vertex:     rec.Token,
		Deleted:    true,
		Generation: st.gen,
		Epoch:      st.epoch.Add(1),
	}, nil
}

// writable gates a write endpoint: 403 on a read-only server, before
// the body is read.
func (s *Server) writable(h func(w http.ResponseWriter, r *http.Request) error) func(w http.ResponseWriter, r *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		if s.cfg.ReadOnly {
			return errReadOnly
		}
		return h(w, r)
	}
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) error {
	t := time.Now()
	var req UpsertRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	return s.upsertItems(w, r, t, []UpsertRequest{req}, func(out []UpsertResponse) any { return out[0] })
}

func (s *Server) handleUpsertBatch(w http.ResponseWriter, r *http.Request) error {
	t := time.Now()
	var req UpsertBatchRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if err := s.checkBatch(len(req.Items), "items"); err != nil {
		return err
	}
	return s.upsertItems(w, r, t, req.Items, func(out []UpsertResponse) any { return UpsertBatchResponse{Results: out} })
}

// upsertItems writes items through serveWrite: every item is validated
// against the store's shape before any is logged or applied.
func (s *Server) upsertItems(w http.ResponseWriter, r *http.Request, t time.Time, items []UpsertRequest, render func([]UpsertResponse) any) error {
	recs := make([]wal.Record, len(items))
	for i, it := range items {
		recs[i] = wal.Record{Op: wal.OpUpsert, Token: it.Vertex, Vector: it.Vector}
	}
	spanSince(telemetry.FromContext(r.Context()), "parse", t)
	return serveWrite(s, w, r, recs, func(st *modelState) error {
		for i := range recs {
			if err := validateUpsert(st, &recs[i]); err != nil {
				return err
			}
		}
		return nil
	}, s.applyUpsert, render)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	t := time.Now()
	var req DeleteRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if req.Vertex == "" {
		return errBadRequest("missing 'vertex'")
	}
	return s.deleteVertices(w, r, t, []string{req.Vertex}, func(out []DeleteResponse) any { return out[0] })
}

func (s *Server) handleDeleteBatch(w http.ResponseWriter, r *http.Request) error {
	t := time.Now()
	var req DeleteBatchRequest
	if err := decodePost(r, &req); err != nil {
		return err
	}
	if err := s.checkBatch(len(req.Vertices), "vertices"); err != nil {
		return err
	}
	return s.deleteVertices(w, r, t, req.Vertices, func(out []DeleteResponse) any { return DeleteBatchResponse{Results: out} })
}

// deleteVertices writes vertices' tombstones through serveWrite. Every
// vertex must exist — resolved before logging, so a 404 burns no log
// record — and appear only once: a duplicate would pass the pre-check,
// delete on its first occurrence and 404 on its second, leaving the
// batch half-applied.
func (s *Server) deleteVertices(w http.ResponseWriter, r *http.Request, t time.Time, vertices []string, render func([]DeleteResponse) any) error {
	recs := make([]wal.Record, len(vertices))
	for i, tok := range vertices {
		recs[i] = wal.Record{Op: wal.OpDelete, Token: tok}
	}
	spanSince(telemetry.FromContext(r.Context()), "parse", t)
	return serveWrite(s, w, r, recs, func(st *modelState) error {
		seen := make(map[string]bool, len(vertices))
		for _, tok := range vertices {
			if _, ok := st.byToken[tok]; !ok {
				return errNotFound("unknown vertex %q", tok)
			}
			if seen[tok] {
				return errBadRequest("vertex %q appears twice in the batch", tok)
			}
			seen[tok] = true
		}
		return nil
	}, s.applyDelete, render)
}

// serveWrite is the one write path — a single write is a batch of one:
// under the current generation's writer lock it checks the deadline,
// validates every record, logs them as one WAL frame and applies them;
// after the unlock it waits for the frame to be durable, checkpoints
// if the log has grown enough, and writes the body render builds from
// the per-record results. The frame is the atomicity unit — replay
// applies it all-or-nothing, matching the in-memory semantics — and
// one record is exactly the frame a single write always logged.
func serveWrite[R any](s *Server, w http.ResponseWriter, r *http.Request, recs []wal.Record,
	validate func(st *modelState) error,
	apply func(ctx context.Context, st *modelState, rec *wal.Record) (R, error),
	render func([]R) any) error {
	tr := telemetry.FromContext(r.Context())
	t := time.Now()
	st := s.lockCurrent()
	t = spanSince(tr, "gen_acquire", t)
	var lsn uint64
	out, err := func() ([]R, error) {
		defer st.mu.Unlock()
		// An expired deadline aborts before the append: nothing is
		// logged or applied, so the 503 is a clean rejection.
		if err := ctxExpired(r.Context()); err != nil {
			return nil, err
		}
		if err := validate(st); err != nil {
			return nil, err
		}
		// Log before apply: if the append fails the store is untouched
		// and the client gets a 500, never an un-replayable ack. Only
		// the frame write happens under the lock — the fsync wait comes
		// after the unlock, so concurrent writes share one fsync.
		t0 := time.Now()
		var err error
		if lsn, err = s.walAppendNoSync(recs...); err != nil {
			return nil, err
		}
		t0 = spanSince(tr, "wal_append", t0)
		out := make([]R, len(recs))
		for i := range recs {
			if out[i], err = apply(r.Context(), st, &recs[i]); err != nil {
				return nil, err
			}
		}
		spanSince(tr, "apply", t0)
		return out, nil
	}()
	if err != nil {
		return err
	}
	t = time.Now()
	if err := s.walWaitDurableCtx(r.Context(), lsn); err != nil {
		return err
	}
	t = spanSince(tr, "wal_fsync", t)
	s.maybeCheckpoint(st)
	writeJSON(w, http.StatusOK, render(out))
	spanSince(tr, "write", t)
	return nil
}

// cacheKey builds the (generation, write-epoch)-scoped cache key of a
// neighbours answer: a hot reload changes gen, an upsert/delete bumps
// epoch, and either makes every older key unreachable — cached answers
// can never outlive the data they were computed from.
func cacheKey(gen, epoch uint64, k int, vertex string) string {
	return strconv.FormatUint(gen, 36) + "." + strconv.FormatUint(epoch, 36) +
		"." + strconv.Itoa(k) + "\x00" + vertex
}
