package vecstore

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded is a scatter-gather coordinator over N hash-partitioned
// shards, each owning a private Store, MutableIndex and write lock.
// It is the one shape the serving tier holds vectors in: an unsharded
// server is N = 1, whose shard serves the base store itself and whose
// queries skip the fan-out (see fanOut).
// Rows are routed to shards by a stable hash of their global ID, so
// the partition depends only on (row count, shard count) — never on
// insertion timing — and a rebuilt or replayed store lands every row
// in the same shard.
//
// What sharding buys, structurally rather than by luck:
//
//   - Build: OpenSharded constructs the N per-shard indexes
//     concurrently, cutting wall-clock build time by up to the number
//     of cores (each shard indexes ~1/N of the rows).
//   - Writes: Insert and Delete lock only the owning shard after a
//     short coordinator critical section, so writers on different
//     shards run concurrently instead of serialising behind one
//     index-wide writer lock.
//   - Compaction: a tombstone-threshold rebuild swaps one shard —
//     1/N of the data — while the other shards keep answering and
//     accepting writes at full speed.
//
// Queries fan out to every shard in parallel and merge the per-shard
// top-k with the same (score descending, ID ascending) ordering every
// index uses. For the exact kind the merged results are bit-identical
// to an unsharded Exact over the same rows: per-row scores do not
// depend on which store holds the row (float64 accumulation is per
// row), and local IDs within a shard are assigned in ascending global
// order — at build, on insert, and across compaction — so per-shard
// tie-breaking toward smaller local IDs agrees with global
// tie-breaking. TestShardedExactParity pins this.
//
// Global IDs are stable for the lifetime of the coordinator: a
// per-shard compaction renumbers only shard-local slots and rewrites
// the coordinator's location table, so callers' IDs (e.g. a serving
// token table indexed by row ID) never move. The price is that Rows()
// keeps counting compacted-away rows; their IDs are never reused.
type Sharded struct {
	metric Metric
	kind   Kind
	dim    int

	// perShard is the configuration each shard's index is built with
	// (Shards cleared, Workers divided; the seed is decorrelated per
	// shard).
	perShard Config

	// compactFraction, when > 0, triggers a background rebuild of a
	// shard whose store passes the tombstone threshold. See
	// SetCompactFraction.
	compactFraction float64

	// mu guards locs and every shard's nextLocal. Lock order:
	// coordinator mu strictly before any shard mu; writers hand off
	// (acquire the shard lock before releasing mu) so shard-local
	// insertion order matches global ID order.
	mu     sync.RWMutex
	locs   []shardLoc
	shards []*vshard
}

// shardLoc locates a global row: which shard holds it and at which
// local slot. local == -1 marks a row that was tombstoned and then
// compacted away — its vector no longer exists anywhere.
type shardLoc struct {
	shard int32
	local int32
}

// vshard is one shard: a private store + index pair behind its own
// RWMutex. globals maps local slot -> global ID (always ascending,
// see the parity argument on Sharded).
type vshard struct {
	mu      sync.RWMutex
	store   *Store
	idx     MutableIndex
	globals []int32

	// nextLocal predicts the slot the next insert will occupy; it is
	// read and advanced under the coordinator lock (before the shard
	// lock is even taken) so concurrent inserts to one shard agree on
	// their slots without holding the shard lock in the coordinator's
	// critical section.
	nextLocal int

	// writes counts inserts+deletes applied to this shard (guarded by
	// mu); a compaction that observes it changed between gather and
	// swap abandons its stale rebuild.
	writes uint64

	// epoch counts compaction swaps; compactions counts completed
	// ones (same value, kept separate for clarity in stats).
	epoch       uint64
	compactions uint64

	// compacting is the single-flight guard for background rebuilds.
	compacting atomic.Bool
}

// shardOf routes a global row ID to a shard: a splitmix64-style
// finalizer so consecutive IDs spread uniformly, stable across
// processes and restarts.
func shardOf(id, n int) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// shardSeed decorrelates per-shard construction randomness (HNSW
// level sampling, IVF k-means) while staying deterministic in
// (cfg.Seed, shard).
func shardSeed(seed uint64, shard int) uint64 {
	return seed + uint64(shard)*0x9e3779b97f4a7c15
}

// OpenSharded builds a sharded index over s per cfg (cfg.Shards
// shards; values below 2 build a one-shard coordinator — what an
// unsharded server serves). The N per-shard builds run concurrently.
// Tombstones in s carry over. A one-shard coordinator adopts s as its
// shard's store, so s must from then on be written only through the
// coordinator; wider partitions copy their rows out of s. IVF requires
// every shard to receive at least one row, so it needs s.Len()
// comfortably above cfg.Shards.
func OpenSharded(s *Store, cfg Config) (*Sharded, error) {
	return openSharded(s, cfg, func(_ int, st *Store, per Config) (MutableIndex, error) {
		return OpenMutable(st, per)
	})
}

// OpenShardedFromGraphs rebinds persisted per-shard HNSW graphs over
// s instead of rebuilding: the hash partition of s's rows is
// recomputed (it is deterministic in (row count, shard count)) and
// graph g[i] is validated against shard i's store. cfg must be an
// HNSW configuration whose shard count (Shards, or 1 below 2) is
// len(graphs) — a plain single-graph bundle binds as one shard.
func OpenShardedFromGraphs(s *Store, graphs []*HNSWGraph, cfg Config) (*Sharded, error) {
	if cfg.Kind != KindHNSW {
		return nil, fmt.Errorf("vecstore: OpenShardedFromGraphs needs an HNSW config, got %s", cfg.Kind)
	}
	if ns := max(cfg.Shards, 1); len(graphs) != ns {
		return nil, fmt.Errorf("vecstore: %d persisted shard graphs for %d configured shards", len(graphs), ns)
	}
	return openSharded(s, cfg, func(sid int, st *Store, per Config) (MutableIndex, error) {
		return HNSWFromGraph(st, graphs[sid], per.EfSearch, per.Workers)
	})
}

// openSharded partitions s by shardOf and hands each shard's store to
// index, concurrently; per is the shard's configuration (Shards
// cleared, the worker budget divided, the seed decorrelated).
func openSharded(s *Store, cfg Config, index func(sid int, st *Store, per Config) (MutableIndex, error)) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := max(cfg.Shards, 1)
	per := cfg
	per.Shards = 0
	// Divide the worker budget across the concurrent per-shard
	// builds/batches; each shard gets at least one.
	per.Workers = max(normWorkers(cfg.Workers)/ns, 1)

	n := s.Len()
	sh := &Sharded{
		metric:   cfg.Metric,
		kind:     cfg.Kind,
		dim:      s.Dim(),
		perShard: per,
		locs:     make([]shardLoc, n),
		shards:   make([]*vshard, ns),
	}
	ids := make([][]int, ns)
	for i := 0; i < n; i++ {
		sid := shardOf(i, ns)
		sh.locs[i] = shardLoc{shard: int32(sid), local: int32(len(ids[sid]))}
		ids[sid] = append(ids[sid], i)
	}
	if cfg.Kind == KindIVF {
		for sid, list := range ids {
			if len(list) == 0 {
				return nil, fmt.Errorf("vecstore: sharded IVF: shard %d of %d received no rows (store has %d); use fewer shards or a different kind", sid, ns, n)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, ns)
	for sid := 0; sid < ns; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			st, globals, err := shardStore(s, ids[sid], ns)
			if err != nil {
				errs[sid] = err
				return
			}
			shardCfg := per
			shardCfg.Seed = shardSeed(cfg.Seed, sid)
			idx, err := index(sid, st, shardCfg)
			if err != nil {
				errs[sid] = err
				return
			}
			sh.shards[sid] = &vshard{store: st, idx: idx, globals: globals, nextLocal: st.Len()}
		}(sid)
	}
	wg.Wait()
	for sid, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("vecstore: opening shard %d/%d: %w", sid, ns, err)
		}
	}
	return sh, nil
}

// shardStore returns the store one shard of an ns-way partition of s
// serves, and its local -> global table: ids are the shard's rows in
// ascending global order. The identity partition (ns == 1) is s
// itself, tombstones included — no second copy of the vectors; any
// other gathers its rows into a private store and carries their
// tombstones over.
func shardStore(s *Store, ids []int, ns int) (*Store, []int32, error) {
	globals := make([]int32, len(ids))
	for local, g := range ids {
		globals[local] = int32(g)
	}
	if ns == 1 {
		return s, globals, nil
	}
	if len(ids) == 0 {
		return New(0, s.Dim()), globals, nil
	}
	st := s.Gather(ids)
	for local, g := range ids {
		if s.Deleted(g) {
			if err := st.Delete(local); err != nil {
				return nil, nil, err
			}
		}
	}
	return st, globals, nil
}

// SetCompactFraction enables per-shard self-compaction: after a
// Delete pushes a shard's tombstone fraction past frac (and the shard
// holds at least a handful of rows), a background goroutine rebuilds
// that shard over its live rows and swaps it in, abandoning the
// rebuild if any write raced it. frac <= 0 disables (the default).
func (sh *Sharded) SetCompactFraction(frac float64) { sh.compactFraction = frac }

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Kind returns the per-shard index kind.
func (sh *Sharded) Kind() Kind { return sh.kind }

// Metric implements Index.
func (sh *Sharded) Metric() Metric { return sh.metric }

// Store implements Index. A sharded index has no single backing
// store — every row lives in a shard's store — so Store returns
// nil; use Row, Cosine, Deleted and GatherLive instead.
func (sh *Sharded) Store() *Store { return nil }

// Dim returns the row dimensionality.
func (sh *Sharded) Dim() int { return sh.dim }

// Rows returns the number of global IDs ever assigned (live +
// tombstoned + compacted away). IDs are never reused.
func (sh *Sharded) Rows() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.locs)
}

// Live returns the number of live rows across all shards.
func (sh *Sharded) Live() int {
	live := 0
	for _, vs := range sh.shards {
		vs.mu.RLock()
		live += vs.store.Live()
		vs.mu.RUnlock()
	}
	return live
}

// Dead returns the number of tombstoned rows awaiting compaction.
// Rows a compaction already reclaimed count toward neither Live nor
// Dead, only Rows.
func (sh *Sharded) Dead() int {
	dead := 0
	for _, vs := range sh.shards {
		vs.mu.RLock()
		dead += vs.store.Dead()
		vs.mu.RUnlock()
	}
	return dead
}

// Deleted reports whether global row id is dead (tombstoned, or
// already reclaimed by a shard compaction). Out-of-range IDs report
// true: they identify no live row.
func (sh *Sharded) Deleted(id int) bool {
	sh.mu.RLock()
	if id < 0 || id >= len(sh.locs) {
		sh.mu.RUnlock()
		return true
	}
	loc := sh.locs[id]
	if loc.local < 0 {
		sh.mu.RUnlock()
		return true
	}
	vs := sh.shards[loc.shard]
	vs.mu.RLock() // before dropping the coordinator lock: loc stays valid
	sh.mu.RUnlock()
	defer vs.mu.RUnlock()
	return vs.store.Deleted(int(loc.local))
}

// Row returns global row id's vector, aliasing shard storage (row
// contents are immutable once written, so the slice stays valid
// across concurrent writes and compactions). It panics when the row
// was compacted away — check Deleted first, as with tombstoned rows
// on a plain Store.
func (sh *Sharded) Row(id int) []float32 {
	vs, local := sh.lockRow(id)
	defer vs.mu.RUnlock()
	return vs.store.Row(local)
}

// lockRow resolves a global ID to its shard and local slot and
// returns with the shard's read lock HELD (the caller unlocks); the
// coordinator lock is released only after the shard lock is taken, so
// a racing compaction cannot remap the slot in the gap. Panics (like
// Store.Row on a bad index) when id is out of range or the row was
// compacted away.
func (sh *Sharded) lockRow(id int) (*vshard, int) {
	sh.mu.RLock()
	if id < 0 || id >= len(sh.locs) {
		n := len(sh.locs)
		sh.mu.RUnlock()
		panic(fmt.Sprintf("vecstore: sharded row %d out of range [0, %d)", id, n))
	}
	loc := sh.locs[id]
	if loc.local < 0 {
		sh.mu.RUnlock()
		panic(fmt.Sprintf("vecstore: sharded row %d was deleted and compacted away", id))
	}
	vs := sh.shards[loc.shard]
	vs.mu.RLock()
	sh.mu.RUnlock()
	return vs, int(loc.local)
}

// Cosine returns the cosine similarity of global rows a and b, with
// the same float64 formula (and zero-vector convention) as
// Store.Cosine.
func (sh *Sharded) Cosine(a, b int) float64 {
	va, na := sh.RowNorm(a)
	vb, nb := sh.RowNorm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return cosineFromDot(dotF64(va, vb), na, nb)
}

// Dot returns the float64-accumulated inner product of global rows a
// and b, mirroring Store.Dot.
func (sh *Sharded) Dot(a, b int) float64 {
	va, _ := sh.RowNorm(a)
	vb, _ := sh.RowNorm(b)
	return dotF64(va, vb)
}

// RowNorm returns Row(id) and its cached squared L2 norm — what a
// cosine against the row needs — in one lookup.
func (sh *Sharded) RowNorm(id int) ([]float32, float64) {
	vs, local := sh.lockRow(id)
	defer vs.mu.RUnlock()
	return vs.store.Row(local), vs.store.SqNorms()[local]
}

// LiveIDs returns every live global ID in ascending order.
func (sh *Sharded) LiveIDs() []int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ids := make([]int, 0, len(sh.locs))
	for id, loc := range sh.locs {
		if loc.local < 0 {
			continue
		}
		vs := sh.shards[loc.shard]
		vs.mu.RLock()
		dead := vs.store.Deleted(int(loc.local))
		vs.mu.RUnlock()
		if !dead {
			ids = append(ids, id)
		}
	}
	return ids
}

// GatherLive copies every live row, in ascending global-ID order,
// into a fresh single Store and returns it with the rows' global IDs
// — the checkpoint/snapshot export path. The copy is one consistent
// cut: every shard is read-locked for the duration.
func (sh *Sharded) GatherLive() (*Store, []int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, vs := range sh.shards {
		vs.mu.RLock()
	}
	defer func() {
		for _, vs := range sh.shards {
			vs.mu.RUnlock()
		}
	}()
	ids := make([]int, 0, len(sh.locs))
	for id, loc := range sh.locs {
		if loc.local >= 0 && !sh.shards[loc.shard].store.Deleted(int(loc.local)) {
			ids = append(ids, id)
		}
	}
	out := New(len(ids), sh.dim)
	for i, id := range ids {
		loc := sh.locs[id]
		copy(out.Row(i), sh.shards[loc.shard].store.Row(int(loc.local)))
	}
	return out, ids
}

// Insert implements MutableIndex: the new row gets the next global
// ID, routes to its hash shard, and is indexed under that shard's
// lock only — inserts to different shards run concurrently. The
// coordinator critical section is O(1): assign the ID, predict the
// local slot, and hand off to the shard lock before releasing, which
// keeps shard-local order identical to global ID order.
func (sh *Sharded) Insert(v []float32) (int, error) {
	if len(v) != sh.dim {
		return 0, fmt.Errorf("vecstore: Insert dim %d does not match store dim %d", len(v), sh.dim)
	}
	sh.mu.Lock()
	id := len(sh.locs)
	sid := shardOf(id, len(sh.shards))
	vs := sh.shards[sid]
	local := vs.nextLocal
	vs.nextLocal++
	sh.locs = append(sh.locs, shardLoc{shard: int32(sid), local: int32(local)})
	vs.mu.Lock() // handoff: taken before the coordinator lock drops
	sh.mu.Unlock()
	defer vs.mu.Unlock()

	got, err := vs.idx.Insert(v)
	if err != nil {
		// Unreachable for dimension-checked input (the only insert
		// error any built-in index reports); the location table
		// already names the slot, so refusing here would desync every
		// later slot on this shard.
		panic(fmt.Sprintf("vecstore: shard %d rejected a dimension-checked insert: %v", sid, err))
	}
	if got != local {
		panic(fmt.Sprintf("vecstore: shard %d assigned local %d, predicted %d", sid, got, local))
	}
	vs.globals = append(vs.globals, int32(id))
	vs.writes++
	return id, nil
}

// Delete implements MutableIndex: the row is tombstoned in its
// shard's store, under that shard's lock only. When self-compaction
// is enabled and the shard passes the threshold, a background rebuild
// of just that shard is kicked off.
func (sh *Sharded) Delete(id int) error {
	sh.mu.RLock()
	if id < 0 || id >= len(sh.locs) {
		n := len(sh.locs)
		sh.mu.RUnlock()
		return fmt.Errorf("vecstore: Delete(%d) out of range [0, %d)", id, n)
	}
	loc := sh.locs[id]
	if loc.local < 0 {
		sh.mu.RUnlock()
		return fmt.Errorf("vecstore: row %d is already deleted", id)
	}
	vs := sh.shards[loc.shard]
	vs.mu.Lock() // coordinator read lock held: compaction can't remap loc underneath
	sh.mu.RUnlock()
	err := vs.idx.Delete(int(loc.local))
	if err == nil {
		vs.writes++
	}
	compact := err == nil && sh.overThreshold(vs)
	vs.mu.Unlock()
	if compact {
		sh.compactShard(int(loc.shard))
	}
	return err
}

// overThreshold reports whether the shard's tombstone fraction calls
// for a rebuild. Callers hold vs.mu.
func (sh *Sharded) overThreshold(vs *vshard) bool {
	return sh.compactFraction > 0 && vs.store.DeadFraction() >= sh.compactFraction && vs.store.Len() >= 8
}

// compactBackoff scales the pause after a stale rebuild to what the
// rebuild cost: under a sustained write stream every attempt is
// doomed, and repeating a seconds-long HNSW build back to back would
// burn a core on them. There is no floor — a cheap rebuild is cheap to
// repeat.
const compactBackoff = 4

// compactShard starts, unless one is already running, the background
// rebuild of one shard. Other shards serve reads and writes
// throughout.
func (sh *Sharded) compactShard(sid int) {
	vs := sh.shards[sid]
	if !vs.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		err := sh.compactLoop(sid, OpenMutable, time.Sleep)
		vs.compacting.Store(false)
		if err != nil {
			// e.g. IVF over a now-empty shard; wait for the next
			// threshold-crossing delete instead of spinning.
			return
		}
		// A delete may have crossed the threshold while this run was
		// finishing and lost its CAS; retrigger on its behalf.
		vs.mu.RLock()
		again := sh.overThreshold(vs)
		vs.mu.RUnlock()
		if again {
			sh.compactShard(sid)
		}
	}()
}

// compactLoop is the one compactor: while the shard is over the
// threshold, gather its live rows under the read lock, build an index
// over them with no locks held, and swap store, index and location
// table in under the coordinator and shard write locks. A write racing
// the build makes it stale: it is thrown away rather than lose the
// write, and the loop pauses for compactBackoff times what the attempt
// cost before it gathers again — so compaction completes once writes
// quiesce, without needing another write to trigger it. open and pause
// are OpenMutable and time.Sleep outside tests.
func (sh *Sharded) compactLoop(sid int, open func(*Store, Config) (MutableIndex, error), pause func(time.Duration)) error {
	vs := sh.shards[sid]
	for {
		start := time.Now()
		vs.mu.RLock()
		if !sh.overThreshold(vs) {
			vs.mu.RUnlock()
			return nil
		}
		writes0 := vs.writes
		liveLocals := vs.store.LiveIDs()
		newStore := vs.store.Gather(liveLocals)
		newGlobals := make([]int32, len(liveLocals))
		for i, l := range liveLocals {
			newGlobals[i] = vs.globals[l]
		}
		deadGlobals := make([]int32, 0, vs.store.Dead())
		for l, g := range vs.globals {
			if vs.store.Deleted(l) {
				deadGlobals = append(deadGlobals, g)
			}
		}
		vs.mu.RUnlock()

		idx, err := open(newStore, sh.perShard)
		if err != nil {
			return err
		}

		sh.mu.Lock()
		vs.mu.Lock()
		if vs.writes != writes0 {
			vs.mu.Unlock()
			sh.mu.Unlock()
			pause(compactBackoff * time.Since(start))
			continue
		}
		vs.store = newStore
		vs.idx = idx
		vs.globals = newGlobals
		vs.nextLocal = newStore.Len()
		vs.epoch++
		vs.compactions++
		for newLocal, g := range newGlobals {
			sh.locs[g].local = int32(newLocal)
		}
		for _, g := range deadGlobals {
			sh.locs[g].local = -1
		}
		vs.mu.Unlock()
		sh.mu.Unlock()
		return nil
	}
}

// SpanRecorder receives named stage durations from a scatter-gather
// query: one "shard_wait/<sid>" span per shard (that shard's lock +
// search time) and one "merge" span for the top-k merge. Recorders
// are invoked sequentially on the calling goroutine, after the
// fan-out has joined, so they need no internal locking. A nil
// recorder disables timing entirely — the untraced path does not even
// read the clock.
type SpanRecorder func(name string, d time.Duration)

// fanOut runs one search closure per shard and, when rec is non-nil,
// replays each shard's elapsed time to it afterwards. search runs
// under no locks — each closure takes its own shard read lock. A lone
// shard is searched on the caller's goroutine: there is nothing to
// overlap, and the hop costs more than it buys. Several run in
// parallel, and when ctx expires before every shard has answered
// fanOut returns ctx.Err() immediately instead of joining: abandoned
// searches finish on their own goroutines (each still under only its
// shard's read lock) and drain into a buffered channel, so nothing
// blocks and no lock leaks — but the caller must discard any output
// the closures write, and no span is replayed to rec on an abort (the
// recorder is typically backed by a pooled per-request trace that is
// reused the moment the caller returns). An already-expired ctx
// searches nothing.
func (sh *Sharded) fanOut(ctx context.Context, rec SpanRecorder, search func(sid int, vs *vshard)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(sh.shards) == 1 {
		if d := sh.timeShard(0, rec != nil, search); rec != nil {
			rec("shard_wait/0", d)
		}
		return nil
	}
	type shardDone struct {
		sid int
		d   time.Duration
	}
	ch := make(chan shardDone, len(sh.shards))
	for sid := range sh.shards {
		go func() { ch <- shardDone{sid, sh.timeShard(sid, rec != nil, search)} }()
	}
	var durs []time.Duration
	if rec != nil {
		durs = make([]time.Duration, len(sh.shards))
	}
	for range sh.shards {
		select {
		case sd := <-ch:
			if durs != nil {
				durs[sd.sid] = sd.d
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for sid, d := range durs {
		rec("shard_wait/"+strconv.Itoa(sid), d)
	}
	return nil
}

// timeShard runs search on shard sid and returns how long it took, or
// 0 without reading the clock when not timing.
func (sh *Sharded) timeShard(sid int, timing bool, search func(sid int, vs *vshard)) time.Duration {
	if !timing {
		search(sid, sh.shards[sid])
		return 0
	}
	start := time.Now()
	search(sid, sh.shards[sid])
	return time.Since(start)
}

// Search implements Index: the query fans out to every shard in
// parallel, each shard answers from its own index under its read
// lock, and the per-shard top-k merge keeps the global (score
// descending, ID ascending) order.
func (sh *Sharded) Search(q []float32, k int) []Result {
	perShard := make([][]Result, len(sh.shards))
	sh.fanOut(context.Background(), nil, func(sid int, vs *vshard) {
		vs.mu.RLock()
		defer vs.mu.RUnlock()
		perShard[sid] = toGlobal(vs.idx.Search(q, k), vs.globals)
	})
	return mergeTopK(perShard, k)
}

// SearchRow implements Index: SearchRows for one row.
func (sh *Sharded) SearchRow(i, k int) []Result {
	out, _ := sh.SearchRows(context.Background(), []int{i}, k, nil)
	return out[0]
}

// SearchRows answers "the k nearest rows to row id, excluding id" for
// every id — one path for a single query and a batch. Several shards
// each answer the whole batch through their index's (worker-parallel)
// SearchBatch for k+1, searching with the rows' vectors, and the merge
// drops each query row before truncating to k: for the exact kind
// that is identical to exclude-at-scan, the top k excluding i being
// the top k+1 including it, minus i. A lone shard owns every row, so
// each id goes through its index's own SearchRow, spread over the
// workers: it answers exactly as the bare index would for every kind
// (HNSW sizes its beam from k, and k+1-then-strip is a different
// search past EfSearch). rec (may be nil) receives one
// "shard_wait/<sid>" span per shard and a "merge" span for the merge
// and strip. When ctx expires mid-fan-out the scatter-gather is
// abandoned — the slow shards finish in the background under their
// own read locks, their results are discarded, and the call returns
// ctx.Err() without waiting for them. Panics when a row was compacted
// away (check Deleted first).
func (sh *Sharded) SearchRows(ctx context.Context, ids []int, k int, rec SpanRecorder) ([][]Result, error) {
	out := make([][]Result, len(ids))
	if k <= 0 {
		return out, nil
	}
	perShard := make([][][]Result, len(sh.shards))
	var search func(sid int, vs *vshard)
	if len(sh.shards) == 1 {
		search = func(int, *vshard) {
			res := make([][]Result, len(ids))
			parallelRange(len(ids), sh.perShard.Workers, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					vs, local := sh.lockRow(ids[j])
					res[j] = toGlobal(vs.idx.SearchRow(local, k), vs.globals)
					vs.mu.RUnlock()
				}
			})
			perShard[0] = res
		}
	} else {
		qs := make([][]float32, len(ids))
		for j, id := range ids {
			qs[j] = sh.Row(id) // contents immutable; valid after unlock
		}
		search = func(sid int, vs *vshard) {
			vs.mu.RLock()
			defer vs.mu.RUnlock()
			res := vs.idx.SearchBatch(qs, k+1)
			for j := range res {
				res[j] = toGlobal(res[j], vs.globals)
			}
			perShard[sid] = res
		}
	}
	if err := sh.fanOut(ctx, rec, search); err != nil {
		// perShard may still be written by abandoned goroutines; it is
		// dropped unread.
		return nil, err
	}
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	lists := make([][]Result, len(sh.shards))
	for j, id := range ids {
		for sid := range perShard {
			lists[sid] = perShard[sid][j]
		}
		out[j] = mergeRowTopK(lists, id, k)
	}
	if rec != nil {
		rec("merge", time.Since(start))
	}
	return out, nil
}

// SearchBatch implements Index: each shard answers the whole batch
// through its own (worker-parallel) SearchBatch, then the per-query
// merges assemble global top-k lists.
func (sh *Sharded) SearchBatch(qs [][]float32, k int) [][]Result {
	out := make([][]Result, len(qs))
	if len(qs) == 0 {
		return out
	}
	perShard := make([][][]Result, len(sh.shards))
	sh.fanOut(context.Background(), nil, func(sid int, vs *vshard) {
		vs.mu.RLock()
		defer vs.mu.RUnlock()
		rss := vs.idx.SearchBatch(qs, k)
		for qi := range rss {
			rss[qi] = toGlobal(rss[qi], vs.globals)
		}
		perShard[sid] = rss
	})
	scratch := make([][]Result, len(sh.shards))
	for qi := range qs {
		for sid := range perShard {
			scratch[sid] = perShard[sid][qi]
		}
		out[qi] = mergeTopK(scratch, k)
	}
	return out
}

// ScanExact scores every live row with the caller's kernel and
// returns the global top-k, excluding the given global IDs — the
// scatter-gather form of a hand-written exact scan (the serving
// analogy path). score must be a pure per-row function; rows are
// visited shard-parallel, per shard in ascending global order, so
// results match a single global scan of the same kernel exactly.
func (sh *Sharded) ScanExact(score func(v []float32) float64, exclude []int, k int) []Result {
	if k <= 0 {
		return nil
	}
	ex := make(map[int32]bool, len(exclude))
	for _, id := range exclude {
		ex[int32(id)] = true
	}
	perShard := make([][]Result, len(sh.shards))
	sh.fanOut(context.Background(), nil, func(sid int, vs *vshard) {
		vs.mu.RLock()
		defer vs.mu.RUnlock()
		var top TopK
		top.Reset(k)
		for local, g := range vs.globals {
			if ex[g] || vs.store.Deleted(local) {
				continue
			}
			top.Push(int(g), score(vs.store.Row(local)))
		}
		perShard[sid] = top.Append(nil)
	})
	return mergeTopK(perShard, k)
}

// ShardStat is one shard's /stats block.
type ShardStat struct {
	Rows        int    `json:"rows"`
	Live        int    `json:"live"`
	Deleted     int    `json:"deleted"`
	Epoch       uint64 `json:"epoch"`
	Compactions uint64 `json:"compactions"`
}

// ShardStats snapshots every shard's occupancy and compaction
// counters, in shard order.
func (sh *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(sh.shards))
	for sid, vs := range sh.shards {
		vs.mu.RLock()
		out[sid] = ShardStat{
			Rows:        vs.store.Len(),
			Live:        vs.store.Live(),
			Deleted:     vs.store.Dead(),
			Epoch:       vs.epoch,
			Compactions: vs.compactions,
		}
		vs.mu.RUnlock()
	}
	return out
}

// Graphs returns the per-shard HNSW graphs (deep copies, in shard
// order) for bundle persistence; it errors for non-HNSW kinds.
func (sh *Sharded) Graphs() ([]*HNSWGraph, error) {
	if sh.kind != KindHNSW {
		return nil, fmt.Errorf("vecstore: sharded %s index has no persistable graphs (only hnsw)", sh.kind)
	}
	out := make([]*HNSWGraph, len(sh.shards))
	for sid, vs := range sh.shards {
		vs.mu.RLock()
		h, ok := vs.idx.(*HNSW)
		if !ok {
			vs.mu.RUnlock()
			return nil, fmt.Errorf("vecstore: shard %d holds %T, not *HNSW", sid, vs.idx)
		}
		out[sid] = h.Graph()
		vs.mu.RUnlock()
	}
	return out, nil
}

// toGlobal rewrites shard-local result IDs to global IDs in place.
func toGlobal(rs []Result, globals []int32) []Result {
	for i := range rs {
		rs[i].ID = int(globals[rs[i].ID])
	}
	return rs
}

// mergeTopK merges per-shard top-k lists into the global top-k. Each
// input is already sorted best-first; the concatenation is small
// (<= shards*k), so the shared insertion sort finishes the merge.
func mergeTopK(perShard [][]Result, k int) []Result {
	total := 0
	for _, rs := range perShard {
		total += len(rs)
	}
	merged := make([]Result, 0, total)
	for _, rs := range perShard {
		merged = append(merged, rs...)
	}
	sortResults(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// mergeRowTopK merges per-shard top-(k+1) lists of a search by row
// self into the top k excluding self: the one self-exclusion every
// by-row merge, in-process or routed, goes through.
func mergeRowTopK(perShard [][]Result, self, k int) []Result {
	merged := mergeTopK(perShard, k+1)
	out := merged[:0]
	for _, r := range merged {
		if r.ID != self {
			out = append(out, r)
		}
	}
	return out[:min(len(out), k)]
}
