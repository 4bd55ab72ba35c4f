package vecstore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"v2v/internal/f32"
	"v2v/internal/xrand"
)

// HNSWConfig tunes the hierarchical navigable small world index; see
// docs/INDEXES.md for the recall/latency trade-off and tuning guide.
type HNSWConfig struct {
	// M is the target out-degree per node and level (0 = 16). Level 0
	// keeps up to 2*M links. Larger M raises recall and memory.
	M int
	// EfConstruction is the beam width of the insert-time search
	// (0 = 200). Larger values build a better graph, slower.
	EfConstruction int
	// EfSearch is the default beam width of the query-time search
	// (0 = 128); queries use max(EfSearch, k). Larger values raise
	// recall at the cost of latency.
	EfSearch int
	// Seed drives level sampling. Builds are deterministic for a fixed
	// seed regardless of Workers: rows are linked in waves whose sizes
	// depend only on the row count, and every wave's result is
	// independent of how its rows are spread over workers.
	Seed uint64
	// Workers bounds build and batch-query parallelism (0 = GOMAXPROCS).
	Workers int
}

// HNSW defaults.
const (
	defaultHNSWM    = 16
	defaultHNSWEfC  = 200
	defaultHNSWEf   = 128
	maxHNSWM        = 1024
	maxHNSWLevel    = 63 // level sampling cap; P(level > 63) is astronomically small
	hnswLevelStream = 0x9E3779B97F4A7C15
)

// The build's wave schedule (see link). A wave's size is a function of
// how many rows the graph already holds and of nothing else, so the
// graph cannot depend on Workers.
const (
	// serialRows: below this many linked rows a wave is one row. Those
	// rows cost milliseconds, and a graph this small is exactly the one
	// sequential Insert grows (the filter parity tests build their
	// reference that way).
	serialRows = 256
	// A wave is then 1/waveShare of the linked rows, at most maxWave:
	// no row's view of the graph misses more than a sixteenth of it.
	waveShare = 16
	maxWave   = 256
)

// waveSize is the number of rows the next wave links when linked rows
// are in the graph.
func waveSize(linked int) int {
	if linked < serialRows {
		return 1
	}
	return min(linked/waveShare, maxWave)
}

// HNSW is a hierarchical navigable small world index (Malkov &
// Yashunin, 2016): a stack of proximity graphs where upper layers are
// exponentially sparser samples used for coarse routing and layer 0
// holds every row. A query greedily descends to layer 0, then runs a
// bounded best-first beam (efSearch) there, whose candidates and
// results are one sorted list (beam) where the paper keeps two heaps:
// the same expansions and the same results, with no heap to keep in
// order. Search cost grows roughly logarithmically with the store size
// — sublinear where Exact stays linear in rows — at the price of
// approximate results and an O(n log n) build.
//
// Build runs on Workers goroutines and is deterministic for a fixed
// seed whatever their number (see link); queries are safe for
// arbitrary concurrency once NewHNSW returns.
//
// Candidates are scored filter-and-refine, like the exact scan: where
// a candidate must beat a known distance to matter (the beam's worst
// retained result, the descent's current best), a float32 dot comes
// first and the prefilter of scan.go drops the candidate when it
// proves the float64 score cannot. The beam takes a friend list
// whole: one gathered float32 kernel call over its unvisited members
// (f32.DotGather), the drop test per friend at the threshold the list
// started with, then one gathered float64 call over the survivors
// (f32.DotF64Gather, four rows per pass), each score the single
// kernel's bits. The unvisited friends' rows are hinted into cache
// (f32.HintRows) before the first of those calls, and the likely next
// candidate's level-0 list when a candidate is expanded: a hint moves no
// result, only when a row arrives. Neighbour selection, which is most
// of an insert, needs no score at all, only "is this candidate closer
// to a kept neighbour than to the new node": the float32 dot answers
// through the prefilter's two tests (provably not closer, provably
// closer) and the float64 kernel decides the comparisons neither can.
// The float32 pass only ever answers a comparison the float64 score
// would answer the same way, so graphs and results are bit for bit
// those of scoring every candidate (TestHNSWFilterParity, whose
// reference sets gamma to +Inf; TestHNSWGoldenGraphs).
//
// HNSW implements MutableIndex: Insert reuses the build-time level
// sampling (continuing the build's deterministic RNG stream) and
// diversity-pruned linking for one new row, and Delete tombstones a
// row, the standard mark-deleted scheme (reclaimed by a compaction
// rebuild): a dead row is still scored and expanded, so it keeps
// routing the beam, but never takes one of its ef result slots, so a
// query returns k live results whenever k live rows are reachable.
// Mutations hold the writer lock; queries share the reader lock.
type HNSW struct {
	s        *Store
	metric   Metric
	m        int // max links per node per level > 0
	mmax0    int // max links at level 0 (2*M)
	efc      int
	ef       int
	workers  int
	seed     uint64
	entry    int32
	maxLevel int
	// Node i's links at level 0 are l0[i*mmax0 : i*mmax0+l0n[i]]: one
	// array of fixed slots, so the beam finds a list without chasing a
	// pointer and linking writes in place. upper[i][l-1] are its links
	// at level l >= 1, so len(upper[i]) is its top level; each of those
	// lists is allocated once with room for M.
	l0    []int32
	l0n   []int32
	upper [][][]int32
	// gamma is the prefilter's error bound for the store's dimension
	// (dotErrorBound); +Inf rejects nothing, which is how the parity
	// test builds its reference.
	gamma float64

	// mu guards graph and store mutation against concurrent queries;
	// rng/mL continue the build's level-sampling stream for
	// incremental inserts; builtMuts detects out-of-band SetRow.
	mu        sync.RWMutex
	rng       *xrand.RNG
	mL        float64
	builtMuts uint64

	scratch sync.Pool // *hnswScratch, sized to the store
}

// NewHNSW builds the layered graph by inserting the rows in row order,
// in waves on cfg.Workers goroutines (see link). Level sampling
// consumes one deterministic RNG stream in row order, so the graph
// depends only on (store contents, metric, cfg.M, cfg.EfConstruction,
// cfg.Seed).
func NewHNSW(s *Store, metric Metric, cfg HNSWConfig) (*HNSW, error) {
	m := cfg.M
	if m <= 0 {
		m = defaultHNSWM
	}
	if m > maxHNSWM {
		return nil, fmt.Errorf("vecstore: HNSW M %d is implausibly large (max %d)", m, maxHNSWM)
	}
	efc := cfg.EfConstruction
	if efc <= 0 {
		efc = defaultHNSWEfC
	}
	if efc < m {
		efc = m // the insert beam must at least cover the links it selects
	}
	ef := cfg.EfSearch
	if ef <= 0 {
		ef = defaultHNSWEf
	}
	h := &HNSW{
		s:       s,
		metric:  metric,
		m:       m,
		mmax0:   2 * m,
		efc:     efc,
		ef:      ef,
		workers: normWorkers(cfg.Workers),
		seed:    cfg.Seed,
		entry:   -1,
		gamma:   dotErrorBound(s.Dim()),
	}
	s.SqNorms() // precompute so build and concurrent queries never race the cache

	// mL = 1/ln(M), the level normalization from the paper. The RNG
	// stays on the struct: incremental Insert continues the same
	// stream, so batch-building n rows and batch-building n-j then
	// inserting j produce identically-distributed levels.
	h.mL = 1 / math.Log(float64(m))
	h.rng = xrand.New(cfg.Seed ^ hnswLevelStream)
	h.grow(s.Len())
	h.build(0, s.Len())
	h.builtMuts = s.Mutations()
	return h, nil
}

// grow appends rows nodes to the graph, none of them linked yet.
func (h *HNSW) grow(rows int) {
	h.l0 = append(h.l0, make([]int32, rows*h.mmax0)...)
	h.l0n = append(h.l0n, make([]int32, rows)...)
	h.upper = append(h.upper, make([][][]int32, rows)...)
}

// build links rows [lo, hi) in waves of waveSize, on up to h.workers
// goroutines, and leaves one scratch in the pool carrying every
// worker's counters.
func (h *HNSW) build(lo, hi int) {
	scs := make([]*hnswScratch, min(h.workers, waveSize(hi))) // no wave is larger
	for w := range scs {
		scs[w] = h.newScratch()
	}
	for lo < hi {
		next := min(hi, lo+waveSize(lo))
		h.link(lo, next, scs)
		lo = next
	}
	sc := scs[0]
	for _, o := range scs[1:] {
		sc.evals, sc.rejected = sc.evals+o.evals, sc.rejected+o.rejected
		sc.selCmps, sc.selRefined = sc.selCmps+o.selCmps, sc.selRefined+o.selRefined
	}
	h.scratch.Put(sc)
}

// Insert implements MutableIndex: it appends v to the store and links
// it into the graph as a wave of one, with the same level sampling and
// diversity pruning as the batch build, returning the new row ID. Safe
// to call concurrently with queries (writer-locked).
func (h *HNSW) Insert(v []float32) (int, error) {
	if len(v) != h.s.Dim() {
		return 0, fmt.Errorf("vecstore: Insert dim %d does not match store dim %d", len(v), h.s.Dim())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checkCoherent()
	id := h.s.AppendRow(v)
	h.grow(1)
	sc := h.getScratch()
	h.link(id, id+1, []*hnswScratch{sc})
	h.scratch.Put(sc)
	return id, nil
}

// Delete implements MutableIndex: the row is tombstoned — still a
// routing node for graph descent, never a result. Reclaimed (links
// and storage) by a compaction rebuild.
func (h *HNSW) Delete(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.Delete(id)
}

// checkCoherent panics with a descriptive message when the store was
// mutated behind the graph's back — an in-place SetRow (adjacency
// silently stale) or a direct append (rows unreachable by any
// descent). This replaces the old failure mode of silently wrong
// results; callers that mutate must rebuild, or route writes through
// Insert/Delete.
func (h *HNSW) checkCoherent() {
	if h.s.Mutations() != h.builtMuts {
		panic("vecstore: HNSW index is stale: Store.SetRow overwrote rows after the graph was built, leaving adjacency lists out of date; rebuild the index or apply writes through MutableIndex.Insert/Delete")
	}
	if len(h.l0n) != h.s.Len() {
		panic(fmt.Sprintf("vecstore: HNSW graph covers %d of %d store rows: rows were appended to the store without MutableIndex.Insert", len(h.l0n), h.s.Len()))
	}
}

// sampleLevel draws floor(-ln(U) * mL), the paper's exponentially
// decaying level distribution, capped to keep adversarial RNG draws
// from building a degenerate tower.
func sampleLevel(rng *xrand.RNG, mL float64) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	l := int(-math.Log(u) * mL)
	if l > maxHNSWLevel {
		l = maxHNSWLevel
	}
	return l
}

// dist converts the metric's "higher is better" score into the
// "smaller is closer" distance the graph routines minimize.
func (h *HNSW) dist(q []float32, qn float64, i int32) float64 {
	return -scoreRow(h.s, h.metric, q, qn, int(i))
}

// farther reports whether the float32 pass proves dist(q, e) exceeds
// the distance f was last armed with, counting the candidate either
// way. A true answer is final; false means "score it".
func (h *HNSW) farther(f *prefilter, q []float32, e int32, sc *hnswScratch) bool {
	sc.evals++
	if !f.armed || !f.drops(float64(f32.Dot(q, h.s.Row(int(e)))), h.s.SqNorms()[e]) {
		return false
	}
	sc.rejected++
	return true
}

// survivors keeps of ids, in place, the candidates the float32 pass
// cannot prove farther than the distance f was last armed with,
// counting every candidate and every drop. One gathered kernel call
// scores the whole list first, so every drop test sees the threshold
// the list started with.
func (h *HNSW) survivors(f *prefilter, q []float32, ids []int32, sc *hnswScratch) []int32 {
	sc.evals += len(ids)
	if !f.armed || len(ids) == 0 {
		return ids
	}
	dots := slices.Grow(sc.dots[:0], len(ids))[:len(ids)]
	f32.DotGather(q, h.s.data, ids, dots)
	sc.dots = dots
	norms := h.s.SqNorms()
	kept := ids[:0]
	for j, e := range ids {
		if !f.drops(float64(dots[j]), norms[e]) {
			kept = append(kept, e)
		}
	}
	sc.rejected += len(ids) - len(kept)
	return kept
}

// dists returns dist(q, id) for every id, in order, in scratch
// storage, from one gathered float64 kernel call; q64 is q widened
// (hnswScratch.widen). Each distance is dist's, bit for bit (NaN
// payloads aside, see internal/f32).
func (h *HNSW) dists(q []float32, q64 []float64, qn float64, ids []int32, sc *hnswScratch) []float64 {
	out := slices.Grow(sc.dist[:0], len(ids))[:len(ids)]
	sc.dist = out
	if h.metric == Euclidean {
		f32.SqDistF64Gather(q, q64, h.s.data, ids, out)
		return out
	}
	f32.DotF64Gather(q, q64, h.s.data, ids, out)
	if h.metric == Cosine {
		norms := h.s.SqNorms()
		for j, id := range ids {
			out[j] = -cosineFromDot(out[j], qn, norms[id])
		}
		return out
	}
	for j := range out {
		out[j] = -out[j]
	}
	return out
}

// links returns node i's out-neighbours at level l, aliasing the
// graph.
func (h *HNSW) links(i int32, l int) []int32 {
	if l == 0 {
		o := int(i) * h.mmax0
		return h.l0[o : o+int(h.l0n[i])]
	}
	return h.upper[i][l-1]
}

// setLinks overwrites node i's list at level l with links, which fits
// the level's cap.
func (h *HNSW) setLinks(i int32, l int, links []int32) {
	if l == 0 {
		o := int(i) * h.mmax0
		h.l0n[i] = int32(copy(h.l0[o:o+h.mmax0], links))
		return
	}
	h.upper[i][l-1] = append(h.upper[i][l-1][:0], links...)
}

// newUpper allocates a node's lists for levels 1..level, each with room
// for M links, in one backing array.
func (h *HNSW) newUpper(level int) [][]int32 {
	if level == 0 {
		return nil
	}
	lists := make([][]int32, level)
	buf := make([]int32, level*h.m)
	for l := range lists {
		lists[l] = buf[l*h.m : l*h.m : (l+1)*h.m]
	}
	return lists
}

// link inserts rows [lo, hi), the next wave, into the graph in two
// phases, each fanned out over the scratches' workers:
//
//  1. Every row finds its neighbours (searchNeighbors) in the graph as
//     it stood when the wave began, which nothing writes meanwhile, and
//     in the wave's earlier rows, and writes them as its own lists.
//  2. The entry point moves, in row order, to the first row above the
//     top level. The back-links the new lists ask for are sorted by
//     target, level and row; each target takes its group in row order
//     and is re-selected (shrink) once if that takes it over its cap.
//     A shrink reads vectors and the target's own list only, so the
//     targets are independent.
//
// Neither phase's result depends on which worker ran what, so neither
// does the graph. A wave of one is the classic sequential insert: its
// back-links each touch a distinct list, and its searches never read
// the lists those back-links change.
func (h *HNSW) link(lo, hi int, scs []*hnswScratch) {
	for i := lo; i < hi; i++ { // levels draw from the stream in row order
		h.upper[i] = h.newUpper(sampleLevel(h.rng, h.mL))
	}
	fanOut(hi-lo, len(scs), func(w, j int) { h.searchNeighbors(int32(lo+j), lo, scs[w]) })

	// A back-link's key is (target, level, position in the wave): sorted,
	// they group by target list and run in row order within a group.
	sc := scs[0]
	keys := sc.keys[:0]
	for i := lo; i < hi; i++ {
		level := len(h.upper[i])
		if h.entry < 0 || level > h.maxLevel {
			h.entry, h.maxLevel = int32(i), level
		}
		for l := 0; l <= level; l++ {
			for _, nb := range h.links(int32(i), l) {
				keys = append(keys, uint64(nb)<<32|uint64(l)<<24|uint64(i-lo))
			}
		}
	}
	slices.Sort(keys)
	groups := sc.groups[:0]
	for k := range keys {
		if k == 0 || keys[k]>>24 != keys[k-1]>>24 {
			groups = append(groups, k)
		}
	}
	groups = append(groups, len(keys))
	sc.keys, sc.groups = keys, groups
	fanOut(len(groups)-1, len(scs), func(w, g int) {
		h.addBackLinks(keys[groups[g]:groups[g+1]], lo, scs[w])
	})
}

// fanOut runs fn(w, j) for every j in [0, n) on up to workers
// goroutines, w naming the goroutine; the goroutines take the next j
// as they finish one.
func fanOut(n, workers int, fn func(w, j int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for j := 0; j < n; j++ {
			fn(0, j)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
				fn(w, j)
			}
		}(w)
	}
	wg.Wait()
}

// searchNeighbors is phase 1 of link for row i of the wave that starts
// at row lo: the paper's insert up to, not including, the back-links.
// The greedy descent and the beams run in the graph as it stood when
// the wave began; at each level the rows [lo, i) that reach it, its
// peers, are scored directly and compete for the beam's places, so
// that near-duplicates of one wave link to each other. The selection
// is written as row i's own lists.
func (h *HNSW) searchNeighbors(i int32, lo int, sc *hnswScratch) {
	level := len(h.upper[i])
	q := h.s.Row(int(i))
	q64 := sc.widen(q)
	f := prefilter{metric: h.metric, gamma: h.gamma, qn: h.s.SqNorms()[i]}

	// Greedy descent through the layers above the new node's level.
	eps := sc.eps[:0]
	if h.entry >= 0 {
		ep := h.entry
		epDist := h.dist(q, f.qn, ep)
		for l := h.maxLevel; l > level; l-- {
			ep, epDist = h.greedyStep(q, &f, ep, epDist, l, sc)
		}
		eps = append(eps, ep)
	}

	for l := level; l >= 0; l-- {
		if len(eps) > 0 && l <= h.maxLevel {
			cands := h.searchLayer(q, q64, &f, eps, l, h.efc, nil, sc)
			// Next level down starts from everything this beam found.
			eps = eps[:0]
			for _, c := range cands {
				eps = append(eps, c.id)
			}
		} else {
			sc.beam.reset(h.efc)
		}
		peers := sc.peers[:0]
		for p := lo; p < int(i); p++ {
			if len(h.upper[p]) >= l {
				peers = append(peers, int32(p))
			}
		}
		// The peers join the beam's list as if the beam had found them:
		// its efc nearest of the union are the candidates. Offered every
		// peer, selection would keep far ones for their novel directions.
		for j, d := range h.dists(q, q64, f.qn, peers, sc) {
			sc.beam.add(hcand{id: peers[j], dist: d})
		}
		sc.peers = peers
		h.setLinks(i, l, h.selectNeighbors(sc.beam.results(), h.m, sc))
	}
	sc.eps = eps
}

// addBackLinks is phase 2 of link for one target list: keys are its
// group, in row order, and lo the wave's first row.
func (h *HNSW) addBackLinks(keys []uint64, lo int, sc *hnswScratch) {
	to, l := int32(keys[0]>>32), int(keys[0]>>24&0xff)
	fr := append(sc.links[:0], h.links(to, l)...)
	for _, k := range keys {
		fr = append(fr, int32(lo+int(k&0xffffff)))
	}
	if limit := h.levelCap(l); len(fr) > limit {
		fr = h.shrink(to, fr, limit, sc)
	}
	h.setLinks(to, l, fr)
	sc.links = fr
}

// levelCap is the most links a node keeps at level l.
func (h *HNSW) levelCap(l int) int {
	if l == 0 {
		return h.mmax0
	}
	return h.m
}

// greedyStep walks from ep to the locally closest node at level l > 0
// (ef = 1 descent). f carries the query's squared norm; its threshold
// follows epDist.
func (h *HNSW) greedyStep(q []float32, f *prefilter, ep int32, epDist float64, l int, sc *hnswScratch) (int32, float64) {
	f.arm(-epDist)
	for {
		improved := false
		for _, e := range h.upper[ep][l-1] {
			if h.farther(f, q, e, sc) {
				continue
			}
			if d := h.dist(q, f.qn, e); d < epDist {
				ep, epDist = e, d
				improved = true
				f.arm(-epDist)
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// hcand is a graph-search candidate: a row and its distance to the
// query, and in the beam's list whether the row was expanded and
// whether it is a tombstone.
type hcand struct {
	id   int32
	done bool // beam: expanded
	dead bool // beam: tombstoned, so it routes and takes no result slot
	dist float64
}

// closer orders candidates nearest-first, ties toward the smaller ID so
// that searches are deterministic. A NaN distance goes after every
// other one, NaNs among themselves by ID: closer is a total order on
// any distances, so where the beam places a candidate does not depend
// on which entries its search happens to compare it with.
func closer(a, b hcand) bool {
	switch {
	case a.dist < b.dist:
		return true
	case tied(a.dist, b.dist):
		return a.id < b.id
	}
	return b.dist != b.dist
}

// tied reports whether two distances hold one place in closer's order
// but for the IDs: equal, or both NaN.
func tied(a, b float64) bool { return a == b || a != a && b != b }

// hnswScratch is the reusable per-search state: a visited bitset
// (one bit per row, so that a search's marks stay in L1; cleared per
// layer search), the beam's candidate list and small reusable slices,
// so that a search allocates its result and an insert little beyond
// its upper-level lists.
type hnswScratch struct {
	visited []uint64
	beam    beam
	eps     []int32
	q64     []float64 // the query of the search or insert, widened
	sel     []int32   // selectNeighbors' selection
	spilled []int32   // selectNeighbors' discarded candidates
	surv    []int32   // searchLayer: the friends the float32 pass left
	dots    []float32 // survivors' float32 dots
	dist    []float64 // dists' result
	peers   []int32   // searchNeighbors: the wave's earlier rows at a level
	links   []int32   // addBackLinks: a list and its new back-links
	keys    []uint64  // link: the wave's back-links, sorted
	groups  []int     // link: where each target's keys start
	// evals counts the candidates the beam and the descent considered
	// through this scratch, rejected those the float32 pass dropped;
	// selCmps the "closer to a kept neighbour?" comparisons of neighbour
	// selection, selRefined those the float64 kernel had to decide.
	evals, rejected, selCmps, selRefined int
}

// visitedWords is the length of a visited bitset over n rows.
func visitedWords(n int) int { return (n + 63) / 64 }

func (h *HNSW) newScratch() *hnswScratch {
	// Slack beyond the current row count so a stream of incremental
	// inserts does not reallocate the visited set per row.
	n := h.s.Len()
	buf := make([]uint64, visitedWords(n+n/2+64))
	return &hnswScratch{visited: buf[:visitedWords(n)]}
}

func (h *HNSW) getScratch() *hnswScratch {
	w := visitedWords(h.s.Len())
	if sc, ok := h.scratch.Get().(*hnswScratch); ok && cap(sc.visited) >= w {
		// Growing within capacity is safe: begin clears the whole set.
		sc.visited = sc.visited[:w]
		return sc
	}
	return h.newScratch()
}

// widen returns q in float64, in scratch storage: the gathered float64
// kernels' query operand, converted once per search or insert.
func (sc *hnswScratch) widen(q []float32) []float64 {
	sc.q64 = slices.Grow(sc.q64[:0], len(q))[:len(q)]
	f32.Widen(sc.q64, q)
	return sc.q64
}

// seen marks id visited, reporting whether it already was.
func (sc *hnswScratch) seen(id int32) bool {
	w, bit := &sc.visited[id>>6], uint64(1)<<(id&63)
	if *w&bit != 0 {
		return true
	}
	*w |= bit
	return false
}

// beam is searchLayer's one list of candidates, in closer order: the
// sorted candidate pool of NSG (Fu et al., VLDB 2019) in place of the
// paper's candidate min-heap and bounded result max-heap. It holds
// every candidate the search took while fewer than ef of them are
// live, and from then on every one whose distance is at most the
// worst result's, the ef-th live entry's. Past the worst result it
// holds only that entry's ties, which the heaps' beam still expands
// (it stops at a candidate strictly farther than its worst result) and
// never returns. So the first ef live entries are the result heap's,
// the unexpanded entries are the candidates the heap would still
// expand, and the nearest of them is the one it pops next.
type beam struct {
	c    []hcand
	ef   int
	live int // live entries, counted up to ef
	w    int // the worst result's index, once live == ef
	next int // every entry before it is expanded
}

func (b *beam) reset(ef int) {
	b.c, b.ef, b.live, b.w, b.next = b.c[:0], ef, 0, 0, 0
}

// full reports whether the list holds ef live entries.
func (b *beam) full() bool { return b.live == b.ef }

// worst is the worst result's distance; the list must be full.
func (b *beam) worst() float64 { return b.c[b.w].dist }

// results is the list up to its worst result: the ef nearest live rows
// found, closest first, among the tombstones that came before them.
func (b *beam) results() []hcand {
	if b.full() {
		return b.c[:b.w+1]
	}
	return b.c
}

// first returns the index of the nearest unexpanded entry, len(b.c)
// when every entry is expanded.
func (b *beam) first() int {
	for b.next < len(b.c) && b.c[b.next].done {
		b.next++
	}
	return b.next
}

// at returns the number of entries closer than x, the place x takes.
// For a distance that is not NaN that is the entries at a smaller
// distance, a prefix since NaNs sort last, found by a binary search
// whose step is a conditional move rather than a branch the processor
// would mispredict half the time, and then the ties with a smaller ID.
func (b *beam) at(x hcand) int {
	c := b.c
	if x.dist != x.dist || len(c) == 0 {
		p := len(c)
		for p > 0 && closer(x, c[p-1]) {
			p--
		}
		return p
	}
	base, n := 0, len(c)
	for n > 1 {
		half := n >> 1
		base += half & -b2i(c[base+half].dist < x.dist)
		n -= half
	}
	base += b2i(c[base].dist < x.dist)
	for base < len(c) && c[base].dist == x.dist && c[base].id < x.id {
		base++
	}
	return base
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// add takes x into the list, unless it is farther than the worst
// result of a full list, and restores the invariant. A live x placed
// ahead of the worst result makes the live entry before it the worst
// one, and what lies past that entry but its ties drops out; a
// tombstone placed there moves the worst result one place on.
func (b *beam) add(x hcand) {
	p := b.at(x)
	behind := b.full() && p > b.w
	if behind && !tied(x.dist, b.worst()) {
		return
	}
	b.c = append(b.c, hcand{})
	copy(b.c[p+1:], b.c[p:])
	b.c[p] = x
	b.next = min(b.next, p)
	switch {
	case behind:
		return
	case x.dead:
		if b.full() {
			b.w++
		}
		return
	case !b.full():
		if b.live++; b.live < b.ef {
			return
		}
		b.w = len(b.c) - 1
	}
	for b.c[b.w].dead {
		b.w--
	}
	end := b.w + 1
	for end < len(b.c) && tied(b.c[end].dist, b.worst()) {
		end++
	}
	b.c = b.c[:end]
	b.next = min(b.next, end)
}

// searchLayer runs the bounded best-first beam search of the paper's
// Algorithm 2 over the beam's list: expand the nearest unexpanded
// candidate until none is left, that is until no candidate as close as
// the worst of the ef retained results is unexpanded. It returns the
// list up to the worst result (beam.results), good until the next
// search begins. f carries the query's squared norm; once ef results
// are retained its threshold follows the worst of them, which only
// ever comes closer: a candidate is taken in a full list only when it
// is strictly closer than the worst result. A row del marks (the
// store's tombstones; nil in the build) is scored and expanded but
// never counted as a result: it routes the beam and takes no result
// slot.
func (h *HNSW) searchLayer(q []float32, q64 []float64, f *prefilter, eps []int32, level, ef int, del []bool, sc *hnswScratch) []hcand {
	clear(sc.visited)
	b := &sc.beam
	b.reset(ef)
	for _, ep := range eps {
		if !sc.seen(ep) {
			b.add(hcand{id: ep, dead: del != nil && del[ep], dist: h.dist(q, f.qn, ep)})
		}
	}
	f.armed = false // the descent's or the previous layer's threshold is not this beam's
	if b.full() {
		f.arm(-b.worst())
	}
	for i := b.first(); i < len(b.c); i = b.first() {
		b.c[i].done = true
		friends := h.links(b.c[i].id, level)
		if j := b.first(); level == 0 && j < len(b.c) {
			// The likely next expansion's list, on its way while this
			// one is scored: the beam's other dependent miss.
			next := [1]int32{b.c[j].id}
			f32.HintRows(h.l0, h.mmax0, next[:])
		}
		// The float32 pass runs over the whole list before anything is
		// scored, so that the float64 kernel takes what it leaves four
		// rows at a time. The threshold it sees is the one this list
		// started with, at worst looser than the one a friend-by-friend
		// pass would have reached: it leaves a superset, and the extra
		// rows fail the d < worst test below as they failed the filter.
		// Each friend is marked visited and kept unless it already was,
		// without a branch on a bit that is as good as random; the
		// rows kept are hinted into cache before the float32 pass.
		surv := slices.Grow(sc.surv[:0], len(friends))[:len(friends)]
		kept := 0
		for _, e := range friends {
			w := &sc.visited[e>>6]
			was := *w
			*w = was | 1<<(e&63)
			surv[kept] = e
			kept += int(^was>>(e&63)) & 1
		}
		surv = surv[:kept]
		sc.surv = surv
		f32.HintRows(h.s.data, h.s.dim, surv)
		surv = h.survivors(f, q, surv, sc)
		for j, d := range h.dists(q, q64, f.qn, surv, sc) {
			if b.full() && !(d < b.worst()) {
				continue
			}
			dead := del != nil && del[surv[j]]
			b.add(hcand{id: surv[j], dead: dead, dist: d})
			if !dead && b.full() {
				f.arm(-b.worst())
			}
		}
	}
	return b.results()
}

// nearer reports whether stored row kept is closer to candidate c (its
// row, with f armed at -c.dist over it) than c is to the node being
// linked: dist(c, kept) < c.dist. That is a comparison and not a
// score, so the prefilter's two tests decide it from a float32 dot,
// and the float64 kernel is asked only when neither can (never, in
// either direction, when gamma is +Inf).
func (h *HNSW) nearer(f *prefilter, row []float32, c hcand, kept int32, sc *hnswScratch) bool {
	sc.selCmps++
	a, rn := float64(f32.Dot(row, h.s.Row(int(kept)))), h.s.SqNorms()[kept]
	switch {
	case f.drops(a, rn):
		return false
	case f.beats(a, rn):
		return true
	}
	sc.selRefined++
	return h.dist(row, f.qn, kept) < c.dist
}

// selectNeighbors is the paper's Algorithm 4 heuristic: walking the
// candidates of a node nearest-first, keep one only if it is closer to
// the node than to every neighbor already kept — links then span
// distinct directions instead of piling into one cluster. Discarded
// candidates back-fill any remaining capacity (keepPrunedConnections),
// so low-degree regions stay reachable.
func (h *HNSW) selectNeighbors(cands []hcand, m int, sc *hnswScratch) []int32 {
	sel, spilled := sc.sel[:0], sc.spilled[:0]
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		row := h.s.Row(int(c.id))
		f := prefilter{metric: h.metric, gamma: h.gamma, qn: h.s.SqNorms()[c.id]}
		f.arm(-c.dist)
		good := true
		for _, kept := range sel {
			if h.nearer(&f, row, c, kept, sc) {
				good = false
				break
			}
		}
		if good {
			sel = append(sel, c.id)
		} else if len(spilled) < m {
			spilled = append(spilled, c.id)
		}
	}
	for _, id := range spilled {
		if len(sel) >= m {
			break
		}
		sel = append(sel, id)
	}
	sc.sel, sc.spilled = sel, spilled
	return sel
}

// shrink re-selects a node's neighbor list after it exceeded its
// degree cap, using the same diversity heuristic as insertion, and
// writes the selection back over the list. The beam's list, as wide as
// the list, sorts it.
func (h *HNSW) shrink(node int32, friends []int32, limit int, sc *hnswScratch) []int32 {
	q := h.s.Row(int(node))
	sc.beam.reset(len(friends))
	for i, d := range h.dists(q, sc.widen(q), h.s.SqNorms()[node], friends, sc) {
		sc.beam.add(hcand{id: friends[i], dist: d})
	}
	return append(friends[:0], h.selectNeighbors(sc.beam.results(), limit, sc)...)
}

// Store implements Index.
func (h *HNSW) Store() *Store { return h.s }

// Metric implements Index.
func (h *HNSW) Metric() Metric { return h.metric }

// M returns the graph's per-level degree target.
func (h *HNSW) M() int { return h.m }

// EfSearch returns the default query beam width.
func (h *HNSW) EfSearch() int { return h.ef }

// MaxLevel returns the top layer of the graph (0 for a flat graph).
func (h *HNSW) MaxLevel() int { return h.maxLevel }

// Search implements Index.
func (h *HNSW) Search(q []float32, k int) []Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := h.getScratch()
	res := h.search(q, k, -1, nil, sc)
	h.scratch.Put(sc)
	return res
}

// SearchRow implements Index.
func (h *HNSW) SearchRow(i, k int) []Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := h.getScratch()
	res := h.search(h.s.Row(i), k, i, nil, sc)
	h.scratch.Put(sc)
	return res
}

func (h *HNSW) search(q []float32, k, exclude int, dst []Result, sc *hnswScratch) []Result {
	checkDim(h.s, q)
	h.checkCoherent()
	n := h.s.Len()
	k = clampK(k, n)
	if k <= 0 || h.entry < 0 {
		return dst
	}
	// Every metric's filter needs the squared norm; scoreRow reads it
	// for Cosine only.
	f := prefilter{metric: h.metric, gamma: h.gamma, qn: sqNorm(q)}
	q64 := sc.widen(q)
	ep := h.entry
	epDist := h.dist(q, f.qn, ep)
	for l := h.maxLevel; l > 0; l-- {
		ep, epDist = h.greedyStep(q, &f, ep, epDist, l, sc)
	}
	ef := h.ef
	if ef < k+1 { // +1 leaves room to drop an excluded self-hit
		ef = k + 1
	}
	if ef > n {
		ef = n
	}
	sc.eps = append(sc.eps[:0], ep)
	// The k nearest results, all live, are the first live entries of
	// the beam's list, in closer order, which for the scores is
	// sortResults' order.
	start := len(dst)
	for _, c := range h.searchLayer(q, q64, &f, sc.eps, 0, ef, h.s.deleted, sc) {
		if len(dst)-start == k {
			break
		}
		if c.dead || int(c.id) == exclude {
			continue
		}
		score := -c.dist
		if score != score {
			// Which payload survives a sum of NaNs follows the operand
			// order the compiler picked for that accumulator, and dists
			// has four: report the one NaN.
			score = math.NaN()
		}
		dst = append(dst, Result{ID: int(c.id), Score: score})
	}
	return dst
}

// SearchBatch implements Index: queries are sharded across the
// configured workers, each with its own scratch, so per-query
// allocation is amortized.
func (h *HNSW) SearchBatch(qs [][]float32, k int) [][]Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([][]Result, len(qs))
	k = clampK(k, h.s.Len())
	if k <= 0 || len(qs) == 0 {
		return out
	}
	for _, q := range qs {
		checkDim(h.s, q)
	}
	parallelRange(len(qs), h.workers, func(lo, hi int) {
		sc := h.getScratch()
		buf := make([]Result, 0, (hi-lo)*k)
		for i := lo; i < hi; i++ {
			start := len(buf)
			buf = h.search(qs[i], k, -1, buf, sc)
			out[i] = buf[start:len(buf):len(buf)]
		}
		h.scratch.Put(sc)
	})
	return out
}

// ---- Graph export / import (snapshot persistence) -------------------

// HNSWGraph is the serializable topology of an HNSW index: everything
// except the vectors themselves, which live in the Store. The snapshot
// package persists it, one graph per shard, as a bundle's index
// trailer so a server can load a prebuilt graph instead of
// re-inserting every row at startup (see internal/snapshot and
// docs/INDEXES.md).
type HNSWGraph struct {
	Metric   Metric
	M        int
	EfSearch int
	Entry    int32
	Friends  [][][]int32 // per row, per level: out-neighbors
}

// Graph exports the index topology for persistence. The adjacency is
// deep-copied under the reader lock: a concurrent Insert rewires
// neighbor lists in place (the shrink path rewrites their backing
// arrays), so returning aliases would hand the caller a torn,
// racing snapshot. Tombstones are not part of the topology: compact
// (rebuild over the live rows) before persisting a graph that has
// seen deletes, or the deletions are lost on reload.
func (h *HNSW) Graph() *HNSWGraph {
	h.mu.RLock()
	defer h.mu.RUnlock()
	friends := make([][][]int32, len(h.l0n))
	for i := range friends {
		levels := make([][]int32, 1+len(h.upper[i]))
		for l := range levels {
			levels[l] = append([]int32(nil), h.links(int32(i), l)...)
		}
		friends[i] = levels
	}
	return &HNSWGraph{
		Metric:   h.metric,
		M:        h.m,
		EfSearch: h.ef,
		Entry:    h.entry,
		Friends:  friends,
	}
}

// HNSWFromGraph rebinds a persisted topology to its vector store,
// validating shape and every link so a corrupt or mismatched graph
// fails cleanly instead of panicking at query time, and copies the
// lists into the index's own storage. efSearch and workers override
// the persisted defaults when > 0.
func HNSWFromGraph(s *Store, g *HNSWGraph, efSearch, workers int) (*HNSW, error) {
	if len(g.Friends) != s.Len() {
		return nil, fmt.Errorf("vecstore: HNSW graph has %d nodes for a %d-row store", len(g.Friends), s.Len())
	}
	if g.M <= 0 || g.M > maxHNSWM {
		return nil, fmt.Errorf("vecstore: HNSW graph has invalid M %d (want 1..%d)", g.M, maxHNSWM)
	}
	ef := g.EfSearch
	if efSearch > 0 {
		ef = efSearch
	}
	if ef <= 0 {
		ef = defaultHNSWEf
	}
	h := &HNSW{
		s:       s,
		metric:  g.Metric,
		m:       g.M,
		mmax0:   2 * g.M,
		efc:     defaultHNSWEfC,
		ef:      ef,
		workers: normWorkers(workers),
		entry:   -1,
		gamma:   dotErrorBound(s.Dim()),
		// Incremental inserts over a rebound graph sample levels from a
		// fresh stream (the build-time stream position is not
		// persisted); mL depends only on M, so the distribution is
		// identical.
		mL:        1 / math.Log(float64(g.M)),
		rng:       xrand.New(hnswLevelStream ^ uint64(len(g.Friends))),
		builtMuts: s.Mutations(),
	}
	n := int32(s.Len())
	if n > 0 {
		if g.Entry < 0 || g.Entry >= n {
			return nil, fmt.Errorf("vecstore: HNSW graph entry point %d out of range [0, %d)", g.Entry, n)
		}
		h.entry, h.maxLevel = g.Entry, len(g.Friends[g.Entry])-1
	}
	for i, fr := range g.Friends {
		if len(fr) == 0 {
			return nil, fmt.Errorf("vecstore: HNSW graph node %d has no levels", i)
		}
		if len(fr)-1 > h.maxLevel {
			return nil, fmt.Errorf("vecstore: HNSW graph node %d reaches level %d above the entry point's %d", i, len(fr)-1, h.maxLevel)
		}
		for l, links := range fr {
			// A build never leaves a list above its cap, and the index
			// holds no more.
			if len(links) > h.levelCap(l) {
				return nil, fmt.Errorf("vecstore: HNSW graph node %d level %d has %d links, above the level's cap %d", i, l, len(links), h.levelCap(l))
			}
			for _, e := range links {
				if e < 0 || e >= n {
					return nil, fmt.Errorf("vecstore: HNSW graph node %d level %d links to out-of-range row %d", i, l, e)
				}
				if l >= len(g.Friends[e]) {
					return nil, fmt.Errorf("vecstore: HNSW graph node %d level %d links to row %d which only reaches level %d", i, l, e, len(g.Friends[e])-1)
				}
			}
		}
	}
	h.grow(int(n))
	for i, fr := range g.Friends {
		h.upper[i] = h.newUpper(len(fr) - 1)
		for l, links := range fr {
			h.setLinks(int32(i), l, links)
		}
	}
	s.SqNorms()
	return h, nil
}
