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
// bounded best-first beam (efSearch) there. Search cost grows roughly
// logarithmically with the store size — sublinear where Exact stays
// linear in rows — at the price of approximate results and an
// O(n log n) build.
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
// kernel's bits. Neighbour selection, which is most of an insert,
// needs no score at all, only "is this candidate closer to a kept
// neighbour than to the new node": the float32 dot answers through
// the prefilter's two tests (provably not closer, provably closer)
// and the float64 kernel decides the comparisons neither can. The
// float32 pass only ever answers a comparison the float64 score would
// answer the same way, so graphs and results are bit for bit those of
// scoring every candidate (TestHNSWFilterParity, whose reference sets
// gamma to +Inf; TestHNSWGoldenGraphs).
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
		cands := sc.res.h[:0]
		if len(eps) > 0 && l <= h.maxLevel {
			h.searchLayer(q, q64, &f, eps, l, h.efc, nil, sc)
			cands = sc.extractAsc()
			// Next level down starts from everything this beam found.
			eps = eps[:0]
			for _, c := range cands {
				eps = append(eps, c.id)
			}
		}
		peers := sc.peers[:0]
		for p := lo; p < int(i); p++ {
			if len(h.upper[p]) >= l {
				peers = append(peers, int32(p))
			}
		}
		if len(peers) > 0 {
			// The peers join as if the beam had found them: its efc
			// nearest of the union are the candidates. Offered every peer,
			// selection would keep far ones for their novel directions.
			full := len(cands) == h.efc
			for j, d := range h.dists(q, q64, f.qn, peers, sc) {
				if c := (hcand{peers[j], d}); !full || closer(c, cands[h.efc-1]) {
					cands = append(cands, c)
				}
			}
			sortCands(cands)
			sc.res.h = cands
			cands = cands[:min(len(cands), h.efc)]
		}
		sc.peers = peers
		h.setLinks(i, l, h.selectNeighbors(cands, h.m, sc))
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
// query.
type hcand struct {
	id   int32
	dist float64
}

// closer orders candidates nearest-first, ties toward the smaller ID
// so searches are deterministic.
func closer(a, b hcand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// hnswScratch is the reusable per-search state: a visited bitset
// (one bit per row, so that a search's marks stay in L1; cleared per
// layer search), the candidate min-heap, the bounded result max-heap,
// and small reusable slices, so that a search allocates its result and
// an insert little beyond its upper-level lists.
type hnswScratch struct {
	visited []uint64
	cand    candHeap
	res     resultHeap
	eps     []int32
	q64     []float64 // the query of the search or insert, widened
	sel     []int32   // selectNeighbors' selection
	spilled []int32   // selectNeighbors' discarded candidates
	near    []hcand   // shrink's sorted list
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

// begin clears the visited set and both heaps for a layer search.
func (sc *hnswScratch) begin() {
	clear(sc.visited)
	sc.cand.h = sc.cand.h[:0]
	sc.res.h = sc.res.h[:0]
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

// extractAsc returns the retained results closest first: the result
// heap's array, sorted in place (closer is a total order wherever no
// distance is NaN, so this is the sequence popping the heap empty would
// give, reversed). The heap is spent; the slice is good until the next
// search begins.
func (sc *hnswScratch) extractAsc() []hcand {
	sortCands(sc.res.h)
	return sc.res.h
}

// searchLayer runs the bounded best-first beam search of the paper's
// Algorithm 2: expand the closest unexpanded candidate until the beam
// cannot improve the ef retained results. Results are left in sc.res.
// f carries the query's squared norm; once ef results are retained its
// threshold follows the worst of them. A row del marks (the store's
// tombstones; nil in the build) is scored and expanded but never
// retained: it routes the beam and takes no result slot.
func (h *HNSW) searchLayer(q []float32, q64 []float64, f *prefilter, eps []int32, level, ef int, del []bool, sc *hnswScratch) {
	sc.begin()
	for _, ep := range eps {
		if sc.seen(ep) {
			continue
		}
		d := h.dist(q, f.qn, ep)
		sc.cand.push(hcand{ep, d})
		if del == nil || !del[ep] {
			sc.res.push(hcand{ep, d})
		}
	}
	for len(sc.res.h) > ef {
		sc.res.pop()
	}
	f.armed = false // the descent's or the previous layer's threshold is not this beam's
	if len(sc.res.h) == ef {
		f.arm(-sc.res.h[0].dist)
	}
	for len(sc.cand.h) > 0 {
		c := sc.cand.pop()
		if len(sc.res.h) == ef && c.dist > sc.res.h[0].dist {
			break
		}
		friends := h.links(c.id, level)
		// The float32 pass runs over the whole list before anything is
		// scored, so that the float64 kernel takes what it leaves four
		// rows at a time. The threshold it sees is the one this list
		// started with, at worst looser than the one a friend-by-friend
		// pass would have reached: it leaves a superset, and the extra
		// rows fail the d < worst test below as they failed the filter.
		surv := sc.surv[:0]
		for _, e := range friends {
			if !sc.seen(e) {
				surv = append(surv, e)
			}
		}
		sc.surv = surv
		surv = h.survivors(f, q, surv, sc)
		for j, d := range h.dists(q, q64, f.qn, surv, sc) {
			full := len(sc.res.h) == ef
			if full && !(d < sc.res.h[0].dist) {
				continue
			}
			e := surv[j]
			sc.cand.push(hcand{e, d})
			if del != nil && del[e] {
				continue
			}
			if full {
				sc.res.replaceTop(hcand{e, d})
			} else {
				sc.res.push(hcand{e, d})
			}
			if len(sc.res.h) == ef {
				f.arm(-sc.res.h[0].dist)
			}
		}
	}
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
// writes the selection back over the list.
func (h *HNSW) shrink(node int32, friends []int32, limit int, sc *hnswScratch) []int32 {
	near := sc.near[:0]
	q := h.s.Row(int(node))
	for i, d := range h.dists(q, sc.widen(q), h.s.SqNorms()[node], friends, sc) {
		near = append(near, hcand{friends[i], d})
	}
	sortCands(near)
	sc.near = near
	return append(friends[:0], h.selectNeighbors(near, limit, sc)...)
}

// sortCands orders closest first: a Shell sort (Ciura's gaps), which
// on the few dozen to few hundred candidates of a list or a beam
// beats a generic sort that calls its comparison through a pointer.
func sortCands(cs []hcand) {
	for _, gap := range [...]int{132, 57, 23, 10, 4, 1} {
		for i := gap; i < len(cs); i++ {
			x := cs[i]
			j := i
			for ; j >= gap && closer(x, cs[j-gap]); j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = x
		}
	}
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
	h.searchLayer(q, q64, &f, sc.eps, 0, ef, h.s.deleted, sc)
	// Pull the k nearest results, all live, out of the beam: heapify
	// its ef nearest-first, in O(ef), and pop until k are kept. closer
	// is a total order wherever no distance is NaN, so these are the
	// first k of the sorted beam.
	near := candHeap{sc.res.h}
	near.init()
	start := len(dst)
	for len(near.h) > 0 && len(dst)-start < k {
		c := near.pop()
		if int(c.id) == exclude {
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
	sortResults(dst[start:])
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

// ---- Heaps ----------------------------------------------------------

// candHeap is a min-heap by distance: pop returns the closest
// candidate (the beam's next expansion).
type candHeap struct{ h []hcand }

func (q *candHeap) push(c hcand) {
	q.h = append(q.h, c)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *candHeap) pop() hcand {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.siftDown(0)
	return top
}

// init orders an arbitrary array into a heap, in O(len).
func (q *candHeap) init() {
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// siftDown restores the heap below h[i] after h[i] was overwritten.
func (q *candHeap) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && closer(q.h[l], q.h[best]) {
			best = l
		}
		if r < n && closer(q.h[r], q.h[best]) {
			best = r
		}
		if best == i {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}

// resultHeap is a max-heap by distance: h[0] is the farthest retained
// result, so a bounded beam evicts in O(log ef).
type resultHeap struct{ h []hcand }

func (q *resultHeap) push(c hcand) {
	q.h = append(q.h, c)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(q.h[p], q.h[i]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *resultHeap) pop() hcand {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.siftDown()
	return top
}

// replaceTop evicts the farthest result for c in one sift: the heap a
// push and a pop would leave, for a c closer than the top.
func (q *resultHeap) replaceTop(c hcand) {
	q.h[0] = c
	q.siftDown()
}

// siftDown restores the heap after h[0] was overwritten.
func (q *resultHeap) siftDown() {
	i, n := 0, len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && closer(q.h[worst], q.h[l]) {
			worst = l
		}
		if r < n && closer(q.h[worst], q.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		q.h[i], q.h[worst] = q.h[worst], q.h[i]
		i = worst
	}
}
