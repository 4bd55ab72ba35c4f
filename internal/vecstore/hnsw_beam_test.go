package vecstore

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"v2v/internal/f32"
)

// The beam's list (beam in hnsw.go) replaced the paper's two priority
// queues: a candidate min-heap, whose top is the next expansion, and a
// bounded result max-heap, whose top is the worst result. It also
// replaced the Shell sort that ordered a wave's peers into the beam's
// results and shrink's lists. The index searched and built with those
// is kept here, as it was, as the oracle the list must match bit for
// bit on finite data: the same graphs, the same result IDs and score
// bits, and the same candidates considered and rejected by the float32
// pass.

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

// heapScratch is an hnswScratch with the two heaps.
type heapScratch struct {
	*hnswScratch
	cand candHeap
	res  resultHeap
}

// begin clears the visited set and both heaps for a layer search.
func (sc *heapScratch) begin() {
	clear(sc.visited)
	sc.cand.h = sc.cand.h[:0]
	sc.res.h = sc.res.h[:0]
}

// extractAsc returns the retained results closest first: the result
// heap's array, sorted in place (closer is a total order wherever no
// distance is NaN, so this is the sequence popping the heap empty would
// give, reversed). The heap is spent; the slice is good until the next
// search begins.
func (sc *heapScratch) extractAsc() []hcand {
	sortCands(sc.res.h)
	return sc.res.h
}

// heapSearchLayer runs the bounded best-first beam search of the
// paper's Algorithm 2: expand the closest unexpanded candidate until
// the beam cannot improve the ef retained results. Results are left in
// sc.res. f carries the query's squared norm; once ef results are
// retained its threshold follows the worst of them. A row del marks
// (the store's tombstones; nil in the build) is scored and expanded but
// never retained: it routes the beam and takes no result slot.
func (h *HNSW) heapSearchLayer(q []float32, q64 []float64, f *prefilter, eps []int32, level, ef int, del []bool, sc *heapScratch) {
	sc.begin()
	for _, ep := range eps {
		if sc.seen(ep) {
			continue
		}
		d := h.dist(q, f.qn, ep)
		sc.cand.push(hcand{id: ep, dist: d})
		if del == nil || !del[ep] {
			sc.res.push(hcand{id: ep, dist: d})
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
		if level == 0 && len(sc.cand.h) > 0 {
			// The likely next expansion's list, on its way while this
			// one is scored: the beam's other dependent miss.
			next := [1]int32{sc.cand.h[0].id}
			f32.HintRows(h.l0, h.mmax0, next[:])
		}
		friends := h.links(c.id, level)
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
		surv = h.survivors(f, q, surv, sc.hnswScratch)
		for j, d := range h.dists(q, q64, f.qn, surv, sc.hnswScratch) {
			full := len(sc.res.h) == ef
			if full && !(d < sc.res.h[0].dist) {
				continue
			}
			e := surv[j]
			sc.cand.push(hcand{id: e, dist: d})
			if del != nil && del[e] {
				continue
			}
			if full {
				sc.res.replaceTop(hcand{id: e, dist: d})
			} else {
				sc.res.push(hcand{id: e, dist: d})
			}
			if len(sc.res.h) == ef {
				f.arm(-sc.res.h[0].dist)
			}
		}
	}
}

// heapSearchNeighbors is searchNeighbors over heapSearchLayer.
func (h *HNSW) heapSearchNeighbors(i int32, lo int, sc *heapScratch) {
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
			ep, epDist = h.greedyStep(q, &f, ep, epDist, l, sc.hnswScratch)
		}
		eps = append(eps, ep)
	}

	for l := level; l >= 0; l-- {
		cands := sc.res.h[:0]
		if len(eps) > 0 && l <= h.maxLevel {
			h.heapSearchLayer(q, q64, &f, eps, l, h.efc, nil, sc)
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
			for j, d := range h.dists(q, q64, f.qn, peers, sc.hnswScratch) {
				if c := (hcand{id: peers[j], dist: d}); !full || closer(c, cands[h.efc-1]) {
					cands = append(cands, c)
				}
			}
			sortCands(cands)
			sc.res.h = cands
			cands = cands[:min(len(cands), h.efc)]
		}
		sc.peers = peers
		h.setLinks(i, l, h.selectNeighbors(cands, h.m, sc.hnswScratch))
	}
	sc.eps = eps
}

// heapSearch is search over heapSearchLayer.
func (h *HNSW) heapSearch(q []float32, k, exclude int, sc *heapScratch) []Result {
	checkDim(h.s, q)
	h.checkCoherent()
	n := h.s.Len()
	k = clampK(k, n)
	if k <= 0 || h.entry < 0 {
		return nil
	}
	f := prefilter{metric: h.metric, gamma: h.gamma, qn: sqNorm(q)}
	q64 := sc.widen(q)
	ep := h.entry
	epDist := h.dist(q, f.qn, ep)
	for l := h.maxLevel; l > 0; l-- {
		ep, epDist = h.greedyStep(q, &f, ep, epDist, l, sc.hnswScratch)
	}
	ef := h.ef
	if ef < k+1 { // +1 leaves room to drop an excluded self-hit
		ef = k + 1
	}
	if ef > n {
		ef = n
	}
	sc.eps = append(sc.eps[:0], ep)
	h.heapSearchLayer(q, q64, &f, sc.eps, 0, ef, h.s.deleted, sc)
	// Pull the k nearest results, all live, out of the beam: heapify
	// its ef nearest-first, in O(ef), and pop until k are kept. closer
	// is a total order wherever no distance is NaN, so these are the
	// first k of the sorted beam.
	near := candHeap{sc.res.h}
	near.init()
	var dst []Result
	for len(near.h) > 0 && len(dst) < k {
		c := near.pop()
		if int(c.id) == exclude {
			continue
		}
		score := -c.dist
		if score != score {
			score = math.NaN()
		}
		dst = append(dst, Result{ID: int(c.id), Score: score})
	}
	sortResults(dst)
	return dst
}

// growOne appends row to h's store and links it as a wave of one, as
// Insert does, through the beam (sc) or through the heaps (hs). Below
// serialRows rows NewHNSW's build is this, row after row.
func growOne(h *HNSW, row []float32, sc *hnswScratch, hs *heapScratch) {
	i := h.s.AppendRow(row)
	h.grow(1)
	if hs == nil {
		h.link(i, i+1, []*hnswScratch{sc})
		return
	}
	h.upper[i] = h.newUpper(sampleLevel(h.rng, h.mL))
	h.heapSearchNeighbors(int32(i), i, hs)
	h.heapBackLinks(int32(i), hs.hnswScratch)
}

// heapBackLinks is link's phase 2 for a wave of one, row i: each of
// its lists asks for a back-link, and a list pushed over its cap is
// re-selected by heapShrink. The lists are distinct, so their order
// does not matter.
func (h *HNSW) heapBackLinks(i int32, sc *hnswScratch) {
	level := len(h.upper[i])
	if h.entry < 0 || level > h.maxLevel {
		h.entry, h.maxLevel = i, level
	}
	for l := 0; l <= level; l++ {
		for _, to := range h.links(i, l) {
			fr := append(append(sc.links[:0], h.links(to, l)...), i)
			if limit := h.levelCap(l); len(fr) > limit {
				fr = h.heapShrink(to, fr, limit, sc)
			}
			h.setLinks(to, l, fr)
			sc.links = fr
		}
	}
}

// heapShrink is shrink sorting its list with sortCands.
func (h *HNSW) heapShrink(node int32, friends []int32, limit int, sc *hnswScratch) []int32 {
	var near []hcand
	q := h.s.Row(int(node))
	for i, d := range h.dists(q, sc.widen(q), h.s.SqNorms()[node], friends, sc) {
		near = append(near, hcand{id: friends[i], dist: d})
	}
	sortCands(near)
	return append(friends[:0], h.selectNeighbors(near, limit, sc)...)
}

// TestHNSWBeamMatchesHeaps holds the beam's list to the heaps' oracle
// on scan_test.go's finite adversarial stores (ulp-apart rows, distance
// ties, extreme magnitudes, zero rows), for every metric, at filterCfg,
// tightCfg and the defaults: 100 rows built, then 50 inserted, with and
// without tombstones among the first 100. After the build and after the
// inserts, the graph must be the oracle's at every node and level, and
// so must the candidates the beam considered and rejected; every query
// (the store's own query points and four stored rows searched without
// themselves, at k 1, 10, 40 and n) must return the oracle's IDs and
// score bits after considering and rejecting the oracle's candidates.
// Non-finite stores are out: closer is not the heaps' order on NaN
// distances, and no loader accepts them.
func TestHNSWBeamMatchesHeaps(t *testing.T) {
	const built, n = 100, 150
	cfgs := map[string]HNSWConfig{"M=6": filterCfg, "M=2": tightCfg, "defaults": {Seed: 17}}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, dim := range []int{1, 7, 50, 64} {
				for kind, e := range adversarialStores(n, dim, uint64(dim)) {
					if kind == "non-finite" {
						continue
					}
					for _, metric := range []Metric{Cosine, Dot, Euclidean} {
						for _, tombstones := range []bool{false, true} {
							what := fmt.Sprintf("dim %d %s %v tombstones=%v", dim, kind, metric, tombstones)
							checkBeamMatchesHeaps(t, what, e, metric, cfg, built, tombstones)
						}
					}
				}
			}
		})
	}
}

func checkBeamMatchesHeaps(t *testing.T, what string, e adversarialStore, metric Metric, cfg HNSWConfig, built int, tombstones bool) {
	t.Helper()
	n, dim := e.s.Len(), e.s.Dim()
	newIndex := func() *HNSW {
		h, err := NewHNSW(New(0, dim), metric, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	got, want := newIndex(), newIndex()
	sc := &hnswScratch{visited: make([]uint64, visitedWords(n))}
	hs := &heapScratch{hnswScratch: &hnswScratch{visited: make([]uint64, visitedWords(n))}}
	check := func(stage string) {
		t.Helper()
		if sc.evals != hs.evals || sc.rejected != hs.rejected {
			t.Fatalf("%s %s: considered %d candidates and rejected %d, the heaps %d and %d", what, stage, sc.evals, sc.rejected, hs.evals, hs.rejected)
		}
		checkSameGraphAs(t, what+" "+stage, got, want, "the heaps")
		type query struct {
			q       []float32
			exclude int
		}
		var queries []query
		for _, q := range e.qs {
			queries = append(queries, query{q, -1})
		}
		for _, i := range []int{0, 1, built / 2, got.s.Len() - 1} {
			queries = append(queries, query{got.s.Row(i), i})
		}
		for _, k := range []int{1, 10, 40, n} {
			for qi, q := range queries {
				sc.evals, sc.rejected, hs.evals, hs.rejected = 0, 0, 0, 0
				g := got.search(q.q, k, q.exclude, nil, sc)
				w := want.heapSearch(q.q, k, q.exclude, hs)
				at := fmt.Sprintf("%s %s query %d k=%d", what, stage, qi, k)
				if sc.evals != hs.evals || sc.rejected != hs.rejected {
					t.Fatalf("%s: considered %d candidates and rejected %d, the heaps %d and %d", at, sc.evals, sc.rejected, hs.evals, hs.rejected)
				}
				if len(g) != len(w) {
					t.Fatalf("%s: %d results, the heaps %d", at, len(g), len(w))
				}
				for r := range w {
					if g[r].ID != w[r].ID || math.Float64bits(g[r].Score) != math.Float64bits(w[r].Score) {
						t.Fatalf("%s rank %d: %+v, the heaps %+v", at, r, g[r], w[r])
					}
				}
			}
		}
		sc.evals, sc.rejected, hs.evals, hs.rejected = 0, 0, 0, 0
	}

	for i := 0; i < built; i++ {
		growOne(got, e.s.Row(i), sc, nil)
		growOne(want, e.s.Row(i), nil, hs)
	}
	check("built")
	if tombstones {
		for i := 0; i < built; i += 3 {
			if got.Delete(i) != nil || want.Delete(i) != nil {
				t.Fatalf("%s: Delete(%d) failed", what, i)
			}
		}
		check("built, deleted")
	}
	for i := built; i < n; i++ {
		growOne(got, e.s.Row(i), sc, nil)
		growOne(want, e.s.Row(i), nil, hs)
	}
	check("grown")
}

// checkSameGraphAs is checkSameGraph naming the reference.
func checkSameGraphAs(t testing.TB, what string, got, want *HNSW, ref string) {
	t.Helper()
	g, w := got.Graph(), want.Graph()
	if g.Entry != w.Entry || got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("%s: entry %d at level %d, %s have %d at %d", what, g.Entry, got.MaxLevel(), ref, w.Entry, want.MaxLevel())
	}
	for i := range w.Friends {
		if !reflect.DeepEqual(g.Friends[i], w.Friends[i]) {
			t.Fatalf("%s: node %d links %v, %s have %v", what, i, g.Friends[i], ref, w.Friends[i])
		}
	}
}
