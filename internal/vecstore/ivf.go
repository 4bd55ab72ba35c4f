package vecstore

import (
	"fmt"
	"math"
	"sync"

	"v2v/internal/cluster"
)

// IVFConfig tunes the inverted-file index; see docs/VECTORS.md for
// the recall/latency trade-off.
type IVFConfig struct {
	// NLists is the number of coarse cells (0 = sqrt(n), clamped to
	// [1, n]).
	NLists int
	// NProbe is the number of cells scanned per query
	// (0 = max(1, NLists/4)).
	NProbe int
	// Seed drives quantizer training; a fixed seed gives a
	// deterministic index regardless of Workers.
	Seed uint64
	// Workers bounds build/batch parallelism (0 = GOMAXPROCS).
	Workers int
}

// maxTrainPoints caps the quantizer training sample; training on a
// deterministic stride sample bounds build cost at large n without
// hurting cell quality (the full store is still assigned to cells
// afterwards).
const maxTrainPoints = 8192

// IVF is an inverted-file approximate index: a k-means coarse
// quantizer (internal/cluster's k-means++ and Lloyd, one restart)
// partitions the rows into cells, and a query scans only
// the cells whose centroids score best. Recall is controlled by
// NProbe; NProbe == NLists degenerates to an exact scan in cell
// order.
//
// IVF implements MutableIndex: Insert appends the row and assigns it
// to its nearest (already-trained) centroid's cell, Delete tombstones
// it and queries filter it out. The quantizer itself is never
// retrained online — cell quality degrades only if the data
// distribution drifts, which a compaction rebuild resets.
type IVF struct {
	s         *Store
	metric    Metric
	nprobe    int
	workers   int
	centroids *Store
	lists     [][]int32

	// mu lets Insert/Delete run concurrently with queries; builtMuts
	// and indexed detect store mutations that bypassed the index (see
	// checkCoherent).
	mu        sync.RWMutex
	builtMuts uint64
	indexed   int
}

// NewIVF trains the coarse quantizer and builds the inverted lists.
func NewIVF(s *Store, metric Metric, cfg IVFConfig) (*IVF, error) {
	n := s.Len()
	if n == 0 {
		return nil, fmt.Errorf("vecstore: cannot build IVF over an empty store")
	}
	nlists := cfg.NLists
	if nlists <= 0 {
		nlists = int(math.Sqrt(float64(n)))
	}
	if nlists < 1 {
		nlists = 1
	}
	if nlists > n {
		nlists = n
	}
	nprobe := cfg.NProbe
	if nprobe <= 0 {
		nprobe = nlists / 4
		if nprobe < 1 {
			nprobe = 1
		}
	}
	if nprobe > nlists {
		nprobe = nlists
	}
	workers := normWorkers(cfg.Workers)

	// Cosine clusters on L2-normalized copies so that cell shape
	// follows angle, not magnitude; other metrics cluster raw rows.
	space := s
	if metric == Cosine {
		space = normalizedCopy(s)
	}
	// The quantizer is one k-means++/Lloyd descent over a
	// deterministic stride sample: at most 10 iterations, stopping
	// early once SSE improves by less than 1e-4 of itself.
	m := min(n, maxTrainPoints)
	stride := float64(n) / float64(m)
	sample := make([][]float64, m)
	for i := range sample {
		row := space.Row(int(float64(i) * stride))
		p := make([]float64, len(row))
		for j, x := range row {
			p[j] = float64(x)
		}
		sample[i] = p
	}
	km, err := cluster.KMeans(sample, cluster.Config{
		K: min(nlists, m), Restarts: 1, MaxIter: 10, Tolerance: 1e-4,
		PlusPlus: true, Seed: cfg.Seed, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("vecstore: IVF quantizer: %w", err)
	}
	centroids := New(len(km.Centers), s.Dim())
	for c, ctr := range km.Centers {
		row := centroids.Row(c)
		for j, x := range ctr {
			row[j] = float32(x)
		}
	}

	// Final full-store assignment pass.
	assign := make([]int32, n)
	parallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			assign[i] = int32(nearestCentroid(centroids, space.Row(i)))
		}
	})
	lists := make([][]int32, centroids.Len())
	counts := make([]int, centroids.Len())
	for _, c := range assign {
		counts[c]++
	}
	backing := make([]int32, n)
	off := 0
	for c := range lists {
		lists[c] = backing[off : off : off+counts[c]]
		off += counts[c]
	}
	for i, c := range assign {
		lists[c] = append(lists[c], int32(i))
	}

	s.SqNorms() // precompute for concurrent queries
	centroids.SqNorms()
	return &IVF{
		s: s, metric: metric, nprobe: nprobe, workers: workers,
		centroids: centroids, lists: lists,
		builtMuts: s.Mutations(), indexed: n,
	}, nil
}

// Insert implements MutableIndex: the new row joins the cell of its
// nearest centroid (in the same normalized space the quantizer was
// trained in), so queries probing that cell see it immediately.
func (v *IVF) Insert(vec []float32) (int, error) {
	if len(vec) != v.s.Dim() {
		return 0, fmt.Errorf("vecstore: Insert dim %d does not match store dim %d", len(vec), v.s.Dim())
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	id := v.s.AppendRow(vec)
	av := vec
	if v.metric == Cosine {
		// The quantizer was trained on L2-normalized rows; assign in
		// the same space (zero vectors stay zero, as in normalizedCopy).
		if n := sqNorm(vec); n > 0 {
			inv := float32(1 / math.Sqrt(n))
			nv := make([]float32, len(vec))
			for i, x := range vec {
				nv[i] = x * inv
			}
			av = nv
		}
	}
	c := nearestCentroid(v.centroids, av)
	v.lists[c] = append(v.lists[c], int32(id))
	v.indexed++
	return id, nil
}

// Delete implements MutableIndex: the row is tombstoned in the store
// and filtered at probe time; its inverted-list slot is reclaimed by
// the next rebuild.
func (v *IVF) Delete(id int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.s.Delete(id)
}

// checkCoherent panics with a descriptive message when the store was
// mutated behind the index's back — an in-place SetRow (cell
// assignments silently stale) or a direct append (rows invisible to
// every probe). Returning wrong results silently is the failure mode
// this replaces; callers that mutate must rebuild, or route writes
// through Insert/Delete.
func (v *IVF) checkCoherent() {
	if v.s.Mutations() != v.builtMuts {
		panic("vecstore: IVF index is stale: Store.SetRow overwrote rows after the index was built, leaving cell assignments out of date; rebuild the index or apply writes through MutableIndex.Insert/Delete")
	}
	if v.indexed != v.s.Len() {
		panic(fmt.Sprintf("vecstore: IVF index covers %d of %d store rows: rows were appended to the store without MutableIndex.Insert", v.indexed, v.s.Len()))
	}
}

// normalizedCopy returns an L2-normalized copy of s (zero rows stay
// zero).
func normalizedCopy(s *Store) *Store {
	out := New(s.Len(), s.Dim())
	norms := s.SqNorms()
	for i := 0; i < s.Len(); i++ {
		src, dst := s.Row(i), out.Row(i)
		if norms[i] == 0 {
			continue
		}
		inv := float32(1 / math.Sqrt(norms[i]))
		for j, x := range src {
			dst[j] = x * inv
		}
	}
	return out
}

// nearestCentroid returns the centroid with the smallest squared
// Euclidean distance to v, ties toward the smaller index.
func nearestCentroid(centroids *Store, v []float32) int {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < centroids.Len(); c++ {
		if d := sqDistF64(v, centroids.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// parallelRange splits [0, n) across workers and blocks until done.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Store implements Index.
func (v *IVF) Store() *Store { return v.s }

// Metric implements Index.
func (v *IVF) Metric() Metric { return v.metric }

// NLists returns the number of coarse cells.
func (v *IVF) NLists() int { return v.centroids.Len() }

// NProbe returns the number of cells scanned per query.
func (v *IVF) NProbe() int { return v.nprobe }

// ivfScratch holds the per-query working state so batch queries reuse
// it across the whole shard: no per-query heap or probe allocations.
type ivfScratch struct {
	top    TopK
	probes []Result
}

// Search implements Index.
func (v *IVF) Search(q []float32, k int) []Result {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.search(q, k, -1, nil, new(ivfScratch))
}

// SearchRow implements Index.
func (v *IVF) SearchRow(i, k int) []Result {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.search(v.s.Row(i), k, i, nil, new(ivfScratch))
}

func (v *IVF) search(q []float32, k, exclude int, dst []Result, sc *ivfScratch) []Result {
	checkDim(v.s, q)
	v.checkCoherent()
	k = clampK(k, v.s.Len())
	if k <= 0 {
		return dst
	}
	qn := queryNorm(v.metric, q)

	// Rank cells by the query's score against their centroids, in the
	// index metric (for cosine the centroids of normalized rows are
	// not unit vectors, but cosine against them ranks cells
	// correctly).
	sc.top.Reset(v.nprobe)
	cn := v.centroids.SqNorms()
	for c := 0; c < v.centroids.Len(); c++ {
		switch v.metric {
		case Euclidean:
			sc.top.Push(c, -sqDistF64(q, v.centroids.Row(c)))
		case Cosine:
			sc.top.Push(c, cosineFromDot(dotF64(q, v.centroids.Row(c)), qn, cn[c]))
		default:
			sc.top.Push(c, dotF64(q, v.centroids.Row(c)))
		}
	}
	sc.probes = sc.top.Append(sc.probes[:0])

	sc.top.Reset(k)
	del := v.s.deleted
	for _, p := range sc.probes {
		for _, id := range v.lists[p.ID] {
			i := int(id)
			if i == exclude || (del != nil && del[i]) {
				continue
			}
			sc.top.Push(i, scoreRow(v.s, v.metric, q, qn, i))
		}
	}
	return sc.top.Append(dst)
}

// SearchBatch implements Index; queries are sharded across workers
// with per-worker scratch, amortizing allocation.
func (v *IVF) SearchBatch(qs [][]float32, k int) [][]Result {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([][]Result, len(qs))
	k = clampK(k, v.s.Len())
	if k <= 0 || len(qs) == 0 {
		return out
	}
	parallelRange(len(qs), v.workers, func(lo, hi int) {
		var sc ivfScratch
		// One backing allocation per shard; each query appends at
		// most k results, so the buffer never reallocates.
		buf := make([]Result, 0, (hi-lo)*k)
		for i := lo; i < hi; i++ {
			start := len(buf)
			buf = v.search(qs[i], k, -1, buf, &sc)
			out[i] = buf[start:len(buf):len(buf)]
		}
	})
	return out
}
