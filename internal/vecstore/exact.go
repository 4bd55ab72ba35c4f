package vecstore

import (
	"fmt"
	"sync"
)

// Exact is the brute-force index: a partitioned parallel scan with
// bounded top-k heaps per partition. Results are exact, and — because
// the int8 and float32 passes of the scan only reject rows that
// provably cannot enter a heap, and the float64 kernels that score the
// rest preserve the seed's accumulation order — bit-for-bit identical
// to the historical sort-everything paths (see scan.go).
//
// Exact implements MutableIndex trivially: an appended row is covered
// by the very next scan and a tombstoned row is skipped by it, so
// Insert and Delete only need the store mutation plus the reader
// exclusion the shared lock provides.
type Exact struct {
	s       *Store
	metric  Metric
	workers int

	// mu lets Insert/Delete run concurrently with queries: mutations
	// hold the writer side, queries the reader side.
	mu sync.RWMutex
}

// serialScanFloor is the row count below which a single query is
// scanned serially; goroutine fan-out costs more than it saves on
// small stores. BenchmarkSerialScanFloor measures both sides of it
// (docs/VECTORS.md has the figures).
const serialScanFloor = 4096

// NewExact builds an exact index. workers <= 0 means GOMAXPROCS.
func NewExact(s *Store, metric Metric, workers int) *Exact {
	s.SqNorms() // precompute so concurrent queries never race the caches
	s.int8Rows()
	return &Exact{s: s, metric: metric, workers: normWorkers(workers)}
}

// Store implements Index.
func (e *Exact) Store() *Store { return e.s }

// Metric implements Index.
func (e *Exact) Metric() Metric { return e.metric }

// Insert implements MutableIndex: it appends v to the store (scans
// cover it immediately) and returns the new row ID.
func (e *Exact) Insert(v []float32) (int, error) {
	if len(v) != e.s.Dim() {
		return 0, fmt.Errorf("vecstore: Insert dim %d does not match store dim %d", len(v), e.s.Dim())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.AppendRow(v), nil
}

// Delete implements MutableIndex.
func (e *Exact) Delete(id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.Delete(id)
}

// Search implements Index.
func (e *Exact) Search(q []float32, k int) []Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.search(q, k, -1, nil)
}

// SearchRow implements Index.
func (e *Exact) SearchRow(i, k int) []Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.search(e.s.Row(i), k, i, nil)
}

// search runs one query, excluding row exclude (-1 for none),
// appending the results to dst.
func (e *Exact) search(q []float32, k int, exclude int, dst []Result) []Result {
	checkDim(e.s, q)
	n := e.s.Len()
	// No more than Live rows can come back, and a heap larger than
	// that never fills, which would keep the prefilter off.
	k = clampK(k, e.s.Live())
	if k <= 0 {
		return dst
	}
	workers := e.workers
	if workers > 1 && n >= serialScanFloor {
		return e.searchParallel(q, k, exclude, dst, workers)
	}
	var t TopK
	t.Reset(k)
	scanRange(e.s, e.metric, q, 0, n, exclude, &t)
	return t.Append(dst)
}

// scanScratch is the per-query state of searchParallel, pooled so a
// query allocates its result and its goroutines, not its heaps.
type scanScratch struct {
	heaps []TopK
	cands []Result
	wg    sync.WaitGroup
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// searchParallel partitions the rows across workers, each with its
// own bounded heap, and merges the per-partition candidates. The
// merge is a plain best-first sort of <= workers*k candidates, so the
// result is deterministic regardless of worker count.
func (e *Exact) searchParallel(q []float32, k, exclude int, dst []Result, workers int) []Result {
	n := e.s.Len()
	if workers > n {
		workers = n
	}
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	if cap(sc.heaps) < workers {
		sc.heaps = make([]TopK, workers)
	}
	heaps := sc.heaps[:workers]
	for w := range heaps {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			heaps[w].Reset(clampK(k, hi-lo))
			scanRange(e.s, e.metric, q, lo, hi, exclude, &heaps[w])
		}()
	}
	sc.wg.Wait()
	cands := sc.cands[:0]
	for w := range heaps {
		cands = heaps[w].Append(cands)
	}
	sc.cands = cands
	sortResults(cands)
	return append(dst, cands[:clampK(k, len(cands))]...)
}

// SearchBatch implements Index. Queries are sharded across workers;
// each worker reuses one heap and all results share one backing
// allocation, so per-query allocation is amortized to ~0.
func (e *Exact) SearchBatch(qs [][]float32, k int) [][]Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.s.Len()
	k = clampK(k, e.s.Live())
	out := make([][]Result, len(qs))
	if k <= 0 || len(qs) == 0 {
		return out
	}
	for _, q := range qs {
		checkDim(e.s, q)
	}
	backing := make([]Result, len(qs)*k)
	workers := e.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	run := func(lo, hi int) {
		var t TopK
		for i := lo; i < hi; i++ {
			t.Reset(k)
			scanRange(e.s, e.metric, qs[i], 0, n, -1, &t)
			out[i] = t.Append(backing[i*k : i*k : (i+1)*k])
		}
	}
	if workers <= 1 {
		run(0, len(qs))
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(qs) / workers
		hi := (w + 1) * len(qs) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}
