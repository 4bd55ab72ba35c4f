package vecstore

import (
	"fmt"
	"sync"
)

// Exact is the brute-force index: one scan per query, on the caller's
// goroutine, into a bounded top-k heap, skipping the cells of the
// store's cut whose bound proves no row of theirs enters it. Results
// are exact, and — because the cells skipped and the int8 and float32
// passes of the scan only reject rows that provably cannot enter the
// heap, and the float64 kernels that score the rest preserve the
// seed's accumulation order — bit-for-bit identical to the historical
// sort-everything paths (see scan.go). SearchBatch spreads its queries
// over workers.
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

// NewExact builds an exact index: the store's norms and int8 shadow,
// cut into cells when the store is large and clustered enough for that
// to pay (cells.go), on up to workers goroutines. workers <= 0 means
// GOMAXPROCS.
func NewExact(s *Store, metric Metric, workers int) *Exact {
	return newExact(s, metric, workers, cellRule{})
}

// newExact is NewExact cutting the store as rule says.
func newExact(s *Store, metric Metric, workers int, rule cellRule) *Exact {
	// Build the caches now, so concurrent queries never race them.
	s.cutInt8Rows(metric, rule, normWorkers(workers))
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
	// No more than Live rows can come back, and a heap larger than
	// that never fills, which would keep the prefilter off.
	k = clampK(k, e.s.Live())
	if k <= 0 {
		return dst
	}
	var t TopK
	t.Reset(k)
	scan(e.s, e.metric, q, exclude, &t)
	return t.Append(dst)
}

// SearchBatch implements Index. Queries are sharded across workers;
// each worker reuses one heap and all results share one backing
// allocation, so per-query allocation is amortized to ~0.
func (e *Exact) SearchBatch(qs [][]float32, k int) [][]Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
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
			scan(e.s, e.metric, qs[i], -1, &t)
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
