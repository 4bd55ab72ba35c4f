// Package vecstore is the shared vector subsystem of the repository:
// a contiguous, 64-byte-aligned float32 matrix with cached L2 norms
// and pluggable top-k similarity indexes over it. Every similarity
// consumer — word2vec neighbor queries, k-NN feature prediction, link
// prediction scoring and the v2v facade — searches through this
// package instead of re-implementing brute-force scans over
// [][]float64 rows.
//
// Numeric contract: vectors are stored as float32 (the trainer's
// native precision) but every score comes from a kernel that
// accumulates in float64 in row order, exactly like the seed
// implementations did after their float64 row copies. The exact scan
// skips whole cells and runs an int8 SIMD pass and a float32 one
// first, which only ever reject rows that provably cannot enter the
// top k (scan.go has the bounds). Exact search is therefore
// bit-for-bit compatible with the historical brute-force results; only
// the storage and the selection algorithm changed. See docs/VECTORS.md.
//
// Mutability contract: stores grow through Append/AppendRow and
// shrink through tombstoning Delete; both are mutation APIs that must
// not run concurrently with direct store reads. Indexes opened over a
// store expose the same operations race-safely through MutableIndex
// (see index.go), which is how the serving stack applies online
// writes. See docs/INDEXES.md.
package vecstore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the alignment (in bytes) of store allocations. Rows
// themselves are not padded — contiguity matters more than per-row
// alignment at the dimensionalities the paper uses (50-128) — but the
// matrix base is aligned so the scan kernels start on a boundary.
const cacheLine = 64

// AlignedSlice allocates a float32 slice of length n whose backing
// array starts on a 64-byte boundary. The Go allocator already
// 64-byte-aligns large allocations; this makes it a guarantee rather
// than an accident.
func AlignedSlice(n int) []float32 {
	return alignedSliceCap(n, n)
}

// alignedSliceCap allocates an aligned float32 slice of length n with
// capacity >= c (the growable-store allocation primitive). The whole
// capacity is zeroed.
func alignedSliceCap(n, c int) []float32 {
	if c < n {
		c = n
	}
	if c == 0 {
		return nil
	}
	pad := cacheLine / 4
	buf := make([]float32, c+pad)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	off := 0
	if rem := addr % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 4)
	}
	return buf[off : off+n : off+c]
}

// Store is a growable (n x dim) float32 matrix with cached squared L2
// norms and tombstone deletion. The norm cache is computed lazily on
// first use (safely under concurrent queries) and maintained
// incrementally by SetRow and the append APIs.
//
// Mutation APIs (SetRow, AppendRow, Append, Delete, direct Row
// writes) must not run concurrently with queries or each other;
// MutableIndex layers that synchronisation for online serving.
type Store struct {
	n, dim int
	data   []float32 // len n*dim, row-major; spare capacity for appends

	// deleted tombstones rows without reclaiming their storage; nil
	// until the first Delete. dead counts set bits.
	deleted []bool
	dead    int

	// muts counts in-place row overwrites (SetRow). Graph- and
	// cell-structured indexes snapshot it at build time and refuse to
	// answer queries once it moves: an overwritten vector silently
	// invalidates HNSW adjacency and IVF cell assignments, which no
	// norm-cache update can repair. Appends and deletes do not bump it
	// — they are coherent index operations when routed through
	// MutableIndex.
	muts uint64

	// Squared L2 norm per row. Published through an atomic pointer so
	// concurrent readers can trigger the lazy computation without a
	// race; normMu serialises (re)computation.
	sqnorms atomic.Pointer[[]float64]
	normMu  sync.Mutex

	// i8 is the exact scan's int8 shadow of the rows (scan.go),
	// built like the norm cache, on first use under normMu, cut into
	// cells by NewExact (cells.go), and kept in step by SetRow and the
	// append APIs once it exists.
	i8 atomic.Pointer[int8Rows]
}

// New allocates an aligned zero store.
func New(n, dim int) *Store {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("vecstore: invalid shape %dx%d", n, dim))
	}
	return &Store{n: n, dim: dim, data: AlignedSlice(n * dim)}
}

// Wrap builds a store over the given row-major backing slice
// (typically a trained model's weight matrix). The slice must have
// length n*dim.
//
// When the slice already starts on a 64-byte boundary — true for
// every slice produced by AlignedSlice, i.e. all model storage — it
// is shared without copying, so external writes remain visible
// through the store. A misaligned slice (e.g. a sub-slice at an odd
// offset) is copied into a fresh aligned allocation instead: callers
// assume the alignment AlignedSlice documents, and
// silently wrapping a misaligned base used to drop that guarantee.
func Wrap(data []float32, n, dim int) *Store {
	if dim <= 0 || len(data) != n*dim {
		panic(fmt.Sprintf("vecstore: Wrap(%d floats) does not match %dx%d", len(data), n, dim))
	}
	if len(data) > 0 {
		addr := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		if addr%cacheLine != 0 {
			aligned := AlignedSlice(len(data))
			copy(aligned, data)
			data = aligned
		}
	}
	return &Store{n: n, dim: dim, data: data}
}

// FromRows64 copies a [][]float64 row matrix into a new aligned
// store, the migration shim for the historical interchange format.
// It panics on ragged rows.
func FromRows64(rows [][]float64) *Store {
	if len(rows) == 0 {
		return &Store{n: 0, dim: 1}
	}
	dim := len(rows[0])
	if dim == 0 {
		panic("vecstore: FromRows64 with zero-dimensional rows")
	}
	s := New(len(rows), dim)
	for i, r := range rows {
		if len(r) != dim {
			panic(fmt.Sprintf("vecstore: ragged row %d (%d vs %d)", i, len(r), dim))
		}
		dst := s.Row(i)
		for j, x := range r {
			dst[j] = float32(x)
		}
	}
	return s
}

// Len returns the number of rows, including tombstoned ones.
func (s *Store) Len() int { return s.n }

// Dim returns the dimensionality.
func (s *Store) Dim() int { return s.dim }

// Data returns the row-major backing slice.
func (s *Store) Data() []float32 { return s.data }

// Row returns row i, aliasing store memory.
func (s *Store) Row(i int) []float32 {
	return s.data[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

// SetRow copies v into row i and updates its cached norm if the cache
// exists. SetRow is a mutation API: like Row writes, it must not run
// concurrently with queries. It also marks approximate indexes built
// over the store as stale (their adjacency/cell structure cannot
// track an in-place overwrite); rebuild them, or apply online writes
// through MutableIndex.Insert/Delete instead.
func (s *Store) SetRow(i int, v []float32) {
	if len(v) != s.dim {
		panic(fmt.Sprintf("vecstore: SetRow dim %d vs %d", len(v), s.dim))
	}
	copy(s.Row(i), v)
	s.muts++
	if p := s.sqnorms.Load(); p != nil {
		(*p)[i] = sqNorm(v)
	}
	if r := s.i8.Load(); r != nil {
		s.i8.Store(r.write(i, v))
	}
}

// Mutations returns the in-place overwrite counter (see SetRow);
// indexes use it to detect silent staleness.
func (s *Store) Mutations() uint64 { return s.muts }

// AppendRow appends v as a new row and returns its ID. Amortized
// aligned reallocation: the backing array at least doubles when it
// grows, so n appends cost O(n) copies total; the norm cache (when
// already materialised) is extended incrementally rather than
// recomputed. AppendRow is a mutation API: it must not run
// concurrently with queries (MutableIndex.Insert layers the locking
// and keeps the index coherent).
func (s *Store) AppendRow(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("vecstore: AppendRow dim %d vs %d", len(v), s.dim))
	}
	s.grow(1)
	id := s.n
	s.data = s.data[: (id+1)*s.dim : cap(s.data)]
	copy(s.data[id*s.dim:], v)
	s.n++
	if s.deleted != nil {
		s.deleted = append(s.deleted, false)
	}
	if p := s.sqnorms.Load(); p != nil {
		norms := append(*p, sqNorm(v))
		s.sqnorms.Store(&norms)
	}
	if r := s.i8.Load(); r != nil {
		s.i8.Store(r.write(id, v))
	}
	return id
}

// Append appends len(vs)/dim rows (vs row-major, a multiple of the
// store dimension) and returns the ID of the first. Same contract as
// AppendRow.
func (s *Store) Append(vs []float32) int {
	if len(vs) == 0 || len(vs)%s.dim != 0 {
		panic(fmt.Sprintf("vecstore: Append(%d floats) is not a positive multiple of dim %d", len(vs), s.dim))
	}
	rows := len(vs) / s.dim
	s.grow(rows)
	first := s.n
	s.data = s.data[: (first+rows)*s.dim : cap(s.data)]
	copy(s.data[first*s.dim:], vs)
	s.n += rows
	if s.deleted != nil {
		s.deleted = append(s.deleted, make([]bool, rows)...)
	}
	if p := s.sqnorms.Load(); p != nil {
		norms := *p
		for r := 0; r < rows; r++ {
			norms = append(norms, sqNorm(vs[r*s.dim:(r+1)*s.dim]))
		}
		s.sqnorms.Store(&norms)
	}
	if r := s.i8.Load(); r != nil {
		for i := 0; i < rows; i++ {
			r = r.write(first+i, vs[i*s.dim:(i+1)*s.dim])
		}
		s.i8.Store(r)
	}
	return first
}

// grow ensures capacity for rows more rows, reallocating aligned
// storage with at-least-doubling growth.
func (s *Store) grow(rows int) {
	need := (s.n + rows) * s.dim
	if need <= cap(s.data) {
		return
	}
	newCap := 2 * cap(s.data)
	if newCap < need {
		newCap = need
	}
	if min := 8 * s.dim; newCap < min {
		newCap = min
	}
	grown := alignedSliceCap(len(s.data), newCap)
	copy(grown, s.data)
	s.data = grown
}

// Delete tombstones row i: Deleted reports it, Live excludes it, and
// every index query over the store filters it out. Storage is not
// reclaimed — compaction is Gather(LiveIDs()) plus an index rebuild,
// which the serving layer triggers past a tombstone-fraction
// threshold. Delete is a mutation API (same concurrency contract as
// SetRow); MutableIndex.Delete layers the locking.
func (s *Store) Delete(i int) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("vecstore: Delete(%d) out of range [0, %d)", i, s.n)
	}
	if s.deleted == nil {
		s.deleted = make([]bool, s.n)
	}
	if s.deleted[i] {
		return fmt.Errorf("vecstore: row %d is already deleted", i)
	}
	s.deleted[i] = true
	s.dead++
	return nil
}

// Deleted reports whether row i is tombstoned.
func (s *Store) Deleted(i int) bool { return s.deleted != nil && s.deleted[i] }

// Live returns the number of non-tombstoned rows.
func (s *Store) Live() int { return s.n - s.dead }

// Dead returns the number of tombstoned rows.
func (s *Store) Dead() int { return s.dead }

// DeadFraction returns the tombstoned share of rows, the compaction
// trigger metric (0 for an empty store).
func (s *Store) DeadFraction() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.dead) / float64(s.n)
}

// LiveIDs returns the non-tombstoned row IDs in ascending order — the
// Gather input for compaction.
func (s *Store) LiveIDs() []int {
	ids := make([]int, 0, s.Live())
	for i := 0; i < s.n; i++ {
		if s.deleted == nil || !s.deleted[i] {
			ids = append(ids, i)
		}
	}
	return ids
}

// SqNorms returns the cached squared L2 norms, computing them on
// first call; concurrent callers are safe. The square root is
// deferred to the kernels (cosine needs sqrt(na*nb), which is cheaper
// and bit-identical to the seed's single-pass formula).
func (s *Store) SqNorms() []float64 {
	if p := s.sqnorms.Load(); p != nil {
		return *p
	}
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if p := s.sqnorms.Load(); p != nil {
		return *p
	}
	norms := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		norms[i] = sqNorm(s.Row(i))
	}
	s.sqnorms.Store(&norms)
	return norms
}

// int8Rows returns the exact scan's int8 shadow (scan.go), building
// it on first call; concurrent callers are safe.
func (s *Store) int8Rows() *int8Rows {
	if r := s.i8.Load(); r != nil {
		return r
	}
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if r := s.i8.Load(); r != nil {
		return r
	}
	r := newInt8Rows(s, 1)
	s.i8.Store(r)
	return r
}

// cutInt8Rows builds the exact scan's int8 shadow if there is none
// and, unless it is cut already or a cut of it was tried and not kept,
// cuts it into cells for metric (cells.go), on up to workers
// goroutines.
func (s *Store) cutInt8Rows(metric Metric, workers int) {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	r := s.i8.Load()
	if r == nil {
		r = newInt8Rows(s, workers)
	}
	if s.sqnorms.Load() == nil {
		// The shadow holds the norms SqNorms computes, and the cut's
		// trial queries read them.
		norms := make([]float64, s.n)
		for i := range norms {
			norms[i] = r.norm[r.position(i)]
		}
		s.sqnorms.Store(&norms)
	}
	if r.cells == nil && !r.tried {
		r = r.cut(s, metric, workers)
	}
	s.i8.Store(r)
}

// InvalidateNorms drops the norm cache, and the exact scan's int8
// shadow with it, after external mutation of row storage (e.g.
// continued training over a wrapped weight matrix).
func (s *Store) InvalidateNorms() {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	s.sqnorms.Store(nil)
	s.i8.Store(nil)
}

// Gather copies the given rows, in order, into a new aligned store.
// Row norms and the int8 shadow are carried over when already
// computed, the shadow in row order; tombstones are not (a gathered
// store starts with every row live, which is what compaction wants).
func (s *Store) Gather(ids []int) *Store {
	out := New(len(ids), s.dim)
	for i, id := range ids {
		copy(out.Row(i), s.Row(id))
	}
	if p := s.sqnorms.Load(); p != nil {
		norms := make([]float64, len(ids))
		for i, id := range ids {
			norms[i] = (*p)[id]
		}
		out.sqnorms.Store(&norms)
	}
	if r := s.i8.Load(); r != nil {
		out.i8.Store(r.gather(ids))
	}
	return out
}

// Dot returns the float64-accumulated inner product of rows i and j.
func (s *Store) Dot(i, j int) float64 { return dotF64(s.Row(i), s.Row(j)) }

// Cosine returns the cosine similarity of rows i and j, or 0 when
// either row is the zero vector — the same convention (and the same
// float64 accumulation order) as the seed's Model.Cosine.
func (s *Store) Cosine(i, j int) float64 {
	norms := s.SqNorms()
	na, nb := norms[i], norms[j]
	if na == 0 || nb == 0 {
		return 0
	}
	return dotF64(s.Row(i), s.Row(j)) / math.Sqrt(na*nb)
}

// sqNorm accumulates the squared L2 norm in float64, row order.
func sqNorm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return s
}
