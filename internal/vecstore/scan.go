package vecstore

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"v2v/internal/f32"
)

// The exact scan is filter-and-refine: passes that may only reject a
// row, then the float64 kernels of kernels.go on every row they leave,
// exactly as before, so results are bit for bit those of scoring every
// row. A store NewExact has cut into cells (cells.go) is scanned range
// by range: first the tail of rows appended since the cut, then the
// cells by descending bound B, until the heap is full and the next
// cell's B is below its threshold, which proves that no row of that
// cell or of any cell after it can enter the heap (the cell bound
// below). A store in row order is one range. One query state — the
// quantised query, the armed prefilter — serves every range, and
// scanRange runs three stages per block of up to scanBlock positions:
//
//  1. An int8 pass. f32.DotRowsI8 computes Q·R over the store's int8
//     shadow, and int8Mask turns each into an upper bound hi >= q·r
//     and marks every row that drops rejects on hi at the threshold
//     armed when the block starts.
//  2. A float32 pass over each 64-row word of the block: the rows
//     stage 1 left in it are collected by row ID, hinted into cache
//     together (f32.HintRows) and dotted in one f32.DotGather call,
//     each a = f32.Dot(q, r) bit for bit; then, row by row, drops
//     tests a at the threshold of that moment. A row read from the
//     store is a random read (a cut shadow is in cell order, the store
//     in row order), so the word's loads are issued before its math.
//     In a block that starts unarmed drops rejects nothing, so no dot
//     is taken there.
//  3. The rows left are scored by scoreRow in float64 and pushed.
//
// Until the heap is full nothing is armed and stage 1 is skipped; the
// block in which the threshold is first armed ends at that row, so
// stage 1 judges the rest of it.
//
// The float32 bound. A float32 dot of dim terms, in any summation
// order, puts each term through at most dim roundings (one product,
// the additions on its path; the kernels' order needs far fewer), so
// with u = 2^-24 and Cauchy-Schwarz
//
//	|a - q·r| <= g ‖q‖‖r‖,   g = (dim+2)u / (1 - (dim+2)u)
//
// provided nothing overflowed (then a is Inf or NaN, and stays so) and
// no product underflowed. The filter uses γ = 2g. The spare g‖q‖‖r‖
// covers everything else between a and the score the float64 kernel
// would return: that kernel's own rounding and the cached norms'
// (each below dim·2^-53 relative), the sqrt and divide of the cosine,
// the few float64 operations of the tests below (together below 2^-29
// of the spare), and float32 underflow (at most dim·2^-149 absolute,
// far below the spare once both squared norms are at least 2^-60).
// With τ the heap's threshold score, qn and rn the squared norms, the
// float64 score S of the row is provably below τ when
//
//	Cosine:    τ-γ > 0 and (a < 0 or a² < (τ-γ)² qn rn)
//	           since S <= a/√(qn rn) + g + ...
//	Dot:       τ-a > 0 and (τ-a)² > γ² qn rn
//	           since S <= a + g√(qn rn) + ...
//	Euclidean: 2a - (1-γ)(qn+rn) < τ
//	           since S = -‖q-r‖² <= -(qn+rn-2a) + g(qn+rn) + ...
//	           (2‖q‖‖r‖ <= qn+rn)
//
// and a row with S < τ is one TopK.Push would drop. Everything else is
// scored in float64: a heap that is not full yet, a non-finite a, a
// squared norm below 2^-60 (zero vectors included) and any NaN, which
// fails every comparison above. TestScanFilterParity and
// FuzzScanFilterParity hold the scan to that on adversarial stores.
// Each test only needs q·r <= a + g‖q‖‖r‖, and each is increasing in
// a, so any a that satisfies that premise may stand in.
//
// The int8 bound. The shadow keeps each row quantised symmetrically:
// s_r = max|r|/127 and R = round(r/s_r), in [-127, 127], with ½‖r‖₁
// (quantize; the query gets s_q, Q and ½‖Q‖₁ the same way). Writing
// q = s_q·Q + e_q and r = s_r·R + e_r, with every |e_i| at most half
// its scale,
//
//	q·r = s_q·s_r·Q·R + s_q·Q·e_r + e_q·r
//	    <= s_q·s_r·Q·R + s_q·‖Q‖₁·s_r/2 + (s_q/2)·‖r‖₁
//	    =  s_q·(s_r·(Q·R + ½‖Q‖₁) + ½‖r‖₁) = hi.
//
// Q·R is an exact integer. The rest rounds: r/s_r, so an |e_i| may pass
// half its scale by 128·2^-53 of it; hi's three float64 operations;
// and the float64 sum ½‖r‖₁. With M = max|q|·max|r| <= ‖q‖‖r‖, each
// term of hi is at most 1.01·dim·M, so the computed hi satisfies
// q·r <= hi + (6·dim + dim²/254)·2^-53·M: below 2^-14 of the
// g‖q‖‖r‖ drops' premise allows, at every dim where g is finite. No
// float64 step here underflows (a scale is at least 2^-157) or
// overflows. So hi stands in for a, and drops on hi proves S < τ. A
// row with a NaN or infinite element gets s_r = NaN, a query with one
// s_q = NaN, and a query longer than f32.MaxI8Len (whose integer dot
// could wrap) s_q = NaN too: then hi is NaN and drops never holds.
//
// The mirror test. The same |a - q·r| <= g‖q‖‖r‖ bounds S from below,
// so with the same γ = 2g on the other side of τ the float64 score is
// provably above τ when
//
//	Cosine:    a/√(qn rn) > τ+γ, that is, with p = τ+γ:
//	           p < 0 and (a >= 0 or a² < p² qn rn), or
//	           p >= 0 and a > 0 and a² > p² qn rn
//	           since S >= a/√(qn rn) - g - ...
//	Dot:       a-τ > 0 and (a-τ)² > γ² qn rn
//	           since S >= a - g√(qn rn) - ...
//	Euclidean: 2a - (1+γ)(qn+rn) > τ
//	           since S >= -(qn+rn-2a) - g(qn+rn) - ...
//
// under the same guards plus a finite τ. Nothing ranks by it and no
// score comes from it: HNSW's neighbour selection (hnsw.go), which
// needs only the boolean "is c closer to a kept neighbour than to the
// new node", asks drops and beats in turn and falls through to the
// float64 kernel when neither can say (under 1% of comparisons on a
// clustered store). TestPrefilterSides and FuzzPrefilterSides hold
// both tests to S from scoreRow: drops ⇒ S < τ, beats ⇒ S > τ, never
// both.
//
// Stages 1 and 2 both reject with drops, on hi and on a. That is
// exact because the threshold never falls — a full TopK's worst entry
// is replaced only by a better one, and a NaN worst entry never is —
// and drops is monotone in τ: Cosine's τ-γ > 0 and -(τ-γ)²qn·rn, Dot's
// x = a-τ inside the increasing x·|x|, Euclidean's comparison with τ
// itself, each under IEEE rounding, which is monotone too (and a -0
// threshold tests as +0 does). So a row stage 1 rejects at the block's
// τ scores below the τ of the moment scanRange reaches it: TopK.Push
// would drop it, and leaving it out changes neither the heap nor any
// later threshold. The rows pushed are therefore a subset of those
// drops alone on a would push, in the same order, and the heap ends
// the same. int8Mask is AVX2 assembly where the processor has it
// (int8MaskAVX2) and a portable loop elsewhere; both evaluate hi and
// drops with the same float64 operations in the same order, so they
// set the same bits (TestRejectMaskMatchesDrops, FuzzRejectMask,
// TestScanRescoresSameRows).
//
// The cell bound. A cell holds rows r, a raw-mean centre c and a
// unit-mean centre u, both float32, and radii ρ >= ‖r - c‖ and
// ρ̂ >= ‖r/‖r‖ - u‖ over its rows (nonzero rows for ρ̂), measured in
// float64 and rounded up by sl. For the metric's centre x (u for
// Cosine, c otherwise) let a = f32.Dot(q, x) + γ‖q‖‖x‖. By the float32
// bound q·x <= a, provided both squared norms are at least 2^-60 and a
// is finite; otherwise B = +Inf. Then for every row of the cell
//
//	Dot:       q·r = q·x + q·(r-x) <= a + ‖q‖ρ
//	Cosine:    q̂·r̂ = 1 - ‖q̂-r̂‖²/2, ‖q̂-r̂‖ >= d - ρ̂, and
//	           d² = ‖q̂-u‖² = 1 + ‖u‖² - 2q·u/‖q‖ >= 1 + ‖u‖² - 2a/‖q‖,
//	           so q̂·r̂ <= 1 - max(0, d-ρ̂)²/2; a zero row scores 0,
//	           so a cell holding one takes max(B, 0)
//	Euclidean: ‖q-r‖ >= d - ρ with d² = qn + ‖c‖² - 2q·c
//	           >= qn + ‖c‖² - 2a, so -‖q-r‖² <= -max(0, d-ρ)²
//
// bound evaluates these in float64 with a slack sl·Z, where Z sums the
// magnitudes of the terms (Cosine: 1 + ‖u‖² + |2a/‖q‖| + ρ̂²;
// Euclidean: qn + ‖c‖² + |2a| + ρ²; Dot: ‖q‖(‖c‖ + ρ)), taken off d²
// before its root and added to B. Every float64 rounding on the way —
// the centres' squared norms, qn and its root, d², the radii, and the
// float64 score's own kernel, which is off by at most about dim·2^-52
// of a cosine's unit, of ‖q‖‖r‖ <= ‖q‖(‖c‖+ρ), of ‖q-r‖² <= 3Z — is
// below (dim+32)·2^-52·Z, a quarter of sl·Z with sl = (dim+32)·2^-50
// (cellSlack). So B is at least the float64 score of every row of its
// cell, and a cell with B < τ holds only rows TopK.Push would drop.
// SetRow widens the radii of the row's cell to hold its new value;
// rows appended after the cut join the tail, which is always scanned.
// TestCellBoundSound holds B to every row's score on 1e±38, subnormal,
// zero and tied rows, before and after SetRow has grown the radii.
//
// The order. A cut store's rows are all finite: a store with a
// non-finite row is never cut, and a non-finite write puts the shadow
// back in row order. For a finite query every float64 score is then
// finite — no sum can overflow, and qn·rn > 0 whenever neither is
// zero — and TopK's order, score descending then ID ascending, is
// total on finite scores, so the rows it keeps do not depend on the
// order they are pushed in: cells best-first answer as row order does,
// bit for bit. The threshold never falls from one range to the next,
// so the stage 1 and 2 argument above holds across ranges. A
// non-finite query may score rows NaN, and among NaNs TopK keeps the
// rows pushed first; scan therefore scores every row of such a query
// in row order, as the seed did (no bound rejects any of them: its qn
// is not finite). TestCellScanParity and FuzzCellScanParity hold cut
// stores to the seed's answer, NaN, infinite and zero queries
// included.

// scanBlock is the number of rows per DotRowsI8 call: the int32 dots
// of one block live on the scanning goroutine's stack.
const scanBlock = 256

// minSqNorm is the squared norm below which a vector is never judged
// by its float32 dot (see the underflow term above).
const minSqNorm = 1.0 / (1 << 60)

// dotErrorBound returns γ for vectors of dim elements, or +Inf (no
// row is ever rejected) where dim is so large the bound is void.
func dotErrorBound(dim int) float64 {
	x := float64(dim+2) / (1 << 24)
	if x >= 0.5 {
		return math.Inf(1)
	}
	return 2 * x / (1 - x)
}

// prefilter holds what the two tests need besides a and rn: fixed per
// query (metric, gamma, qn) and per threshold (armed, sure, off, c,
// cb). The exact scan, the HNSW beam and HNSW's neighbour selection
// (hnsw.go) share this one copy of the bound. The Cosine and Dot tests
// are stored as one,
//
//	drops: x·|x| + c·rn < 0     beats: x·|x| - cb·rn > 0,   x = a - off
//
// (Cosine: off = 0, c = -(τ-γ)²qn, cb = (τ+γ)·|τ+γ|·qn; Dot: off = τ,
// c = cb = γ²qn, which for drops is the test above with both sides
// negated) so that drops fits the compiler's inlining budget: it runs
// once per row of the scan. x·|x| is x² with the sign of x, and
// increasing in x, which folds the sign cases of both Cosine tests
// into one comparison: no branch on a sign that is as good as random.
type prefilter struct {
	metric Metric
	gamma  float64
	qn     float64 // squared norm of the query
	armed  bool    // a threshold is set and drops may reject a row
	sure   bool    // a finite threshold is set and beats may accept one
	off    float64 // 0 for Cosine, τ for Dot and Euclidean
	c      float64 // -(τ-γ)²qn for Cosine, γ²qn for Dot, 1-γ for Euclidean
	cb     float64 // (τ+γ)|τ+γ|qn for Cosine, γ²qn for Dot, 1+γ for Euclidean
}

// arm sets the threshold: from here on drops reports the rows whose
// float64 score is provably below tau, beats those provably above.
func (f *prefilter) arm(tau float64) {
	if !(f.qn >= minSqNorm) {
		return
	}
	// tau-tau is 0 exactly when tau is finite.
	f.armed, f.sure, f.off = true, tau-tau == 0, tau
	switch f.metric {
	case Cosine:
		m, p := tau-f.gamma, tau+f.gamma
		f.armed, f.off, f.c, f.cb = m > 0, 0, -m*m*f.qn, p*math.Abs(p)*f.qn
	case Dot:
		f.c = f.gamma * f.gamma * f.qn
		f.cb = f.c
	default:
		f.c, f.cb = 1-f.gamma, 1+f.gamma
	}
}

// drops reports whether a row with dot a (a float32 dot widened, or
// the int8 bound hi) and squared norm rn provably scores below the
// threshold. Every rounded product is written float64(x*y): the
// conversion is a rounding point the compiler may not fuse into a
// multiply-add (GOAMD64=v3, arm64 and others otherwise may), so drops
// keeps the bits of int8MaskAVX2, which never fuses. 2a is exact and
// needs none.
func (f *prefilter) drops(a, rn float64) bool {
	// a-a is 0 exactly when a is finite.
	if !f.armed || a-a != 0 || !(rn >= minSqNorm) {
		return false
	}
	if f.metric == Euclidean {
		return 2*a-float64(f.c*(f.qn+rn)) < f.off
	}
	x := a - f.off
	return float64(x*math.Abs(x))+float64(f.c*rn) < 0
}

// beats reports whether a row with float32 dot a (widened) and squared
// norm rn provably scores above the threshold, with drops' rounding
// points.
func (f *prefilter) beats(a, rn float64) bool {
	if !f.sure || a-a != 0 || !(rn >= minSqNorm) {
		return false
	}
	if f.metric == Euclidean {
		return 2*a-float64(f.cb*(f.qn+rn)) > f.off
	}
	x := a - f.off
	return float64(x*math.Abs(x))-float64(f.cb*rn) > 0
}

// int8Rows is a store's int8 shadow, the exact scan's stage-1 input:
// per position, the codes R of a row (stride bytes: dim rounded up to
// 32, zero past dim), its scale s_r (NaN for a row with a NaN or
// infinite element), ½‖r‖₁ and its squared norm. In row order
// position i holds row i; a cut shadow (cells.go) holds its cells'
// rows position by position, each cell's at [lo, hi), then a tail of
// the rows appended since the cut, with ids and pos mapping between
// positions and rows. Store builds and maintains it (store.go);
// snapshots do not store it.
type int8Rows struct {
	stride int
	codes  []int8
	scale  []float64
	half   []float64
	norm   []float64

	// The cut; all nil in row order.
	ids   []int32   // position → row
	pos   []int32   // row → position
	cells []cell    // in position order; the tail follows the last
	cen   []float32 // cell j's raw mean c at [j*dim, (j+1)*dim)
	unit  []float32 // cell j's mean u of unit rows, the same way

	// tried is set on a shadow in row order whose cut its trial
	// queries did not keep (cells.go): NewExact does not cut it again.
	tried bool
}

// newInt8Rows quantises every row of s, in row order, on up to workers
// goroutines.
func newInt8Rows(s *Store, workers int) *int8Rows {
	n := s.n
	r := &int8Rows{stride: (s.dim + 31) &^ 31, scale: make([]float64, n), half: make([]float64, n), norm: make([]float64, n)}
	r.codes = make([]int8, n*r.stride)
	parallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r.set(i, s.Row(i))
		}
	})
	return r
}

// set quantises v into position p.
func (r *int8Rows) set(p int, v []float32) {
	var l1 float64
	for _, x := range v {
		l1 += math.Abs(float64(x))
	}
	r.scale[p] = quantize(r.codes[p*r.stride:(p+1)*r.stride], v)
	r.half[p], r.norm[p] = l1/2, sqNorm(v)
}

// position returns the position of row i.
func (r *int8Rows) position(i int) int {
	if r.pos == nil {
		return i
	}
	return int(r.pos[i])
}

// tail returns the first position of the tail: 0 in row order.
func (r *int8Rows) tail() int {
	if len(r.cells) == 0 {
		return 0
	}
	return r.cells[len(r.cells)-1].hi
}

// gather returns the shadow of the given rows, in order and in row
// order.
func (r *int8Rows) gather(ids []int) *int8Rows {
	n := len(ids)
	g := &int8Rows{stride: r.stride, codes: make([]int8, n*r.stride), scale: make([]float64, n), half: make([]float64, n), norm: make([]float64, n)}
	for i, id := range ids {
		p := r.position(id)
		copy(g.codes[i*r.stride:(i+1)*r.stride], r.codes[p*r.stride:])
		g.scale[i], g.half[i], g.norm[i] = r.scale[p], r.half[p], r.norm[p]
	}
	return g
}

// write quantises v into row i, appending it when i is the number of
// rows shadowed, and returns the shadow that now holds it: r, or a copy
// of r in row order when r is cut and v has a NaN or infinite element.
// A row of a cell widens the cell's radii to hold it; an appended row
// joins the tail.
func (r *int8Rows) write(i int, v []float32) *int8Rows {
	n := len(r.scale)
	if i == n {
		r.codes = slices.Grow(r.codes, r.stride)[:len(r.codes)+r.stride]
		r.scale, r.half, r.norm = append(r.scale, 0), append(r.half, 0), append(r.norm, 0)
		if r.ids != nil {
			r.ids, r.pos = append(r.ids, int32(n)), append(r.pos, int32(n))
		}
	}
	if r.ids != nil && !finite(v) {
		all := make([]int, len(r.scale))
		for j := range all {
			all[j] = j
		}
		r = r.gather(all)
	}
	p := r.position(i)
	r.set(p, v)
	if j := r.cellOf(p); j >= 0 {
		c := &r.cells[j]
		rho, rhoU := r.radii(j, v, r.norm[p])
		c.rho, c.rhoU, c.zero = max(c.rho, rho), max(c.rhoU, rhoU), c.zero || r.norm[p] == 0
	}
	return r
}

// finite reports whether every element of v is finite.
func finite(v []float32) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// quantize writes v's codes round(v[i]/s) into dst, zeros past
// len(v), and returns the scale s = max|v|/127. A zero vector has
// scale 0, and a vector with a NaN or infinite element scale NaN; the
// codes of both are all zero. s is max|v|/127 rounded to nearest, so
// |v[i]/s| rounds to at most 127 and no code is -128, which
// f32.DotRowsI8 requires of a row.
func quantize(dst []int8, v []float32) float64 {
	clear(dst)
	m := 0.0
	for _, x := range v {
		a := math.Abs(float64(x))
		if !(a <= math.MaxFloat32) {
			return math.NaN()
		}
		if a > m {
			m = a
		}
	}
	if m == 0 {
		return 0
	}
	s := m / 127
	dst = dst[:len(v)]
	for i, x := range v {
		dst[i] = int8(math.Round(float64(x) / s))
	}
	return s
}

// int8Query is the query's side of the int8 bound: its codes Q, padded
// to the shadow's stride, its scale s_q and ½‖Q‖₁.
type int8Query struct {
	codes       []int8
	scale, half float64
}

// newInt8Query quantises q for a shadow of the given stride, into buf
// when it has the capacity.
func newInt8Query(q []float32, stride int, buf []int8) int8Query {
	b := int8Query{codes: slices.Grow(buf[:0], stride)[:stride]}
	b.scale = quantize(b.codes, q)
	if stride > f32.MaxI8Len {
		b.scale = math.NaN()
	}
	l1 := 0
	for _, x := range b.codes {
		l1 += max(int(x), -int(x))
	}
	b.half = float64(l1) / 2
	return b
}

// bound returns hi, the upper bound on q·r of a row with Q·R = d, scale
// sr and ½‖r‖₁ = hr (see the int8 bound above), in the operations and
// order of int8MaskAVX2. The float64(...) conversions are rounding
// points: no multiply-add may fuse them.
func (b *int8Query) bound(d int32, sr, hr float64) float64 {
	t := float64(sr*(float64(d)+b.half)) + hr
	return float64(b.scale * t)
}

// int8Mask sets bit j of mask (bit j%64 of word j/64) for each
// j < len(dots) where f.drops(b.bound(dots[j], scale[j], half[j]),
// norms[j]) holds, and leaves the other bits as they are. mask must
// start zeroed and f must be armed. Where maskAVX2 is set the assembly
// takes the rows in whole steps of four and the loop the rest.
func (f *prefilter) int8Mask(b *int8Query, dots []int32, scale, half, norms []float64, mask *[scanBlock / 64]uint64) {
	from := 0
	if maskAVX2 {
		from = len(dots) &^ 3
		int8MaskAVX2(dots[:from], scale[:from], half[:from], norms[:from], f.metric == Euclidean, b.scale, b.half, f.qn, f.off, f.c, mask)
	}
	for j := from; j < len(dots); j++ {
		if f.drops(b.bound(dots[j], scale[j], half[j]), norms[j]) {
			mask[j/64] |= 1 << (j % 64)
		}
	}
}

// scanCounts is what one scan did: the cells it scanned, the rows it
// visited (the tail's and those cells'), the rows stage 1 left for
// stage 2 (survivors) and the rows the float64 kernel scored
// (rescored).
type scanCounts struct{ cells, visited, survivors, rescored int }

// scanner is one query's scan: the query's side of both bounds, armed
// once and kept across every range it scans.
type scanner struct {
	s       *Store
	sh      *int8Rows
	metric  Metric
	q       []float32
	exclude int
	f       prefilter
	b       int8Query
	dots    [scanBlock]int32
	ids     [64]int32   // stage 2: the rows of one word stage 1 left
	a       [64]float32 // and their float32 dots
	qbuf    [256]int8   // the codes of a query of up to 256 dimensions
	order   []cellBound
	scanCounts
}

// cellBound is a cell's bound B for one query, and the cell.
type cellBound struct {
	b float64
	j int
}

var scannerPool = sync.Pool{New: func() any { return new(scanner) }}

// scan pushes into t every row of s that can enter it, skipping row
// exclude (-1 for none), every tombstoned row, every row the
// prefilter proves t would drop, and every cell whose bound proves the
// same of all its rows.
func scan(s *Store, metric Metric, q []float32, exclude int, t *TopK) scanCounts {
	qn := sqNorm(q)
	if qn-qn != 0 {
		// A non-finite query: its scores may be NaN, and TopK keeps
		// the rows that come first among NaNs, so every row is scored,
		// in row order. No bound would reject one.
		c := scanCounts{visited: s.n}
		for i := 0; i < s.n; i++ {
			if i != exclude && !s.Deleted(i) {
				t.Push(i, scoreRow(s, metric, q, qn, i))
				c.survivors++
				c.rescored++
			}
		}
		return c
	}
	return scanShadow(s, s.int8Rows(), metric, q, qn, exclude, t)
}

// scanShadow is scan over the shadow sh of s, for a finite query q of
// squared norm qn.
func scanShadow(s *Store, sh *int8Rows, metric Metric, q []float32, qn float64, exclude int, t *TopK) (c scanCounts) {
	sc := scannerPool.Get().(*scanner)
	*sc = scanner{s: s, sh: sh, metric: metric, q: q, exclude: exclude, order: sc.order[:0],
		f: prefilter{metric: metric, gamma: dotErrorBound(s.dim), qn: qn}}
	defer func() {
		c = sc.scanCounts
		*sc = scanner{order: sc.order[:0]} // the pool keeps no store alive
		scannerPool.Put(sc)
	}()
	sc.b = newInt8Query(q, sh.stride, sc.qbuf[:])
	sc.scanRange(t, sh.tail(), len(sh.scale))
	if len(sh.cells) == 0 {
		return
	}
	// The cells by descending bound, ties to the smaller index: a heap,
	// since a clustered query stops after a few.
	nq, sl := math.Sqrt(qn), cellSlack(s.dim)
	for j := range sh.cells {
		sc.order = append(sc.order, cellBound{sh.bound(j, metric, q, qn, nq, 2/nq, sc.f.gamma, sl), j})
	}
	h := sc.order
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		top := h[0]
		if t.Full() && t.k != 0 && top.b < t.Threshold().Score {
			break
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		sc.cells++
		sc.scanRange(t, sh.cells[top.j].lo, sh.cells[top.j].hi)
	}
	return
}

// siftDown restores the heap order of h (largest bound at the root,
// ties to the smaller cell) below i.
func siftDown(h []cellBound, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && ahead(h[r], h[l]) {
			l = r
		}
		if !ahead(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// ahead reports whether a is visited before b.
func ahead(a, b cellBound) bool { return a.b > b.b || (a.b == b.b && a.j < b.j) }

// bound returns B, an upper bound on the float64 score of every row of
// cell j for the query q (squared norm qn, its root nq, and inv = 2/nq),
// or +Inf where the cell bound in the header does not apply.
func (r *int8Rows) bound(j int, metric Metric, q []float32, qn, nq, inv, gamma, sl float64) float64 {
	dim := len(q)
	c := &r.cells[j]
	x, xn, nx, rho := r.cen[j*dim:(j+1)*dim], c.cn, c.cr, c.rho
	if metric == Cosine {
		x, xn, nx, rho = r.unit[j*dim:(j+1)*dim], c.un, c.ur, c.rhoU
	}
	if !(qn >= minSqNorm) || !(xn >= minSqNorm) {
		return math.Inf(1)
	}
	a := float64(f32.Dot(q, x)) + float64(gamma*nq)*nx
	if a-a != 0 {
		return math.Inf(1)
	}
	switch metric {
	case Cosine:
		t := a * inv
		z := 1 + xn + math.Abs(t) + rho*rho
		d := math.Sqrt(max(0, 1+xn-t-sl*z))
		m := max(0, d-rho)
		b := 1 - m*m/2 + sl*z
		if c.zero {
			b = max(b, 0)
		}
		return b
	case Dot:
		return a + nq*rho + sl*nq*(nx+rho)
	default:
		z := qn + xn + math.Abs(2*a) + rho*rho
		d := math.Sqrt(max(0, qn+xn-2*a-sl*z))
		m := max(0, d-rho)
		return -m*m + sl*z
	}
}

// scanRange scores the rows at positions [lo, hi) of the shadow in
// three stages per block (see the header) and pushes them into t. t is
// an argument rather than a field: the pooled scanner would make every
// caller's heap escape.
func (c *scanner) scanRange(t *TopK, lo, hi int) {
	s, sh, f := c.s, c.sh, &c.f
	del := s.deleted
	c.visited += hi - lo
	for lo < hi {
		n, armed := min(hi-lo, scanBlock), f.armed
		next := lo + n
		var dropped [scanBlock / 64]uint64
		if armed {
			f32.DotRowsI8(c.b.codes, sh.codes[lo*sh.stride:next*sh.stride], c.dots[:n])
			f.int8Mask(&c.b, c.dots[:n], sh.scale[lo:next], sh.half[lo:next], sh.norm[lo:next], &dropped)
		}
	block:
		for w := 0; w*64 < n; w++ {
			// The rows of word w stage 1 left for stage 2 to judge, by
			// row ID, dotted together (see the header).
			maybe := ^dropped[w]
			if rows := n - w*64; rows < 64 {
				maybe &= 1<<rows - 1
			}
			base, ids := lo+w*64, c.ids[:0]
			for m := maybe; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				if sh.ids != nil {
					i = int(sh.ids[i])
				}
				ids = append(ids, int32(i))
			}
			if armed {
				f32.HintRows(s.data, s.dim, ids)
				f32.DotGather(c.q, s.data, ids, c.a[:len(ids)])
			}
			for j := 0; maybe != 0; j, maybe = j+1, maybe&(maybe-1) {
				p, i := base+bits.TrailingZeros64(maybe), int(ids[j])
				c.survivors++
				if i == c.exclude || (del != nil && del[i]) || (armed && f.drops(float64(c.a[j]), sh.norm[p])) {
					continue
				}
				t.Push(i, scoreRow(s, c.metric, c.q, f.qn, i))
				c.rescored++
				if t.Full() && t.k != 0 {
					f.arm(t.Threshold().Score)
					if !armed && f.armed {
						// Armed for the first time: the next block starts
						// after this row, so stage 1 judges the rest of
						// this one.
						next = p + 1
						break block
					}
				}
			}
		}
		lo = next
	}
}
