package vecstore

import (
	"math"
	"math/bits"
	"slices"

	"v2v/internal/f32"
)

// The exact scan is filter-and-refine: passes that may only reject a
// row, then the float64 kernels of kernels.go on every row they leave,
// exactly as before, so results are bit for bit those of scoring every
// row. scanRange runs three stages per block of scanBlock rows:
//
//  1. An int8 pass. f32.DotRowsI8 computes Q·R over the store's int8
//     shadow, and int8Mask turns each into an upper bound hi >= q·r
//     and marks every row that drops rejects on hi at the threshold
//     armed when the block starts.
//  2. Each unmarked row gets its float32 dot a = f32.Dot(q, r), and
//     drops tests a at the threshold of that moment.
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
// per row, its codes R (stride bytes: dim rounded up to 32, zero past
// dim), its scale s_r (NaN for a row with a NaN or infinite element)
// and ½‖r‖₁. Store builds and maintains it (store.go); snapshots do
// not store it.
type int8Rows struct {
	stride int
	codes  []int8
	scale  []float64
	half   []float64
}

// newInt8Rows quantises every row of s.
func newInt8Rows(s *Store) *int8Rows {
	r := &int8Rows{stride: (s.dim + 31) &^ 31}
	r.codes = make([]int8, 0, s.n*r.stride)
	r.scale = make([]float64, 0, s.n)
	r.half = make([]float64, 0, s.n)
	for i := 0; i < s.n; i++ {
		r.add(s.Row(i))
	}
	return r
}

// add appends v as the shadow's next row.
func (r *int8Rows) add(v []float32) {
	r.codes = slices.Grow(r.codes, r.stride)[:len(r.codes)+r.stride]
	r.scale = append(r.scale, 0)
	r.half = append(r.half, 0)
	r.set(len(r.scale)-1, v)
}

// gather returns the shadow of the given rows, in order.
func (r *int8Rows) gather(ids []int) *int8Rows {
	g := &int8Rows{stride: r.stride, codes: make([]int8, len(ids)*r.stride), scale: make([]float64, len(ids)), half: make([]float64, len(ids))}
	for i, id := range ids {
		copy(g.codes[i*r.stride:(i+1)*r.stride], r.codes[id*r.stride:])
		g.scale[i], g.half[i] = r.scale[id], r.half[id]
	}
	return g
}

// set quantises v into row i.
func (r *int8Rows) set(i int, v []float32) {
	r.scale[i] = quantize(r.codes[i*r.stride:(i+1)*r.stride], v)
	var l1 float64
	for _, x := range v {
		l1 += math.Abs(float64(x))
	}
	r.half[i] = l1 / 2
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
		m = max(m, a)
	}
	if m == 0 {
		return 0
	}
	s := m / 127
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

// scanRange scores rows [lo, hi) of s against q and pushes them into
// t, skipping row exclude (-1 for none), every tombstoned row, and
// every row the prefilter proves t would drop. It returns the number
// of rows the float64 kernel scored.
func scanRange(s *Store, metric Metric, q []float32, lo, hi, exclude int, t *TopK) (rescored int) {
	return scanStages(s, metric, q, lo, hi, exclude, t).rescored
}

// scanCounts is what one scan did: the rows stage 1 left for stage 2
// (survivors) and the rows the float64 kernel scored (rescored).
type scanCounts struct{ survivors, rescored int }

// scanStages is scanRange, counting both stages' survivors.
func scanStages(s *Store, metric Metric, q []float32, lo, hi, exclude int, t *TopK) (c scanCounts) {
	norms, del, sh := s.SqNorms(), s.deleted, s.int8Rows()
	f := prefilter{metric: metric, gamma: dotErrorBound(s.dim), qn: sqNorm(q)}
	var qbuf [256]int8 // the codes of a query of up to 256 dimensions
	b := newInt8Query(q, sh.stride, qbuf[:])
	var dots [scanBlock]int32
	for lo < hi {
		n, armed := min(hi-lo, scanBlock), f.armed
		next := lo + n
		var dropped [scanBlock / 64]uint64
		if armed {
			f32.DotRowsI8(b.codes, sh.codes[lo*sh.stride:next*sh.stride], dots[:n])
			f.int8Mask(&b, dots[:n], sh.scale[lo:next], sh.half[lo:next], norms[lo:next], &dropped)
		}
	block:
		for w := 0; w*64 < n; w++ {
			// The rows of word w stage 1 left for stage 2 to judge.
			maybe := ^dropped[w]
			if rows := n - w*64; rows < 64 {
				maybe &= 1<<rows - 1
			}
			for ; maybe != 0; maybe &= maybe - 1 {
				i := lo + w*64 + bits.TrailingZeros64(maybe)
				c.survivors++
				if i == exclude || (del != nil && del[i]) || f.drops(float64(f32.Dot(q, s.Row(i))), norms[i]) {
					continue
				}
				t.Push(i, scoreRow(s, metric, q, f.qn, i))
				c.rescored++
				if t.Full() && t.k != 0 {
					f.arm(t.Threshold().Score)
					if !armed && f.armed {
						// Armed for the first time: the next block starts
						// after this row, so stage 1 judges the rest of
						// this one.
						next = i + 1
						break block
					}
				}
			}
		}
		lo = next
	}
	return c
}
