package vecstore

import (
	"math"
	"math/bits"

	"v2v/internal/f32"
)

// The exact scan is filter-and-refine. A float32 SIMD pass (f32.DotRows)
// computes a = fl32(q·r) for a block of rows; a row is skipped when a,
// with its worst-case rounding error added, still cannot beat the
// heap's current k-th best score; every other row is scored by the
// float64 kernels of kernels.go exactly as before. The float32 pass
// can only reject, never rank, so results are bit for bit those of
// scoring every row.
//
// The bound. A float32 dot of dim terms, in any summation order, puts
// each term through at most dim roundings (one product, the additions
// on its path; the kernels' order needs far fewer), so with
// u = 2^-24 and Cauchy-Schwarz
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
// The scan rejects in two stages. After DotRows, one vector pass over
// the block (dropMask: AVX2 assembly where the processor has it, a
// no-op elsewhere) sets a bit for every row drops rejects at the
// threshold armed when the block starts, four rows per instruction,
// with drops' float64 operations in drops' order. scanRange then
// visits only the clear bits, in row order, and tests each again with
// drops at the threshold of that moment before scoring it. That is
// exact because the threshold never falls — a full TopK's worst entry
// is replaced only by a better one, and a NaN worst entry never is —
// and drops is monotone in τ: Cosine's τ-γ > 0 and -(τ-γ)²qn·rn, Dot's
// x = a-τ inside the increasing x·|x|, Euclidean's comparison with τ
// itself, each under IEEE rounding, which is monotone too (and a -0
// threshold tests as +0 does). So a row the mask rejects at the
// block's τ, drops rejects at any later τ: the rows pushed into the
// heap, in their order, are those of testing every row with drops
// alone (TestScanRescoresSameRows; TestRejectMaskMatchesDrops holds
// the mask to drops bit for bit).

// scanBlock is the number of rows per DotRows call: the float32 dots
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

// drops reports whether a row with float32 dot a32 and squared norm rn
// provably scores below the threshold. Every rounded product is written
// float64(x*y): the conversion is a rounding point the compiler may not
// fuse into a multiply-add (GOAMD64=v3, arm64 and others otherwise
// may), so drops keeps the bits of dropMaskAVX2, which never fuses.
// 2a is exact and needs none.
func (f *prefilter) drops(a32 float32, rn float64) bool {
	// a32-a32 is 0 exactly when a32 is finite.
	if !f.armed || a32-a32 != 0 || !(rn >= minSqNorm) {
		return false
	}
	if f.metric == Euclidean {
		return 2*float64(a32)-float64(f.c*(f.qn+rn)) < f.off
	}
	x := float64(a32) - f.off
	return float64(x*math.Abs(x))+float64(f.c*rn) < 0
}

// beats reports whether a row with float32 dot a32 and squared norm rn
// provably scores above the threshold, with drops' rounding points.
func (f *prefilter) beats(a32 float32, rn float64) bool {
	if !f.sure || a32-a32 != 0 || !(rn >= minSqNorm) {
		return false
	}
	if f.metric == Euclidean {
		return 2*float64(a32)-float64(f.cb*(f.qn+rn)) > f.off
	}
	x := float64(a32) - f.off
	return float64(x*math.Abs(x))-float64(f.cb*rn) > 0
}

// scanRange scores rows [lo, hi) of s against q and pushes them into
// t, skipping row exclude (-1 for none), every tombstoned row, and
// every row the prefilter proves t would drop. It returns the number
// of rows the float64 kernel scored.
func scanRange(s *Store, metric Metric, q []float32, lo, hi, exclude int, t *TopK) (rescored int) {
	dim, norms, del := s.dim, s.SqNorms(), s.deleted
	f := prefilter{metric: metric, gamma: dotErrorBound(dim), qn: sqNorm(q)}
	var dots [scanBlock]float32
	for ; lo < hi; lo += scanBlock {
		n := min(hi-lo, scanBlock)
		f32.DotRows(q, s.data[lo*dim:(lo+n)*dim], dots[:n])
		var dropped [scanBlock / 64]uint64
		f.dropMask(dots[:n], norms[lo:lo+n], &dropped)
		for w := 0; w*64 < n; w++ {
			// The rows of word w the mask left for drops to judge.
			maybe := ^dropped[w]
			if rows := n - w*64; rows < 64 {
				maybe &= 1<<rows - 1
			}
			for ; maybe != 0; maybe &= maybe - 1 {
				j := w*64 + bits.TrailingZeros64(maybe)
				i := lo + j
				if f.drops(dots[j], norms[i]) || i == exclude || (del != nil && del[i]) {
					continue
				}
				t.Push(i, scoreRow(s, metric, q, f.qn, i))
				rescored++
				if t.Full() && t.k != 0 {
					f.arm(t.Threshold().Score)
				}
			}
		}
	}
	return rescored
}
