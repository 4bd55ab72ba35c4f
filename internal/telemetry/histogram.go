package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: HDR-style log-linear over nanoseconds.
//
// Values below subCount (256 ns) get one bucket each (exact). Above
// that, each power-of-two range is split into subCount/2 = 128 linear
// sub-buckets, so a bucket's width is at most 1/128 ≈ 0.78% of the
// values it holds — the quantile error bound. The layout is FIXED
// (independent of observed data), so merging histograms across
// workers, shards or processes is plain bucket-wise addition, and a
// quantile of the merge is exactly the quantile of the union of the
// inputs (to within one bucket width).
//
// Observations are clamped to histMaxNs (60 s); the top bucket holds
// every clamped value, and Sum keeps the true (unclamped) total so
// means stay exact. The capacity covers 1 µs – 60 s with ≤ 0.78%
// relative bucket width, per the serving stack's stated range; values
// below 1 µs are finer still (exact below 256 ns).
const (
	histSubBits  = 8
	histSubCount = 1 << histSubBits // 256
	histSubHalf  = histSubCount / 2 // 128
	histMaxNs    = 60_000_000_000   // 60 s clamp
)

// histNumBuckets is bucketIndex(histMaxNs)+1 (computed in init-free
// constant form: see bucketIndex).
var histNumBuckets = bucketIndex(histMaxNs) + 1

// bucketIndex maps a nanosecond value (already clamped) to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - histSubBits
	sub := v >> exp // in [histSubHalf, histSubCount)
	return histSubCount + int(exp-1)*histSubHalf + int(sub) - histSubHalf
}

// bucketUpperNs returns the largest nanosecond value that maps to
// bucket idx (the bucket's inclusive upper edge).
func bucketUpperNs(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	b := idx - histSubCount
	exp := uint(b/histSubHalf) + 1
	sub := uint64(b%histSubHalf) + histSubHalf
	return (sub+1)<<exp - 1
}

// Histogram is a concurrency-safe latency histogram: one atomic add
// per observation into a fixed log-linear bucket layout (see the
// layout constants above). The zero value is NOT ready; use
// NewHistogram.
type Histogram struct {
	counts []atomic.Uint64
	sum    atomic.Uint64 // true (unclamped) nanosecond total
	max    atomic.Uint64 // true (unclamped) maximum
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, histNumBuckets)}
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveNs(uint64(d))
}

// ObserveNs records one observation in nanoseconds.
func (h *Histogram) ObserveNs(ns uint64) {
	v := ns
	if v > histMaxNs {
		v = histMaxNs
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Merge adds o's observations into h, bucket by bucket. o should be
// quiescent (a finished worker's histogram); concurrent observes into
// o during the merge may be missed but never corrupt h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Count returns the number of observations (exact: every observation
// lands in exactly one bucket).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot captures a point-in-time copy for quantile math and
// exposition. A snapshot taken concurrently with observations is
// internally consistent per bucket but may straddle an observation
// (count derived from buckets is always the number of bucketed
// observations the copy saw).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Counts []uint64 // per-bucket counts, fixed layout
	Count  uint64   // Σ Counts
	SumNs  uint64   // true nanosecond total
	MaxNs  uint64   // true maximum
}

// Merge adds o into s bucket-wise. Both snapshots share the fixed
// layout, so the merge is exact: the result is the histogram of the
// union of both observation sets.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, histNumBuckets)
	}
	for i, n := range o.Counts {
		s.Counts[i] += n
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
}

// Quantile returns the q-quantile (0 < q ≤ 1) as a duration, using
// the nearest-rank definition: the upper edge of the bucket holding
// the rank-ceil(q·n) observation. That edge is within one bucket
// width (≤ 0.78% relative) above the exact nearest-rank value. An
// empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			return time.Duration(bucketUpperNs(i))
		}
	}
	return time.Duration(bucketUpperNs(len(s.Counts) - 1))
}

// QuantileMs is Quantile in float milliseconds (the /stats
// reporting unit).
func (s HistogramSnapshot) QuantileMs(q float64) float64 {
	return float64(s.Quantile(q)) / float64(time.Millisecond)
}

// MeanMs returns the exact mean in milliseconds (true sum over
// count), or 0 when empty.
func (s HistogramSnapshot) MeanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count) / float64(time.Millisecond)
}

// MaxMs returns the exact maximum in milliseconds.
func (s HistogramSnapshot) MaxMs() float64 {
	return float64(s.MaxNs) / float64(time.Millisecond)
}

// CumulativeAtNs returns how many observations recorded a (clamped)
// value of at most boundNs — the Prometheus `le` bucket value. The
// straddling fine bucket is attributed by its upper edge, so the
// boundary error is at most one fine-bucket width.
func (s HistogramSnapshot) CumulativeAtNs(boundNs uint64) uint64 {
	var cum uint64
	for i, n := range s.Counts {
		if bucketUpperNs(i) > boundNs {
			break
		}
		cum += n
	}
	return cum
}
