package telemetry

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// oracle is the exact nearest-rank quantile over raw observations:
// the smallest value such that at least a q fraction of the samples
// are <= it (rank ceil(q*n)) — the same definition the histogram
// approximates and the benchmark's percentile (benchmark/stats.go)
// computes from a sorted slice.
func oracle(ns []uint64, q float64) uint64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// clampNs mirrors the histogram's observation clamp.
func clampNs(v uint64) uint64 {
	if v > histMaxNs {
		return histMaxNs
	}
	return v
}

func TestBucketLayout(t *testing.T) {
	// Exhaustive continuity over the fine/coarse boundary, plus spot
	// checks: index is monotone, and upper edges are tight (the upper
	// edge of bucket i maps back to i; upper+1 maps to i+1).
	prev := -1
	for v := uint64(0); v < 4096; v++ {
		idx := bucketIndex(v)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucketIndex(%d) = %d, previous was %d (not monotone-contiguous)", v, idx, prev)
		}
		prev = idx
	}
	for _, idx := range []int{0, 1, 255, 256, 383, 384, 1000, histNumBuckets - 1} {
		up := bucketUpperNs(idx)
		if got := bucketIndex(up); got != idx {
			t.Fatalf("bucketIndex(bucketUpperNs(%d)=%d) = %d", idx, up, got)
		}
		if idx < histNumBuckets-1 {
			if got := bucketIndex(up + 1); got != idx+1 {
				t.Fatalf("bucketIndex(upper+1) for bucket %d: got %d, want %d", idx, got, idx+1)
			}
		}
	}
	// Relative width bound over the stated 1µs–60s range.
	for v := uint64(1000); v <= histMaxNs; v = v + v/64 {
		idx := bucketIndex(v)
		width := bucketUpperNs(idx) + 1
		if idx >= histSubCount {
			width -= (bucketUpperNs(idx-1) + 1)
		}
		if rel := float64(width) / float64(v); rel > 1.0/64 {
			t.Fatalf("bucket width at %dns is %.4f%% relative (> 1/64)", v, rel*100)
		}
	}
}

func TestQuantileAgainstOracle(t *testing.T) {
	mk := func(gen func(i int) uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	cases := []struct {
		name string
		vals []uint64
	}{
		{"uniform-1ms", mk(func(i int) uint64 { return uint64(1+i%1000) * 1000 }, 5000)},
		{"bimodal", mk(func(i int) uint64 {
			if i%10 == 0 {
				return 250_000_000 + uint64(i)*1000 // slow mode ~250ms
			}
			return 80_000 + uint64(i%100)*10 // fast mode ~80µs
		}, 2000)},
		{"single-sample", []uint64{1_234_567}},
		{"sub-bucket-exact", mk(func(i int) uint64 { return uint64(i % 200) }, 1000)},
		{"clamp-over-60s", mk(func(i int) uint64 {
			if i%5 == 0 {
				return 90_000_000_000 // 90s, clamps to 60s
			}
			return uint64(1+i) * 10_000
		}, 500)},
	}
	quantiles := []float64{0.5, 0.95, 0.99, 0.999, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range tc.vals {
				h.ObserveNs(v)
			}
			snap := h.Snapshot()
			if snap.Count != uint64(len(tc.vals)) {
				t.Fatalf("count = %d, want %d", snap.Count, len(tc.vals))
			}
			for _, q := range quantiles {
				got := uint64(snap.Quantile(q))
				want := clampNs(oracle(tc.vals, q))
				// The histogram reports the upper edge of the oracle's
				// bucket: within one bucket width, and never below.
				if got != bucketUpperNs(bucketIndex(want)) {
					t.Fatalf("q=%g: got %dns, want upper edge %dns of oracle %dns's bucket",
						q, got, bucketUpperNs(bucketIndex(want)), want)
				}
				if want >= 1000 { // stated error bound over 1µs–60s
					if rel := float64(got-want) / float64(want); rel > 1.0/64 {
						t.Fatalf("q=%g: relative error %.4f%% exceeds bound", q, rel*100)
					}
				}
			}
		})
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	snap := h.Snapshot()
	if got := snap.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if snap.MeanMs() != 0 || snap.MaxMs() != 0 || snap.Count != 0 {
		t.Fatalf("empty snapshot not zero: %+v", snap)
	}
}

func TestMergeAssociativityAndExactness(t *testing.T) {
	gen := func(seed, n int) *Histogram {
		h := NewHistogram()
		for i := 0; i < n; i++ {
			h.ObserveNs(uint64((i*2654435761 + seed) % 500_000_000))
		}
		return h
	}
	a, b, c := gen(1, 300), gen(7, 400), gen(13, 500)

	ab := NewHistogram()
	ab.Merge(a)
	ab.Merge(b)
	abc1 := NewHistogram()
	abc1.Merge(ab)
	abc1.Merge(c)

	bc := NewHistogram()
	bc.Merge(b)
	bc.Merge(c)
	abc2 := NewHistogram()
	abc2.Merge(a)
	abc2.Merge(bc)

	s1, s2 := abc1.Snapshot(), abc2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("merge is not associative: (a+b)+c != a+(b+c)")
	}
	if s1.Count != 1200 {
		t.Fatalf("merged count = %d, want 1200 (exact-count merging)", s1.Count)
	}
	// A merge's quantiles equal those of one histogram fed the union.
	union := NewHistogram()
	for _, h := range []*Histogram{a, b, c} {
		union.Merge(h)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if union.Snapshot().Quantile(q) != s1.Quantile(q) {
			t.Fatalf("q=%g differs between union and merge", q)
		}
	}
	// Snapshot-level merge agrees with histogram-level merge.
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	sa.Merge(c.Snapshot())
	if !reflect.DeepEqual(sa, s1) {
		t.Fatal("snapshot merge differs from histogram merge")
	}
}

// TestConcurrentObserve hammers one histogram from 8 goroutines; run
// under -race this checks the lock-free observation path, and the
// final count/sum must be exact regardless.
func TestConcurrentObserve(t *testing.T) {
	const workers, perWorker = 8, 20000
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveNs(uint64(w*1_000_000 + i))
			}
		}(w)
	}
	// Concurrent snapshots must never fail, just possibly straddle.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Quantile(0.99) < 0 {
				panic("negative quantile")
			}
		}
	}()
	wg.Wait()
	<-done
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", snap.Count, workers*perWorker)
	}
	var wantSum uint64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantSum += uint64(w*1_000_000 + i)
		}
	}
	if snap.SumNs != wantSum {
		t.Fatalf("sum = %d, want %d", snap.SumNs, wantSum)
	}
	if snap.MaxNs != uint64((workers-1)*1_000_000+perWorker-1) {
		t.Fatalf("max = %d", snap.MaxNs)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Millisecond) // negative clamps to 0
	h.Observe(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d", snap.Count)
	}
	if snap.Counts[0] != 1 {
		t.Fatal("negative duration did not clamp to bucket 0")
	}
	if q := snap.Quantile(1); q < 3*time.Millisecond || q > 3*time.Millisecond*105/100 {
		t.Fatalf("max quantile %v not within 5%% of 3ms", q)
	}
}
