package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // rank 9990, 10 beyond
		{9999, 99},    // rank 9990, 9 beyond p99.9
		{1000, 99},    // rank 990, 10 beyond
		{999, 95},     // p99: rank 990, 9 beyond
		{200, 95},     // rank 190, 10 beyond
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{5, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g, want 1, 4.5", q1, q3)
	}
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrSpread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m        metricSpec
		old, new float64
		noisy    bool
		want     string
	}{
		{lower, 1.0, 1.05, false, "same"},
		{lower, 1.0, 1.2, false, "worse"},
		{lower, 1.0, 0.8, false, "better"},
		{higher, 1000, 850, false, "worse"},
		{higher, 1000, 1200, false, "better"},
		{higher, 1000, 850, true, "unresolved"},
	} {
		if got := verdict(c.m, c.old, c.new, c.noisy); got != c.want {
			t.Errorf("verdict(%s, %g -> %g, noisy=%v) = %s, want %s", c.m.Name, c.old, c.new, c.noisy, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// A 100 ns parent with two overlapping children covering 20..70.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 70},
	}
	self := selfTimeMs(spans)
	if got := self["parent"] * 1e6; math.Abs(got-50) > 1e-6 {
		t.Errorf("parent self time = %g ns, want 50", got)
	}
	if got := self["child"] * 1e6; math.Abs(got-60) > 1e-6 {
		t.Errorf("children self time = %g ns, want 60", got)
	}
}
