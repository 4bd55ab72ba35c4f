package metrics

import (
	"testing"

	"v2v/internal/xrand"
)

func benchLabels(n, k int, seed uint64) ([]int, []int) {
	rng := xrand.New(seed)
	truth := make([]int, n)
	pred := make([]int, n)
	for i := 0; i < n; i++ {
		truth[i] = rng.Intn(k)
		pred[i] = rng.Intn(k)
	}
	return truth, pred
}

// BenchmarkCountPairs measures the contingency-table pair counter at
// the paper's graph size (O(n), not O(n^2)).
func BenchmarkCountPairs(b *testing.B) {
	truth, pred := benchLabels(100000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountPairs(truth, pred); err != nil {
			b.Fatal(err)
		}
	}
}
