package cluster

import "testing"

// BenchmarkKMeans measures the paper's clustering configuration
// (k = 10, 100 restarts) at the Table I embedding shape (1000 x 10).
func BenchmarkKMeans(b *testing.B) {
	points, _ := gaussianBlobs(10, 100, 10, 15, 1, 1)
	cfg := DefaultConfig(10)
	cfg.Seed = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(points, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansSingleRestart isolates one Lloyd descent.
func BenchmarkKMeansSingleRestart(b *testing.B) {
	points, _ := gaussianBlobs(10, 100, 10, 15, 1, 1)
	cfg := DefaultConfig(10)
	cfg.Restarts = 1
	cfg.Seed = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(points, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansDimensions shows cost scaling with embedding size.
func BenchmarkKMeansDimensions(b *testing.B) {
	for _, d := range []int{10, 50, 250} {
		points, _ := gaussianBlobs(10, 100, d, 15, 1, 3)
		cfg := DefaultConfig(10)
		cfg.Restarts = 10
		cfg.Seed = 4
		name := map[int]string{10: "d=10", 50: "d=50", 250: "d=250"}[d]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := KMeans(points, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
