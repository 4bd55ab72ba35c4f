// Package cluster implements k-means clustering: Lloyd's algorithm
// with k-means++ seeding and multi-restart best-of selection, exactly
// the procedure the paper uses to turn V2V embeddings into graph
// communities (Section III: "we repeat the algorithm 100 times and
// choose the best solution").
//
// Restarts are parallelised over the worker pool, at most one worker
// per restart; each restart runs serially on its own seeded stream,
// so the result never depends on the worker count.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"v2v/internal/linalg"
	"v2v/internal/xrand"
)

// Config controls KMeans.
type Config struct {
	K        int // number of clusters
	Restarts int // independent Lloyd runs; the lowest-SSE result wins (paper: 100)
	MaxIter  int // Lloyd iterations per restart (default 100)
	// Tolerance stops a restart early when the relative SSE
	// improvement falls below it (default 1e-6).
	Tolerance float64
	// PlusPlus selects k-means++ seeding; plain uniform seeding
	// otherwise.
	PlusPlus bool
	Seed     uint64
	Workers  int // restarts run in parallel, up to one per restart; 0 = GOMAXPROCS
}

// DefaultConfig mirrors the paper's clustering setup: k clusters,
// k-means++ seeding, 100 restarts.
func DefaultConfig(k int) Config {
	return Config{K: k, Restarts: 100, MaxIter: 100, Tolerance: 1e-6, PlusPlus: true}
}

// Result is a fitted clustering.
type Result struct {
	Assignments []int       // cluster index per point
	Centers     [][]float64 // k centroids
	SSE         float64     // sum of squared distances to assigned centers
	Iterations  int         // Lloyd iterations of the winning restart
	Restarts    int         // restarts actually run
}

// KMeans clusters the given points. It panics on ragged input and
// returns an error for degenerate configurations.
func KMeans(points [][]float64, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	d := len(points[0])
	for _, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("cluster: ragged input")
		}
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: K must be positive, got %d", cfg.K)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("cluster: K=%d exceeds number of points %d", cfg.K, n)
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-6
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.Restarts)

	results := make([]*Result, cfg.Restarts)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for r := 0; r < cfg.Restarts; r++ {
			next <- r
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				rng := xrand.NewStream(cfg.Seed, uint64(r))
				results[r] = lloyd(points, cfg, rng)
			}
		}()
	}
	wg.Wait()

	best := results[0]
	for _, r := range results[1:] {
		if r.SSE < best.SSE {
			best = r
		}
	}
	best.Restarts = cfg.Restarts
	return best, nil
}

// lloyd runs one seeded Lloyd descent.
func lloyd(points [][]float64, cfg Config, rng *xrand.RNG) *Result {
	n := len(points)
	d := len(points[0])
	k := cfg.K

	centers := make([][]float64, k)
	if cfg.PlusPlus {
		seedPlusPlus(points, centers, rng)
	} else {
		for i, idx := range rng.Perm(n)[:k] {
			centers[i] = append([]float64(nil), points[idx]...)
		}
	}

	assign := make([]int, n)
	dist := make([]float64, n) // each point's squared distance to its center
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}

	var sse, prevSSE float64
	prevSSE = math.Inf(1)
	iters := 0
	for iters < cfg.MaxIter {
		iters++
		// Assignment step.
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := linalg.SquaredDistance(p, ctr); d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[i], dist[i] = bestC, bestD
		}
		sse = 0
		for _, d := range dist {
			sse += d
		}
		// Update step.
		for c := range sums {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from
				// its current center to keep exactly k clusters.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := linalg.SquaredDistance(p, centers[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centers[c], points[far])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] = sums[c][j] * inv
			}
		}
		if prevSSE-sse < cfg.Tolerance*prevSSE {
			break
		}
		prevSSE = sse
	}
	return &Result{
		Assignments: assign,
		Centers:     centers,
		SSE:         sse,
		Iterations:  iters,
	}
}

// seedPlusPlus fills centers with the k-means++ D^2-weighted seeding
// of Arthur & Vassilvitskii.
func seedPlusPlus(points [][]float64, centers [][]float64, rng *xrand.RNG) {
	n := len(points)
	k := len(centers)
	first := rng.Intn(n)
	centers[0] = append([]float64(nil), points[first]...)
	dist2 := make([]float64, n)
	for i, p := range points {
		dist2[i] = linalg.SquaredDistance(p, centers[0])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d2 := range dist2 {
			total += d2
		}
		var idx int
		if total <= 0 {
			// All points coincide with existing centers; pick uniformly.
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d2 := range dist2 {
				acc += d2
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centers[c] = append([]float64(nil), points[idx]...)
		for i, p := range points {
			d2 := linalg.SquaredDistance(p, centers[c])
			if d2 < dist2[i] {
				dist2[i] = d2
			}
		}
	}
}

// SSEOf computes the k-means objective of an arbitrary assignment,
// useful for tests and for comparing partitions.
func SSEOf(points [][]float64, assign []int, k int) float64 {
	if len(points) != len(assign) {
		panic("cluster: SSEOf length mismatch")
	}
	if len(points) == 0 {
		return 0
	}
	d := len(points[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			sums[c][j] += v
		}
	}
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		if counts[c] > 0 {
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] = sums[c][j] * inv
			}
		}
	}
	var sse float64
	for i, p := range points {
		sse += linalg.SquaredDistance(p, centers[assign[i]])
	}
	return sse
}
