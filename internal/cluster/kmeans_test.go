package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"v2v/internal/xrand"
)

// gaussianBlobs generates k well-separated Gaussian clusters and
// returns points plus ground-truth labels.
func gaussianBlobs(k, perCluster, dim int, sep, noise float64, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * sep
		}
	}
	var points [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = centers[c][j] + rng.NormFloat64()*noise
			}
			points = append(points, p)
			labels = append(labels, c)
		}
	}
	return points, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	points, labels := gaussianBlobs(4, 50, 3, 20, 0.5, 1)
	cfg := DefaultConfig(4)
	cfg.Restarts = 10
	cfg.Seed = 2
	res, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every ground-truth cluster maps to exactly one k-means cluster.
	mapping := make(map[int]int)
	for i, l := range labels {
		a := res.Assignments[i]
		if prev, ok := mapping[l]; ok {
			if prev != a {
				t.Fatalf("cluster %d split between %d and %d", l, prev, a)
			}
		} else {
			mapping[l] = a
		}
	}
	if len(mapping) != 4 {
		t.Fatalf("clusters merged: %v", mapping)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, DefaultConfig(2)); err == nil {
		t.Error("empty input accepted")
	}
	pts := [][]float64{{1}, {2}}
	if _, err := KMeans(pts, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := KMeans(pts, Config{K: 3}); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, Config{K: 1}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	points := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	res, err := KMeans(points, Config{K: 1, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if a != 0 {
			t.Fatal("single-cluster assignment not uniform")
		}
	}
	if math.Abs(res.Centers[0][0]-2) > 1e-9 {
		t.Fatalf("centroid %v, want (2,2)", res.Centers[0])
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	points := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	res, err := KMeans(points, Config{K: 3, Restarts: 5, PlusPlus: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > 1e-9 {
		t.Fatalf("k=n should give SSE 0, got %v", res.SSE)
	}
	seen := map[int]bool{}
	for _, a := range res.Assignments {
		if seen[a] {
			t.Fatal("two points share a cluster at k=n")
		}
		seen[a] = true
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	points := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res, err := KMeans(points, Config{K: 2, Restarts: 3, PlusPlus: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > 1e-12 {
		t.Fatalf("identical points SSE = %v", res.SSE)
	}
}

func TestKMeansDeterministicBySeed(t *testing.T) {
	points, _ := gaussianBlobs(3, 30, 2, 10, 1, 5)
	cfg := DefaultConfig(3)
	cfg.Restarts = 5
	cfg.Seed = 42
	cfg.Workers = 1
	a, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SSE != b.SSE {
		t.Fatalf("same seed, different SSE: %v vs %v", a.SSE, b.SSE)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed, different assignments")
		}
	}
}

func TestKMeansParallelRestartsMatchSerial(t *testing.T) {
	points, _ := gaussianBlobs(3, 30, 2, 10, 1, 6)
	cfg := DefaultConfig(3)
	cfg.Restarts = 8
	cfg.Seed = 7
	cfg.Workers = 1
	serial, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.SSE != parallel.SSE {
		t.Fatalf("restart parallelism changed result: %v vs %v", serial.SSE, parallel.SSE)
	}
}

func TestMoreRestartsNeverWorse(t *testing.T) {
	points, _ := gaussianBlobs(5, 20, 4, 5, 1.5, 8)
	cfg1 := Config{K: 5, Restarts: 1, MaxIter: 50, Tolerance: 1e-9, PlusPlus: false, Seed: 9, Workers: 1}
	cfg2 := cfg1
	cfg2.Restarts = 20
	r1, err := KMeans(points, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r20, err := KMeans(points, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Restart 0 is included in both sets, so best-of-20 <= best-of-1.
	if r20.SSE > r1.SSE+1e-9 {
		t.Fatalf("more restarts got worse: %v vs %v", r20.SSE, r1.SSE)
	}
}

func TestKMeansIterationsCountsRunIterations(t *testing.T) {
	points, _ := gaussianBlobs(5, 40, 4, 3, 1.5, 14)
	capped, err := KMeans(points, Config{K: 5, Restarts: 1, MaxIter: 1, Tolerance: 1e-12, PlusPlus: true, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Iterations != 1 {
		t.Fatalf("MaxIter 1: Iterations = %d, want 1", capped.Iterations)
	}
	for _, maxIter := range []int{2, 5, 100} {
		res, err := KMeans(points, Config{K: 5, Restarts: 3, MaxIter: maxIter, PlusPlus: true, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 1 || res.Iterations > maxIter {
			t.Fatalf("MaxIter %d: Iterations = %d", maxIter, res.Iterations)
		}
	}
}

func TestSSEOfMatchesResult(t *testing.T) {
	points, _ := gaussianBlobs(3, 25, 2, 10, 1, 10)
	cfg := DefaultConfig(3)
	cfg.Restarts = 4
	cfg.Seed = 11
	res, err := KMeans(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := SSEOf(points, res.Assignments, 3)
	if math.Abs(recomputed-res.SSE) > 1e-6*(1+res.SSE) {
		t.Fatalf("SSEOf = %v, result = %v", recomputed, res.SSE)
	}
}

func TestEmptyClusterReseeded(t *testing.T) {
	// 3 far clusters but k=3 with adversarial seeding can still empty
	// a cluster mid-run; verify we always end with k non-empty
	// clusters when n >= k distinct points exist.
	points, _ := gaussianBlobs(2, 40, 2, 30, 0.1, 12)
	res, err := KMeans(points, Config{K: 3, Restarts: 3, PlusPlus: false, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]int)
	for _, a := range res.Assignments {
		sizes[a]++
	}
	if len(sizes) != 3 {
		t.Fatalf("ended with %d non-empty clusters, want 3", len(sizes))
	}
}

// Property: k-means SSE is never negative, assignments are in range,
// and running Lloyd's never produces more than k distinct labels.
func TestKMeansInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		k := 1 + rng.Intn(n)
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, d)
			for j := range points[i] {
				points[i][j] = rng.NormFloat64()
			}
		}
		res, err := KMeans(points, Config{K: k, Restarts: 2, Seed: seed, PlusPlus: seed%2 == 0})
		if err != nil {
			return false
		}
		if res.SSE < 0 {
			return false
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
