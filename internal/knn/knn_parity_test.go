package knn

import (
	"math"
	"sort"
	"testing"

	"v2v/internal/vecstore"
	"v2v/internal/xrand"
)

// seedPredict is the pre-vecstore Predict kept verbatim (bounded
// insertion over [][]float64 rows) as the parity reference.
func seedPredict(k int, dist Distance, points [][]float64, labels []int, x []float64) int {
	eval := func(a, b []float64) float64 {
		if dist == Cosine {
			var dot, na, nb float64
			for i := range a {
				dot += a[i] * b[i]
				na += a[i] * a[i]
				nb += b[i] * b[i]
			}
			if na == 0 || nb == 0 {
				return 1
			}
			return 1 - dot/math.Sqrt(na*nb)
		}
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	type cand struct {
		dist  float64
		label int
	}
	if k > len(points) {
		k = len(points)
	}
	best := make([]cand, 0, k)
	worst := -1.0
	for i, p := range points {
		d := eval(x, p)
		if len(best) < k {
			best = append(best, cand{d, labels[i]})
			if d > worst {
				worst = d
			}
			continue
		}
		if d >= worst {
			continue
		}
		wi, wd := 0, -1.0
		for j, b := range best {
			if b.dist > wd {
				wi, wd = j, b.dist
			}
		}
		best[wi] = cand{d, labels[i]}
		worst = -1
		for _, b := range best {
			if b.dist > worst {
				worst = b.dist
			}
		}
	}
	votes := make(map[int]int)
	distSum := make(map[int]float64)
	for _, b := range best {
		votes[b.label]++
		distSum[b.label] += b.dist
	}
	bestLabel, bestVotes, bestDist := -1, -1, 0.0
	lbls := make([]int, 0, len(votes))
	for l := range votes {
		lbls = append(lbls, l)
	}
	sort.Ints(lbls)
	for _, l := range lbls {
		v := votes[l]
		switch {
		case v > bestVotes:
			bestLabel, bestVotes, bestDist = l, v, distSum[l]
		case v == bestVotes && distSum[l] < bestDist:
			bestLabel, bestDist = l, distSum[l]
		}
	}
	return bestLabel
}

// float32Rows draws random points that are exactly representable in
// float32 — the embedding case — so the store conversion is lossless
// and parity must be exact.
func float32Rows(n, d int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(float32(rng.NormFloat64()))
		}
	}
	return pts
}

// TestPredictMatchesSeedBitForBit pins the acceptance criterion: the
// index-backed classifier reproduces the seed's brute-force
// predictions exactly on float32-representable inputs.
func TestPredictMatchesSeedBitForBit(t *testing.T) {
	rng := xrand.New(81)
	for _, dist := range []Distance{Cosine, Euclidean} {
		for _, k := range []int{1, 3, 10, 999} {
			pts := float32Rows(300, 13, 83)
			labels := make([]int, len(pts))
			for i := range labels {
				labels[i] = rng.Intn(7)
			}
			clf := NewClassifier(k, dist, pts, labels)
			for trial := 0; trial < 30; trial++ {
				q := make([]float64, 13)
				for j := range q {
					q[j] = float64(float32(rng.NormFloat64()))
				}
				got := clf.Predict(q)
				want := seedPredict(k, dist, pts, labels, q)
				if got != want {
					t.Fatalf("%v k=%d trial %d: predicted %d, seed predicted %d", dist, k, trial, got, want)
				}
			}
		}
	}
}

// seedCrossValidate is the pre-vecstore CrossValidate kept verbatim.
func seedCrossValidate(points [][]float64, labels []int, k, folds int, dist Distance, seed uint64) float64 {
	n := len(points)
	perm := xrand.New(seed).Perm(n)
	correct, total := 0, 0
	for f := 0; f < folds; f++ {
		lo := f * n / folds
		hi := (f + 1) * n / folds
		var trainPts [][]float64
		var trainLbl []int
		var testPts [][]float64
		var testLbl []int
		for i, idx := range perm {
			if i >= lo && i < hi {
				testPts = append(testPts, points[idx])
				testLbl = append(testLbl, labels[idx])
			} else {
				trainPts = append(trainPts, points[idx])
				trainLbl = append(trainLbl, labels[idx])
			}
		}
		for i, q := range testPts {
			if seedPredict(k, dist, trainPts, trainLbl, q) == testLbl[i] {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}

// TestCrossValidateMatchesSeedBitForBit checks full-protocol parity:
// identical fold splits, identical predictions, identical accuracy.
func TestCrossValidateMatchesSeedBitForBit(t *testing.T) {
	rng := xrand.New(91)
	pts := float32Rows(120, 9, 93)
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	for _, dist := range []Distance{Cosine, Euclidean} {
		for _, folds := range []int{2, 5, 10} {
			got, err := CrossValidate(pts, labels, 3, folds, dist, 97)
			if err != nil {
				t.Fatal(err)
			}
			want := seedCrossValidate(pts, labels, 3, folds, dist, 97)
			if got != want {
				t.Fatalf("%v folds=%d: accuracy %v, seed %v (bit-for-bit)", dist, folds, got, want)
			}
		}
	}
}

// TestCrossValidateStoreMatchesRowPath checks the zero-copy store
// entry point agrees with the [][]float64 shim.
func TestCrossValidateStoreMatchesRowPath(t *testing.T) {
	rng := xrand.New(99)
	pts := float32Rows(80, 6, 101)
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	a, err := CrossValidate(pts, labels, 3, 5, Cosine, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidateStore(vecstore.FromRows64(pts), labels, 3, 5, Cosine, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("row path %v vs store path %v", a, b)
	}
}

// TestUseIndexHNSW checks approximate prediction stays accurate on
// separable data.
func TestUseIndexHNSW(t *testing.T) {
	rng := xrand.New(103)
	var pts [][]float64
	var labels []int
	centers := [][]float64{{10, 0}, {-10, 0}, {0, 10}}
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			pts = append(pts, []float64{ctr[0] + rng.NormFloat64(), ctr[1] + rng.NormFloat64()})
			labels = append(labels, c)
		}
	}
	clf := NewClassifier(3, Euclidean, pts, labels)
	if err := clf.UseIndex(vecstore.Config{Kind: vecstore.KindHNSW, M: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pts {
		if clf.Predict(p) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pts)); acc < 0.95 {
		t.Fatalf("HNSW-backed accuracy %.3f on separable data", acc)
	}
	if err := clf.UseIndex(vecstore.Config{Kind: vecstore.Kind(9)}); err == nil {
		t.Fatal("unknown index kind accepted")
	}
}

// TestPredictStoreMatchesPredictAll checks the float32 fast path.
func TestPredictStoreMatchesPredictAll(t *testing.T) {
	pts := float32Rows(50, 4, 107)
	labels := make([]int, len(pts))
	rng := xrand.New(109)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	clf := NewClassifier(3, Cosine, pts, labels)
	queries := pts[:17]
	a := clf.PredictAll(queries)
	b := clf.PredictStore(vecstore.FromRows64(queries))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: PredictAll %d vs PredictStore %d", i, a[i], b[i])
		}
	}
}
