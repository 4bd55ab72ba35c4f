package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"v2v/internal/xrand"
)

func TestPerfectClustering(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{5, 5, 9, 9, 1, 1} // same partition, different labels
	p, r, err := PairwisePrecisionRecall(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 || r != 1 {
		t.Fatalf("perfect partition: precision %v recall %v", p, r)
	}
}

func TestAllInOneCluster(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 0}
	p, r, err := PairwisePrecisionRecall(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	// All 6 pairs predicted together; 2 truly together.
	if math.Abs(p-2.0/6.0) > 1e-12 {
		t.Fatalf("precision %v, want 1/3", p)
	}
	if r != 1 {
		t.Fatalf("recall %v, want 1 (every true pair clustered)", r)
	}
}

func TestAllSingletons(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 2, 3}
	p, r, err := PairwisePrecisionRecall(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("precision %v, want 1 (vacuous: no predicted pairs)", p)
	}
	if r != 0 {
		t.Fatalf("recall %v, want 0", r)
	}
}

func TestPairCountsManual(t *testing.T) {
	// truth: {0,1},{2,3}; pred: {0,1,2},{3}
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	pc, err := CountPairs(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Pairs != 6 {
		t.Fatalf("Pairs = %d", pc.Pairs)
	}
	if pc.TogetherTruth != 2 {
		t.Fatalf("TogetherTruth = %d", pc.TogetherTruth)
	}
	if pc.TogetherCluster != 3 {
		t.Fatalf("TogetherCluster = %d", pc.TogetherCluster)
	}
	if pc.TogetherBoth != 1 { // only pair (0,1)
		t.Fatalf("TogetherBoth = %d", pc.TogetherBoth)
	}
	p, r, _ := PairwisePrecisionRecall(truth, pred)
	if math.Abs(p-1.0/3.0) > 1e-12 || math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("precision %v recall %v", p, r)
	}
}

func TestLengthMismatchErrors(t *testing.T) {
	if _, _, err := PairwisePrecisionRecall([]int{1}, []int{1, 2}); err == nil {
		t.Error("PairwisePrecisionRecall accepted mismatch")
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("Accuracy accepted mismatch")
	}
	if _, err := Purity([]int{1}, []int{1, 2}); err == nil {
		t.Error("Purity accepted mismatch")
	}
}

func TestPairwiseF1(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	f1, err := PairwiseF1(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	p, r, _ := PairwisePrecisionRecall(truth, pred)
	want := 2 * p * r / (p + r)
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", f1, want)
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy %v", acc)
	}
	if acc, _ := Accuracy(nil, nil); acc != 1 {
		t.Fatal("empty accuracy should be 1")
	}
}

func TestConfusionMatrix(t *testing.T) {
	m, err := ConfusionMatrix([]int{0, 0, 1, 1}, []int{0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 1 || m[0][1] != 1 || m[1][1] != 2 || m[1][0] != 0 {
		t.Fatalf("confusion %v", m)
	}
	if _, err := ConfusionMatrix([]int{5}, []int{0}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestPurity(t *testing.T) {
	// Cluster 0 = {0,0,1}, cluster 1 = {1}: purity (2+1)/4.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	p, err := Purity(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.75 {
		t.Fatalf("purity %v", p)
	}
}

// Property: counting pairs via the contingency table agrees with the
// brute-force O(n^2) definition from the paper.
func TestPairCountsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(60)
		truth := make([]int, n)
		pred := make([]int, n)
		for i := 0; i < n; i++ {
			truth[i] = rng.Intn(4)
			pred[i] = rng.Intn(4)
		}
		pc, err := CountPairs(truth, pred)
		if err != nil {
			return false
		}
		var both, clu, tru, pairs int64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs++
				sameT := truth[i] == truth[j]
				sameP := pred[i] == pred[j]
				if sameT {
					tru++
				}
				if sameP {
					clu++
				}
				if sameT && sameP {
					both++
				}
			}
		}
		return pc.Pairs == pairs && pc.TogetherBoth == both &&
			pc.TogetherCluster == clu && pc.TogetherTruth == tru
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: precision and recall are always in [0, 1], and refining a
// clustering (splitting clusters) never decreases precision.
func TestPrecisionRecallBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(50)
		truth := make([]int, n)
		pred := make([]int, n)
		for i := 0; i < n; i++ {
			truth[i] = rng.Intn(3)
			pred[i] = rng.Intn(3)
		}
		p, r, err := PairwisePrecisionRecall(truth, pred)
		if err != nil {
			return false
		}
		return p >= 0 && p <= 1 && r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
