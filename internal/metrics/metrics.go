// Package metrics implements the clustering and classification
// quality measures used in the paper's evaluation: pairwise precision
// and recall of a clustering against ground-truth communities
// (Section III-B), and their F1.
package metrics

import "fmt"

// PairCounts holds the pair-level contingency of a clustering versus
// ground truth: of all unordered vertex pairs, how many are together
// in both, in the clustering only, in the truth only, or in neither.
type PairCounts struct {
	TogetherBoth    int64 // same community and same cluster (true positives)
	TogetherCluster int64 // same cluster (predicted positives)
	TogetherTruth   int64 // same community (actual positives)
	Pairs           int64 // n*(n-1)/2
}

// CountPairs computes pairwise contingency counts in O(n + C*K) using
// the community-by-cluster contingency table rather than enumerating
// the O(n^2) pairs.
func CountPairs(truth, pred []int) (PairCounts, error) {
	n := len(truth)
	if n != len(pred) {
		return PairCounts{}, fmt.Errorf("metrics: truth has %d items, pred has %d", n, len(pred))
	}
	type cell struct{ t, p int }
	contingency := make(map[cell]int64)
	truthSizes := make(map[int]int64)
	predSizes := make(map[int]int64)
	for i := 0; i < n; i++ {
		contingency[cell{truth[i], pred[i]}]++
		truthSizes[truth[i]]++
		predSizes[pred[i]]++
	}
	choose2 := func(x int64) int64 { return x * (x - 1) / 2 }
	var pc PairCounts
	pc.Pairs = choose2(int64(n))
	for _, c := range contingency {
		pc.TogetherBoth += choose2(c)
	}
	for _, s := range truthSizes {
		pc.TogetherTruth += choose2(s)
	}
	for _, s := range predSizes {
		pc.TogetherCluster += choose2(s)
	}
	return pc, nil
}

// PairwisePrecisionRecall returns the paper's precision and recall:
// precision is the fraction of same-cluster pairs that are also
// same-community; recall is the fraction of same-community pairs that
// are also same-cluster. Degenerate denominators yield 1.
func PairwisePrecisionRecall(truth, pred []int) (precision, recall float64, err error) {
	pc, err := CountPairs(truth, pred)
	if err != nil {
		return 0, 0, err
	}
	precision, recall = 1, 1
	if pc.TogetherCluster > 0 {
		precision = float64(pc.TogetherBoth) / float64(pc.TogetherCluster)
	}
	if pc.TogetherTruth > 0 {
		recall = float64(pc.TogetherBoth) / float64(pc.TogetherTruth)
	}
	return precision, recall, nil
}

// PairwiseF1 returns the harmonic mean of pairwise precision and
// recall (0 when both are 0).
func PairwiseF1(truth, pred []int) (float64, error) {
	p, r, err := PairwisePrecisionRecall(truth, pred)
	if err != nil {
		return 0, err
	}
	if p+r == 0 {
		return 0, nil
	}
	return 2 * p * r / (p + r), nil
}
