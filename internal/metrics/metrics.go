// Package metrics implements the clustering and classification
// quality measures used in the paper's evaluation: pairwise precision
// and recall of a clustering against ground-truth communities
// (Section III-B), plus their F1 and the accuracy, confusion-matrix
// and purity measures.
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

// Accuracy returns the fraction of positions where pred equals truth.
func Accuracy(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return 0, fmt.Errorf("metrics: truth has %d items, pred has %d", len(truth), len(pred))
	}
	if len(truth) == 0 {
		return 1, nil
	}
	correct := 0
	for i := range truth {
		if truth[i] == pred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truth)), nil
}

// ConfusionMatrix returns counts[t][p] of items with true label t
// predicted as p, over labels 0..numLabels-1. Labels outside the
// range cause an error.
func ConfusionMatrix(truth, pred []int, numLabels int) ([][]int, error) {
	if len(truth) != len(pred) {
		return nil, fmt.Errorf("metrics: truth has %d items, pred has %d", len(truth), len(pred))
	}
	m := make([][]int, numLabels)
	for i := range m {
		m[i] = make([]int, numLabels)
	}
	for i := range truth {
		t, p := truth[i], pred[i]
		if t < 0 || t >= numLabels || p < 0 || p >= numLabels {
			return nil, fmt.Errorf("metrics: label out of range at %d: truth=%d pred=%d", i, t, p)
		}
		m[t][p]++
	}
	return m, nil
}

// Purity returns the clustering purity: each cluster votes its
// majority true label; purity is the fraction of items matching their
// cluster's majority.
func Purity(truth, pred []int) (float64, error) {
	n := len(truth)
	if n != len(pred) {
		return 0, fmt.Errorf("metrics: truth has %d items, pred has %d", n, len(pred))
	}
	if n == 0 {
		return 1, nil
	}
	counts := make(map[int]map[int]int)
	for i := 0; i < n; i++ {
		c := counts[pred[i]]
		if c == nil {
			c = make(map[int]int)
			counts[pred[i]] = c
		}
		c[truth[i]]++
	}
	total := 0
	for _, c := range counts {
		best := 0
		for _, cnt := range c {
			if cnt > best {
				best = cnt
			}
		}
		total += best
	}
	return float64(total) / float64(n), nil
}
