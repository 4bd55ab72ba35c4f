package main

import (
	"math"
	"sort"
)

// cosineOracle answers top-k by brute force with float64 arithmetic
// over the fixture's own rows. It shares no code with the program, so
// a kernel or index change cannot move its answers.
type cosineOracle struct {
	data  []float32
	dim   int
	norms []float64
}

func newCosineOracle(data []float32, dim int) *cosineOracle {
	o := &cosineOracle{data: data, dim: dim, norms: make([]float64, len(data)/dim)}
	for i := range o.norms {
		var s float64
		for _, x := range data[i*dim : (i+1)*dim] {
			s += float64(x) * float64(x)
		}
		o.norms[i] = math.Sqrt(s)
	}
	return o
}

// topK returns the k rows most similar to row q, q itself left out,
// best first, ties toward the smaller row.
func (o *cosineOracle) topK(q, k int) []int {
	type hit struct {
		id    int
		score float64
	}
	best := make([]hit, 0, k+1)
	qv := o.data[q*o.dim : (q+1)*o.dim]
	for i := range o.norms {
		if i == q {
			continue
		}
		var dot float64
		row := o.data[i*o.dim : (i+1)*o.dim]
		for j, x := range qv {
			dot += float64(x) * float64(row[j])
		}
		h := hit{id: i}
		if d := o.norms[q] * o.norms[i]; d > 0 {
			h.score = dot / d
		}
		// Rows arrive in ascending order, so a strict comparison keeps
		// the smaller row ahead on a tie.
		if len(best) == k && h.score <= best[k-1].score {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].score < h.score })
		best = append(best, hit{})
		copy(best[at+1:], best[at:])
		best[at] = h
		if len(best) > k {
			best = best[:k]
		}
	}
	ids := make([]int, len(best))
	for i, h := range best {
		ids[i] = h.id
	}
	return ids
}

// overlap is the share of want that got contains.
func overlap(want, got []int) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, g := range got {
		in[g] = true
	}
	hit := 0
	for _, w := range want {
		if in[w] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// pairwiseF1 scores a partition against the truth over vertex pairs:
// a pair is positive when both vertices share a cluster. Cluster
// labels need not match between the two.
func pairwiseF1(truth, pred []int) float64 {
	type cell struct{ t, p int }
	joint := map[cell]int{}
	rows, cols := map[int]int{}, map[int]int{}
	for i := range truth {
		joint[cell{truth[i], pred[i]}]++
		rows[truth[i]]++
		cols[pred[i]]++
	}
	pairs := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	var both, inTruth, inPred float64
	for _, n := range joint {
		both += pairs(n)
	}
	for _, n := range rows {
		inTruth += pairs(n)
	}
	for _, n := range cols {
		inPred += pairs(n)
	}
	if both == 0 {
		return 0
	}
	precision, recall := both/inPred, both/inTruth
	return 2 * precision * recall / (precision + recall)
}
