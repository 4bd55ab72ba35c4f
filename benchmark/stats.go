package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <=
// 100) of sorted: the smallest sample with at least p% of the samples
// at or below it. No interpolation, no buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rankOf(p, len(sorted)), 1)-1]
}

// rankOf is ceil(p% of n). The small slack keeps a product such as
// 99.9% of 10000, which floating point puts a hair above 9990, from
// being rounded up to 9991.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailCandidates are the tail percentiles a report may quote, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that still
// has at least ten of n samples beyond it; a tail resting on fewer is
// one slow request, not a distribution. It returns 50 when n is too
// small for any of them.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
