package main

import (
	"math"
	"reflect"
	"testing"
)

func TestPairwiseF1(t *testing.T) {
	// truth {0,1}{2,3}; pred {0,1,2}{3}: one pair right of three
	// predicted and two true: P = 1/3, R = 1/2, F1 = 0.4.
	if got := pairwiseF1([]int{0, 0, 1, 1}, []int{0, 0, 0, 1}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("F1 = %g, want 0.4", got)
	}
	// The same partition under other labels is perfect.
	if got := pairwiseF1([]int{0, 0, 1, 1, 2}, []int{7, 7, 3, 3, 9}); got != 1 {
		t.Errorf("relabelled partition: F1 = %g, want 1", got)
	}
	// Everything in singletons shares no pair.
	if got := pairwiseF1([]int{0, 0, 1, 1}, []int{0, 1, 2, 3}); got != 0 {
		t.Errorf("singletons: F1 = %g, want 0", got)
	}
}

func TestOverlap(t *testing.T) {
	if got := overlap([]int{1, 2, 3, 4}, []int{2, 4, 9}); got != 0.5 {
		t.Errorf("overlap = %g, want 0.5", got)
	}
	if got := overlap([]int{1, 2}, nil); got != 0 {
		t.Errorf("overlap with nothing = %g, want 0", got)
	}
}

func TestCosineOracle(t *testing.T) {
	// Five points in the plane, by angle from row 0 (1, 0):
	// row 1 at 10°, row 2 at 80°, row 3 at 180°, row 4 at 10° but
	// longer (cosine ignores length, so it ties with row 1).
	deg := func(d, r float64) (float32, float32) {
		return float32(r * math.Cos(d*math.Pi/180)), float32(r * math.Sin(d*math.Pi/180))
	}
	var data []float32
	for _, p := range [][2]float64{{0, 1}, {10, 1}, {80, 1}, {180, 1}, {10, 1}} {
		x, y := deg(p[0], p[1])
		data = append(data, x, y)
	}
	o := newCosineOracle(data, 2)
	if got, want := o.topK(0, 3), []int{1, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("topK(0, 3) = %v, want %v (ties toward the smaller row)", got, want)
	}
	if got, want := o.topK(3, 2), []int{2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("topK(3, 2) = %v, want %v", got, want)
	}
	if got := o.topK(0, 10); len(got) != 4 {
		t.Errorf("topK with k > n-1 returned %d rows, want 4", len(got))
	}
}
