package main

import (
	"reflect"
	"testing"
)

func TestAtNominalSpeed(t *testing.T) {
	// A host at half the nominal speed halves the rate; restated, the
	// two slices read the same.
	got := atNominalSpeed([]float64{1000, 500}, []float64{refNominal, refNominal / 2})
	if want := []float64{1000, 1000}; !reflect.DeepEqual(got, want) {
		t.Errorf("atNominalSpeed = %v, want %v", got, want)
	}
}

func TestSecondsAtNominalSpeed(t *testing.T) {
	// 2 s on a host at half speed, 0.5 s of it a warm-up: the other
	// 1.5 s would have taken 0.75 s.
	if got := secondsAtNominalSpeed(2, 0.5, refNominal/2); got != 1.25 {
		t.Errorf("secondsAtNominalSpeed = %g, want 1.25", got)
	}
}

func TestHostRefCountsRoundTrips(t *testing.T) {
	h, err := newHostRef(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the connections outlive a sample
		rate, err := h.sample(refSample)
		if err != nil || rate <= 0 {
			t.Fatalf("sample %d: rate %g, err %v", i, rate, err)
		}
	}
	h.close()
	if _, err := h.sample(refSample); err == nil {
		t.Error("a closed reference still sampled")
	}
}
