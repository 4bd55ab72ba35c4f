package vecstore

import (
	"testing"

	"v2v/internal/xrand"
)

// beamCounts is what one search or one build made of its candidates:
// evals the beam and the descent considered, rejected those the float32
// pass dropped.
type beamCounts struct{ evals, rejected int }

// TestHNSWBeamCounts pins, per metric, the candidates the beam
// considers and rejects on a seeded clustered store: over the whole
// build, and for each of eight fixed queries (four stored rows searched
// without themselves, four points off the store). A change to how the
// float32 pass is batched, or to the threshold it runs at, moves these
// counts even where it leaves graphs and results alone.
func TestHNSWBeamCounts(t *testing.T) {
	want := map[Metric]struct {
		build   beamCounts
		queries [8]beamCounts
	}{
		Cosine:    {beamCounts{567933, 167922}, [8]beamCounts{{297, 88}, {280, 85}, {342, 141}, {341, 131}, {316, 112}, {307, 96}, {377, 121}, {449, 139}}},
		Dot:       {beamCounts{599832, 203985}, [8]beamCounts{{343, 151}, {347, 132}, {363, 157}, {393, 195}, {375, 153}, {324, 98}, {426, 164}, {404, 201}}},
		Euclidean: {beamCounts{556401, 174791}, [8]beamCounts{{318, 115}, {288, 110}, {259, 89}, {260, 90}, {425, 170}, {414, 163}, {344, 133}, {348, 126}}},
	}
	const n, dim = 1500, 50
	s := clusteredStore(n, dim, 20, 211)
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		// NewHNSW leaves one scratch in the index's pool, every build
		// worker's counters folded into it. A pool may drop what it is
		// given (the race detector's build does, at random), so build
		// again until it holds the scratch.
		var h *HNSW
		var sc *hnswScratch
		for sc == nil {
			var err error
			if h, err = NewHNSW(s, metric, HNSWConfig{Seed: 5}); err != nil {
				t.Fatal(err)
			}
			sc, _ = h.scratch.Get().(*hnswScratch)
		}
		build := beamCounts{sc.evals, sc.rejected}
		var got [8]beamCounts
		rng := xrand.New(223)
		for i := range got {
			sc.evals, sc.rejected = 0, 0
			if i < 4 {
				row := rng.Intn(n)
				h.search(s.Row(row), 10, row, nil, sc)
			} else {
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(rng.NormFloat64() * 5)
				}
				h.search(q, 10, -1, nil, sc)
			}
			got[i] = beamCounts{sc.evals, sc.rejected}
		}
		w := want[metric]
		if build != w.build {
			t.Errorf("%v: the build considered %d candidates and rejected %d, want %d and %d", metric, build.evals, build.rejected, w.build.evals, w.build.rejected)
		}
		for i := range got {
			if got[i] != w.queries[i] {
				t.Errorf("%v query %d: considered %d candidates and rejected %d, want %d and %d", metric, i, got[i].evals, got[i].rejected, w.queries[i].evals, w.queries[i].rejected)
			}
		}
	}
}
