package cluster_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"v2v"
	"v2v/internal/cluster"
)

// digest hashes a clustering's assignments and SSE bits (FNV-64a).
func digest(res *cluster.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range res.Assignments {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.SSE))
	h.Write(b[:])
	return h.Sum64()
}

// table1Embedding trains a 1000 x 10 V2V embedding of the Table I
// benchmark graph (10 communities of 100, alpha 1) at the small
// walk budget of cmd/repro, on one worker so the vectors are
// reproducible bit for bit.
func table1Embedding(t *testing.T) [][]float64 {
	t.Helper()
	g, _ := v2v.CommunityBenchmark(v2v.BenchmarkConfig{
		NumCommunities: 10, CommunitySize: 100, Alpha: 1, InterEdges: 40, Seed: 1,
	})
	o := v2v.DefaultOptions(10)
	o.WalksPerVertex, o.WalkLength, o.Epochs = 6, 40, 3
	o.Seed, o.Workers = 1+10*7919, 1
	emb, err := v2v.Embed(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return emb.Model.Rows()
}

// TestKMeansGoldenDigests pins the paper's clustering (and one
// single-restart descent) to fixed digests: a change that moves a
// seed draw, an assignment or the order SSE is summed in fails it,
// and so does any dependence of the result on Workers.
func TestKMeansGoldenDigests(t *testing.T) {
	single := cluster.DefaultConfig(10)
	single.Restarts, single.Seed = 1, 7
	paper := cluster.DefaultConfig(10)
	paper.Seed = 2
	configs := map[string]cluster.Config{"paper": paper, "single": single}
	want := map[string]uint64{
		"blobs1/paper":  0x3a556661d6fbd7b4,
		"blobs1/single": 0xd589417679fba51e,
		"blobs2/paper":  0x9d84051ee43dd9b9,
		"blobs2/single": 0x68f32dc2a3d9ee12,
		"blobs3/paper":  0x93433d15472bdd26,
		"blobs3/single": 0x957e07583e88597c,
		"table1/paper":  0xf74db3ee358b0760,
		"table1/single": 0xd087bed294ea5230,
	}
	inputs := map[string][][]float64{}
	for seed := uint64(1); seed <= 3; seed++ {
		inputs[fmt.Sprintf("blobs%d", seed)], _ = cluster.GaussianBlobs(10, 100, 10, 3, 1.5, seed)
	}
	inputs["table1"] = table1Embedding(t)
	for in, points := range inputs {
		for cn, cfg := range configs {
			name := in + "/" + cn
			for _, w := range []int{1, 2, 4} {
				cfg.Workers = w
				res, err := cluster.KMeans(points, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(res); got != want[name] {
					t.Errorf("%s workers=%d: digest %#x, want %#x", name, w, got, want[name])
				}
			}
		}
	}
}
