package v2v

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestEmbedGoldenDigests pins the bits of one-worker Embed vectors for
// every walk strategy family: FNV-1a over the little-endian Float32bits
// of the whole matrix. A change to how walks reach the trainer — their
// order, their tokens, the counts the negative sampler and the
// learning-rate budget read — fails here even when the trainer's own
// digests (internal/word2vec TestTrainGoldenDigests) still hold.
func TestEmbedGoldenDigests(t *testing.T) {
	community, _ := CommunityBenchmark(BenchmarkConfig{
		NumCommunities: 3, CommunitySize: 12, Alpha: 0.6, InterEdges: 30, Seed: 5,
	})
	weighted := NewGraphBuilder(30)
	for i := 0; i < 30; i++ {
		weighted.AddWeightedEdge(i, (i+1)%30, float64(1+i%4))
		weighted.AddWeightedEdge(i, (i+7)%30, 0.5)
	}
	temporal := NewGraphBuilder(30)
	temporal.SetDirected(true)
	for i := 0; i < 30; i++ {
		temporal.AddTemporalEdge(i, (i+1)%30, 1, int64(i*7%50))
		temporal.AddTemporalEdge(i, (i+11)%30, 1, int64(i*13%60))
	}

	for _, tc := range []struct {
		name string
		g    *Graph
		set  func(*Options)
		want uint64
	}{
		{"uniform", community, func(o *Options) {}, 0xdd436f20a9d8adf9},
		{"edge-weighted", weighted.Build(), func(o *Options) { o.Strategy = EdgeWeightedWalk }, 0xa92620ba8d7f0038},
		{"node2vec", ErdosRenyiGNM(40, 150, 21), func(o *Options) {
			o.Strategy, o.ReturnParam, o.InOutParam = Node2VecWalk, 0.5, 2
		}, 0x18c0269e38feea71},
		{"temporal", temporal.Build(), func(o *Options) { o.Strategy = TemporalWalk }, 0x68f0933038d6d280},
	} {
		opts := DefaultOptions(20)
		opts.WalksPerVertex, opts.WalkLength, opts.Epochs = 4, 20, 2
		opts.Seed, opts.Workers = 9, 1
		tc.set(&opts)
		emb, err := Embed(tc.g, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		var b [4]byte
		for _, v := range emb.Model.Vectors {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: vector digest %#016x, recorded %#016x", tc.name, got, tc.want)
		}
	}
}
