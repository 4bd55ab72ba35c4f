package word2vec

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/walk"
)

// modelDigest is FNV-1a over the little-endian Float32bits of every
// weight of m, in row order.
func modelDigest(m *Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Vectors {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrainGoldenDigests pins the bits of one-worker models to digests
// recorded at commit 759fa58, before the output layer learned to draw
// its negatives ahead of its updates: a change to the trainer that
// moves a random draw, reorders an update or touches a kernel's
// arithmetic fails here, on every GOARCH and under -tags purego. Dim
// 20 runs both the 8-float blocks and the tail of each kernel;
// subsampling keeps the keep/drop draws in the pinned stream.
func TestTrainGoldenDigests(t *testing.T) {
	g, _ := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 3, CommunitySize: 12, Alpha: 0.6, InterEdges: 30, Seed: 5,
	})
	wcfg := walk.Config{WalksPerVertex: 6, Length: 30, Seed: 6}
	stream, err := walk.NewStream(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := stream.Materialize()

	config := func(obj Objective, smp Sampler) Config {
		cfg := DefaultConfig(20)
		cfg.Objective, cfg.Sampler = obj, smp
		cfg.Epochs = 2
		cfg.Workers = 1
		cfg.Seed = 17
		cfg.Subsample = 1e-2
		return cfg
	}
	materialized := func(cfg Config) (*Model, error) {
		m, _, err := Train(corpus, g.NumVertices(), cfg)
		return m, err
	}
	streaming := func(cfg Config) (*Model, error) {
		m, _, err := Train(stream, g.NumVertices(), cfg)
		return m, err
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		train func(Config) (*Model, error)
		want  uint64
	}{
		{"cbow-ns", config(CBOW, NegativeSampling), materialized, 0xbee8a1255168cadf},
		{"sg-ns", config(SkipGram, NegativeSampling), materialized, 0xc0ee1dacecc8ce47},
		{"cbow-hs", config(CBOW, HierarchicalSoftmax), materialized, 0x9ea9250fd694317d},
		{"sg-hs", config(SkipGram, HierarchicalSoftmax), materialized, 0xc49ff20ee963a899},
		{"streaming-cbow-ns", config(CBOW, NegativeSampling), streaming, 0xbee8a1255168cadf},
	} {
		m, err := tc.train(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := modelDigest(m); got != tc.want {
			t.Errorf("%s: model digest %#016x, recorded %#016x", tc.name, got, tc.want)
		}
	}
}
