package walk

import (
	"testing"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _ := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 10, CommunitySize: 100, Alpha: 0.5, InterEdges: 200, Seed: 1,
	})
	return g
}

// BenchmarkGenerateUniform measures uniform-walk corpus throughput on
// the paper's 1000-vertex benchmark (reported per generated token).
func BenchmarkGenerateUniform(b *testing.B) {
	g := benchGraph(b)
	s, err := NewStream(g, Config{WalksPerVertex: 5, Length: 80, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tokens int
	for i := 0; i < b.N; i++ {
		c := s.Materialize()
		tokens = c.NumTokens()
	}
	b.ReportMetric(float64(tokens), "tokens/corpus")
}

// BenchmarkGenerateUniformSerial is the single-worker baseline for
// the parallel speedup.
func BenchmarkGenerateUniformSerial(b *testing.B) {
	g := benchGraph(b)
	s, err := NewStream(g, Config{WalksPerVertex: 5, Length: 80, Seed: 2, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Materialize()
	}
}

// BenchmarkGenerateEdgeWeighted measures alias-table walks.
func BenchmarkGenerateEdgeWeighted(b *testing.B) {
	gb := graph.NewBuilder(0)
	rng := xrand.New(3)
	base := benchGraph(b)
	for _, e := range base.Edges() {
		gb.AddWeightedEdge(e.From, e.To, rng.Float64()+0.1)
	}
	g := gb.Build()
	s, err := NewStream(g, Config{WalksPerVertex: 5, Length: 80, Strategy: EdgeWeighted, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Materialize()
	}
}

// BenchmarkGenerateTemporal measures time-respecting walks.
func BenchmarkGenerateTemporal(b *testing.B) {
	gb := graph.NewBuilder(0)
	gb.SetDirected(true)
	rng := xrand.New(6)
	base := benchGraph(b)
	for _, e := range base.Edges() {
		gb.AddTemporalEdge(e.From, e.To, 1, int64(rng.Intn(100000)))
		gb.AddTemporalEdge(e.To, e.From, 1, int64(rng.Intn(100000)))
	}
	g := gb.Build()
	s, err := NewStream(g, Config{WalksPerVertex: 5, Length: 80, Strategy: Temporal, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Materialize()
	}
}

// BenchmarkAliasTableBuild measures Vose construction.
func BenchmarkAliasTableBuild(b *testing.B) {
	rng := xrand.New(8)
	weights := make([]float64, 1000)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewAliasTable(weights)
	}
}

// BenchmarkAliasTableSample measures O(1) sampling.
func BenchmarkAliasTableSample(b *testing.B) {
	rng := xrand.New(9)
	weights := make([]float64, 1000)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	at := NewAliasTable(weights)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += at.Sample(rng)
	}
	_ = sink
}
