package graph

import "testing"

// BenchmarkBuild measures CSR assembly at the paper's benchmark
// size.
func BenchmarkBuild(b *testing.B) {
	proto, _ := CommunityBenchmark(DefaultCommunityBenchmark(0.5, 1))
	edges := proto.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(proto.NumVertices())
		for _, e := range edges {
			bu.AddEdge(e.From, e.To)
		}
		bu.Build()
	}
}

// BenchmarkCommunityBenchmarkGen measures the synthetic generator.
func BenchmarkCommunityBenchmarkGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CommunityBenchmark(DefaultCommunityBenchmark(0.5, uint64(i)))
	}
}

// BenchmarkBarabasiAlbert measures preferential attachment.
func BenchmarkBarabasiAlbert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(2000, 3, uint64(i))
	}
}

// BenchmarkHasEdge measures adjacency binary search.
func BenchmarkHasEdge(b *testing.B) {
	g, _ := CommunityBenchmark(DefaultCommunityBenchmark(0.5, 3))
	n := g.NumVertices()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = g.HasEdge(i%n, (i*7)%n) || sink
	}
	_ = sink
}

// BenchmarkConnectedComponents measures the component labeller.
func BenchmarkConnectedComponents(b *testing.B) {
	g, _ := CommunityBenchmark(DefaultCommunityBenchmark(0.3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}
