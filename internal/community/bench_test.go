package community

import (
	"testing"

	"v2v/internal/graph"
)

func benchCommunityGraph(b *testing.B, size int, alpha float64) (*graph.Graph, []int) {
	b.Helper()
	return graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 10, CommunitySize: size, Alpha: alpha, InterEdges: 2 * size, Seed: 1,
	})
}

// BenchmarkCNM measures greedy modularity agglomeration at two graph
// densities (the Table I scaling axis).
func BenchmarkCNM(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.5, 1.0} {
		g, _ := benchCommunityGraph(b, 50, alpha)
		b.Run("alpha="+fstr(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CNM(g, CNMConfig{TargetK: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGirvanNewman measures the dominant baseline cost.
func BenchmarkGirvanNewman(b *testing.B) {
	g, _ := benchCommunityGraph(b, 20, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GirvanNewman(g, GNConfig{TargetK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeBetweenness isolates one Brandes accumulation pass,
// the inner loop of Girvan-Newman.
func BenchmarkEdgeBetweenness(b *testing.B) {
	g, _ := benchCommunityGraph(b, 50, 0.5)
	adj := g.AdjacencyLists()
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edgeBetweenness(adj, n)
	}
}

// BenchmarkModularity measures the quality function itself.
func BenchmarkModularity(b *testing.B) {
	g, truth := benchCommunityGraph(b, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Modularity(g, truth); err != nil {
			b.Fatal(err)
		}
	}
}

func fstr(f float64) string {
	switch f {
	case 0.1:
		return "0.1"
	case 0.5:
		return "0.5"
	default:
		return "1.0"
	}
}
