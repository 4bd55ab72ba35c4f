package community

import (
	"math"
	"testing"
	"testing/quick"

	"v2v/internal/graph"
	"v2v/internal/metrics"
	"v2v/internal/xrand"
)

func testBenchmark(t *testing.T, alpha float64) (*graph.Graph, []int) {
	t.Helper()
	g, truth := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 4, CommunitySize: 20, Alpha: alpha, InterEdges: 8, Seed: 11,
	})
	return g, truth
}

// --- Modularity ------------------------------------------------------

func TestModularityTwoCliques(t *testing.T) {
	g, truth := graph.TwoCliquesBridge(10)
	q, err := Modularity(g, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Two equal communities, one bridge: Q just under 0.5.
	if q < 0.4 || q >= 0.5 {
		t.Fatalf("two-clique modularity %v", q)
	}
}

func TestModularitySingletonPartitionNegative(t *testing.T) {
	g := graph.Complete(6)
	part := []int{0, 1, 2, 3, 4, 5}
	q, err := Modularity(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if q >= 0 {
		t.Fatalf("singleton modularity on K6 should be negative, got %v", q)
	}
}

func TestModularityOnePartitionIsZero(t *testing.T) {
	g := graph.ErdosRenyiGNM(30, 60, 3)
	part := make([]int, 30)
	q, err := Modularity(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q) > 1e-12 {
		t.Fatalf("single-community modularity %v, want 0", q)
	}
}

func TestModularityErrors(t *testing.T) {
	g := graph.Ring(5)
	if _, err := Modularity(g, []int{0, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	b := graph.NewBuilder(2)
	b.SetDirected(true)
	b.AddEdge(0, 1)
	if _, err := Modularity(b.Build(), []int{0, 0}); err == nil {
		t.Error("directed graph accepted")
	}
}

func TestModularityWeighted(t *testing.T) {
	// Heavy intra edges, light bridge: partitioning on the bridge
	// should give high Q.
	b := graph.NewBuilder(0)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(2, 3, 10)
	b.AddWeightedEdge(1, 2, 0.1)
	g := b.Build()
	q, err := Modularity(g, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.45 {
		t.Fatalf("weighted split Q = %v", q)
	}
}

func TestCompressLabels(t *testing.T) {
	dense, k := CompressLabels([]int{7, 7, 3, 9, 3})
	if k != 3 {
		t.Fatalf("k = %d", k)
	}
	want := []int{0, 0, 1, 2, 1}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense = %v", dense)
		}
	}
}

// --- CNM -------------------------------------------------------------

func TestCNMTwoCliques(t *testing.T) {
	g, truth := graph.TwoCliquesBridge(8)
	res, err := CNM(g, CNMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, r, err := metrics.PairwisePrecisionRecall(truth, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 || r != 1 {
		t.Fatalf("CNM failed two cliques: precision %v recall %v (partition %v)", p, r, res.Partition)
	}
	if res.Q < 0.4 {
		t.Fatalf("CNM Q = %v", res.Q)
	}
}

func TestCNMBenchmarkStrongCommunities(t *testing.T) {
	g, truth := testBenchmark(t, 0.8)
	res, err := CNM(g, CNMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, r, _ := metrics.PairwisePrecisionRecall(truth, res.Partition)
	if p < 0.95 || r < 0.95 {
		t.Fatalf("CNM on alpha=0.8: precision %.3f recall %.3f", p, r)
	}
}

func TestCNMTargetK(t *testing.T) {
	g, _ := testBenchmark(t, 0.7)
	res, err := CNM(g, CNMConfig{TargetK: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, k := CompressLabels(res.Partition)
	if k != 4 {
		t.Fatalf("TargetK=4 produced %d communities", k)
	}
	if res.Cut != "target-k" {
		t.Fatalf("Cut = %q", res.Cut)
	}
}

func TestCNMTrajectoryRecorded(t *testing.T) {
	g, _ := graph.TwoCliquesBridge(5)
	res, err := CNM(g, CNMConfig{RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) < 2 {
		t.Fatalf("trajectory %v", res.Trajectory)
	}
}

func TestCNMDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	res, err := CNM(g, CNMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The two paths can never merge (no connecting edge).
	if res.Partition[0] == res.Partition[3] {
		t.Fatal("CNM merged disconnected components")
	}
}

func TestCNMEmptyAndEdgeless(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if _, err := CNM(empty, CNMConfig{}); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	edgeless := graph.NewBuilder(5).Build()
	res, err := CNM(edgeless, CNMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, k := CompressLabels(res.Partition)
	if k != 5 {
		t.Fatalf("edgeless graph collapsed to %d communities", k)
	}
}

func TestCNMRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(2)
	b.SetDirected(true)
	b.AddEdge(0, 1)
	if _, err := CNM(b.Build(), CNMConfig{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

// Property: CNM's reported Q always matches Modularity() of its
// partition, and is >= the singleton partition's Q.
func TestCNMQConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 6 + rng.Intn(25)
		m := n + rng.Intn(2*n)
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		g := graph.ErdosRenyiGNM(n, m, seed)
		res, err := CNM(g, CNMConfig{})
		if err != nil {
			return false
		}
		q, err := Modularity(g, res.Partition)
		if err != nil {
			return false
		}
		return math.Abs(q-res.Q) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- Girvan-Newman ---------------------------------------------------

func TestGirvanNewmanTwoCliques(t *testing.T) {
	g, truth := graph.TwoCliquesBridge(6)
	res, err := GirvanNewman(g, GNConfig{TargetK: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, r, _ := metrics.PairwisePrecisionRecall(truth, res.Partition)
	if p != 1 || r != 1 {
		t.Fatalf("GN failed two cliques: %v %v", p, r)
	}
	// The bridge must be the first removed edge.
	if res.Removals != 1 {
		t.Fatalf("removals = %d, want 1 (bridge has max betweenness)", res.Removals)
	}
}

func TestGirvanNewmanBenchmark(t *testing.T) {
	g, truth := testBenchmark(t, 0.8)
	res, err := GirvanNewman(g, GNConfig{TargetK: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, r, _ := metrics.PairwisePrecisionRecall(truth, res.Partition)
	if p < 0.95 || r < 0.95 {
		t.Fatalf("GN on alpha=0.8: precision %.3f recall %.3f", p, r)
	}
}

func TestGirvanNewmanBestQMode(t *testing.T) {
	g, truth := graph.TwoCliquesBridge(6)
	res, err := GirvanNewman(g, GNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, r, _ := metrics.PairwisePrecisionRecall(truth, res.Partition)
	if p != 1 || r != 1 {
		t.Fatalf("GN best-Q failed: %v %v (Q=%v)", p, r, res.Q)
	}
}

func TestGirvanNewmanMaxRemovals(t *testing.T) {
	g, _ := testBenchmark(t, 0.5)
	res, err := GirvanNewman(g, GNConfig{MaxRemovals: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removals > 3 {
		t.Fatalf("removals = %d, cap was 3", res.Removals)
	}
}

func TestGirvanNewmanTrajectory(t *testing.T) {
	g, _ := graph.TwoCliquesBridge(4)
	res, err := GirvanNewman(g, GNConfig{RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no trajectory")
	}
	if res.Trajectory[0].Components != 1 {
		t.Fatalf("initial components = %d", res.Trajectory[0].Components)
	}
}

func TestGirvanNewmanRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(2)
	b.SetDirected(true)
	b.AddEdge(0, 1)
	if _, err := GirvanNewman(b.Build(), GNConfig{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestEdgeBetweennessPath(t *testing.T) {
	// Path 0-1-2-3: middle edge carries the most shortest paths.
	g := graph.Path(4)
	eb := edgeBetweenness(g.AdjacencyLists(), 4)
	mid := eb[edgeKey{1, 2}]
	end := eb[edgeKey{0, 1}]
	if mid <= end {
		t.Fatalf("middle edge betweenness %v <= end edge %v", mid, end)
	}
	// Exact values: edge (0,1) carries paths {0-1,0-2,0-3} = 3; edge
	// (1,2) carries {0-2,0-3,1-2,1-3} = 4.
	if math.Abs(end-3) > 1e-9 || math.Abs(mid-4) > 1e-9 {
		t.Fatalf("betweenness: end %v (want 3), mid %v (want 4)", end, mid)
	}
}

func TestEdgeBetweennessStar(t *testing.T) {
	// Star K_{1,4}: every edge carries its leaf's paths to the other
	// 3 leaves plus the hub: 1 + 3 = 4... each leaf-hub edge carries
	// shortest paths leaf<->hub (1) and leaf<->other-leaves (3): 4.
	g := graph.Star(5)
	eb := edgeBetweenness(g.AdjacencyLists(), 5)
	for k, v := range eb {
		if math.Abs(v-4) > 1e-9 {
			t.Fatalf("star edge %v betweenness %v, want 4", k, v)
		}
	}
}

// --- Cross-algorithm agreement ----------------------------------------

func TestAllAlgorithmsAgreeOnStrongStructure(t *testing.T) {
	g, truth := testBenchmark(t, 1.0)
	cnm, err := CNM(g, CNMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gn, err := GirvanNewman(g, GNConfig{TargetK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string][]int{"cnm": cnm.Partition, "gn": gn.Partition} {
		p, r, _ := metrics.PairwisePrecisionRecall(truth, part)
		if p < 0.99 || r < 0.99 {
			t.Errorf("%s on cliques: precision %.3f recall %.3f", name, p, r)
		}
	}
}
