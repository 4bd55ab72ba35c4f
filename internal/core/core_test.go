package core

import (
	"math"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/walk"
)

func testConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.Walk.WalksPerVertex = 8
	cfg.Walk.Length = 40
	cfg.Walk.Seed = 3
	cfg.Model.Epochs = 4
	return cfg
}

func benchmarkGraph(t testing.TB, alpha float64) (*graph.Graph, []int) {
	t.Helper()
	g, truth := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 4, CommunitySize: 25, Alpha: alpha, InterEdges: 10, Seed: 5,
	})
	return g, truth
}

func TestEmbedRejectsEmptyGraph(t *testing.T) {
	if _, err := Embed(graph.NewBuilder(0).Build(), testConfig(8)); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestEmbedRejectsBadWalkConfig(t *testing.T) {
	g := graph.Ring(5)
	cfg := testConfig(8)
	cfg.Walk.WalksPerVertex = 0
	if _, err := Embed(g, cfg); err == nil {
		t.Fatal("bad walk config accepted")
	}
}

func TestEmbedProducesStats(t *testing.T) {
	g, _ := benchmarkGraph(t, 0.6)
	emb, err := Embed(g, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if emb.Model.Vocab != g.NumVertices() || emb.Model.Dim != 16 {
		t.Fatalf("model shape %dx%d", emb.Model.Vocab, emb.Model.Dim)
	}
	if emb.Tokens != g.NumVertices()*8*40 {
		t.Fatalf("tokens = %d", emb.Tokens)
	}
	if emb.TrainTime <= 0 || emb.WalkTime < 0 {
		t.Fatal("timings not recorded")
	}
	if emb.Stats.Epochs != 4 {
		t.Fatalf("epochs = %d", emb.Stats.Epochs)
	}
}

func TestDetectCommunitiesRecoversStructure(t *testing.T) {
	g, truth := benchmarkGraph(t, 0.7)
	emb, err := Embed(g, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emb.DetectCommunities(CommunityConfig{K: 4, Restarts: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p, r, err := EvaluateCommunities(truth, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.85 || r < 0.85 {
		t.Fatalf("precision %.3f recall %.3f", p, r)
	}
	if res.ClusterTime <= 0 {
		t.Fatal("cluster time missing")
	}
}

func TestDetectCommunitiesValidation(t *testing.T) {
	g, _ := benchmarkGraph(t, 0.5)
	emb, err := Embed(g, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emb.DetectCommunities(CommunityConfig{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestProjectPCA(t *testing.T) {
	g, truth := benchmarkGraph(t, 0.8)
	emb, err := Embed(g, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	proj, pca, err := emb.ProjectPCA(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj) != g.NumVertices() || len(proj[0]) != 2 {
		t.Fatalf("projection shape %dx%d", len(proj), len(proj[0]))
	}
	if pca.Variances[0] < pca.Variances[1] {
		t.Fatal("PCA variances not sorted")
	}
	// The paper's Figure 4 property: communities form clusters even
	// in the 2-D projection. Check intra vs inter mean distance.
	var intra, inter float64
	var ni, nx int
	for i := range proj {
		for j := i + 1; j < len(proj); j += 5 {
			d := math.Hypot(proj[i][0]-proj[j][0], proj[i][1]-proj[j][1])
			if truth[i] == truth[j] {
				intra += d
				ni++
			} else {
				inter += d
				nx++
			}
		}
	}
	if inter/float64(nx) < 1.2*(intra/float64(ni)) {
		t.Fatalf("2-D projection does not separate communities: intra %.4f inter %.4f",
			intra/float64(ni), inter/float64(nx))
	}
}

func TestCrossValidateLabels(t *testing.T) {
	g, truth := benchmarkGraph(t, 0.8)
	emb, err := Embed(g, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := emb.CrossValidateLabels(truth, 3, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("label prediction accuracy %.3f", acc)
	}
	if _, err := emb.CrossValidateLabels(truth[:5], 3, 10, 13); err == nil {
		t.Fatal("short label slice accepted")
	}
}

func TestPredictLabelsFillsMissing(t *testing.T) {
	g, truth := benchmarkGraph(t, 0.9)
	emb, err := Embed(g, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	masked := append([]int(nil), truth...)
	hidden := []int{0, 7, 30, 55, 80, 99}
	for _, v := range hidden {
		masked[v] = -1
	}
	completed, err := emb.PredictLabels(masked, 3)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, v := range hidden {
		if completed[v] == truth[v] {
			correct++
		}
	}
	if correct < len(hidden)-1 {
		t.Fatalf("recovered %d of %d hidden labels", correct, len(hidden))
	}
	// Untouched labels unchanged.
	for v, l := range masked {
		if l >= 0 && completed[v] != l {
			t.Fatal("known label modified")
		}
	}
}

func TestPredictLabelsValidation(t *testing.T) {
	g, _ := benchmarkGraph(t, 0.5)
	emb, err := Embed(g, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = -1
	}
	if _, err := emb.PredictLabels(all, 3); err == nil {
		t.Fatal("all-unlabelled accepted")
	}
	if _, err := emb.PredictLabels([]int{1}, 3); err == nil {
		t.Fatal("wrong length accepted")
	}
	// Nothing to predict: returns labels unchanged.
	full := make([]int, g.NumVertices())
	out, err := emb.PredictLabels(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range out {
		if l != 0 {
			t.Fatal("labels changed with nothing to predict")
		}
	}
}

func TestEmbedWithConvergence(t *testing.T) {
	g, _ := benchmarkGraph(t, 0.9)
	cfg := testConfig(16)
	cfg.Model.Epochs = 40
	cfg.Model.ConvergenceTol = 0.02
	emb, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !emb.Stats.Converged {
		t.Fatalf("did not converge: %v", emb.Stats.EpochLosses)
	}
}

func TestEmbedDirectedGraph(t *testing.T) {
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	// Two directed cycles joined by one arc.
	for i := 0; i < 10; i++ {
		b.AddEdge(i, (i+1)%10)
		b.AddEdge(10+i, 10+(i+1)%10)
	}
	b.AddEdge(0, 10)
	g := b.Build()
	emb, err := Embed(g, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if emb.Model.Vocab != 20 {
		t.Fatal("wrong vocab")
	}
}

func TestEmbedTemporalStrategy(t *testing.T) {
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	for i := 0; i < 20; i++ {
		b.AddTemporalEdge(i, (i+1)%20, 1, int64(i*10))
	}
	g := b.Build()
	cfg := testConfig(8)
	cfg.Walk.Strategy = walk.Temporal
	emb, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Tokens == 0 {
		t.Fatal("empty temporal corpus")
	}
}
