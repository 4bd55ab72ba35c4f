package v2v

import (
	"bytes"
	"strings"
	"testing"
)

// miniBenchmark is a scaled-down paper benchmark for integration
// tests: 5 communities of 30 vertices.
func miniBenchmark(alpha float64, seed uint64) (*Graph, []int) {
	return CommunityBenchmark(BenchmarkConfig{
		NumCommunities: 5, CommunitySize: 30, Alpha: alpha, InterEdges: 30, Seed: seed,
	})
}

func miniOptions(dim int) Options {
	o := DefaultOptions(dim)
	o.WalksPerVertex = 8
	o.WalkLength = 40
	o.Epochs = 4
	o.Seed = 17
	return o
}

func TestPublicPipelineCommunities(t *testing.T) {
	g, truth := miniBenchmark(0.6, 1)
	emb, err := Embed(g, miniOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := emb.DetectCommunities(CommunityConfig{K: 5, Restarts: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, r, err := EvaluateCommunities(truth, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.85 || r < 0.85 {
		t.Fatalf("V2V communities: precision %.3f recall %.3f", p, r)
	}
}

// TestTableOneShape is the miniature Table I: on the same graph, V2V
// and both graph baselines must each reach 0.8 pairwise precision and
// recall, and CNM must not be much less accurate than V2V (the paper's
// headline qualitative finding is that the graph algorithms are at
// least as accurate). It checks no timing. The paper also finds V2V's
// clustering phase faster than the graph algorithms; this repository
// measures CNM 3-10x faster than V2V's k-means at every alpha, a
// deviation ROADMAP item 18 is to pin.
func TestTableOneShape(t *testing.T) {
	g, truth := miniBenchmark(0.5, 3)
	emb, err := Embed(g, miniOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	v2vRes, err := emb.DetectCommunities(CommunityConfig{K: 5, Restarts: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	v2vP, v2vR, _ := EvaluateCommunities(truth, v2vRes.Partition)

	cnm, err := CNM(g, CNMConfig{TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	cnmP, cnmR, _ := EvaluateCommunities(truth, cnm.Partition)

	gn, err := GirvanNewman(g, GNConfig{TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	gnP, gnR, _ := EvaluateCommunities(truth, gn.Partition)

	t.Logf("V2V: %.3f/%.3f  CNM: %.3f/%.3f  GN: %.3f/%.3f",
		v2vP, v2vR, cnmP, cnmR, gnP, gnR)
	for name, val := range map[string]float64{
		"v2v-p": v2vP, "v2v-r": v2vR,
		"cnm-p": cnmP, "cnm-r": cnmR,
		"gn-p": gnP, "gn-r": gnR,
	} {
		if val < 0.8 {
			t.Errorf("%s = %.3f below 0.8", name, val)
		}
	}
	// The paper's trade-off: graph algorithms at least match V2V's
	// precision (1.00 vs 0.952 average in Table I). Allow equality.
	if cnmP+cnmR < v2vP+v2vR-0.1 {
		t.Errorf("CNM (%v) unexpectedly much worse than V2V (%v)", cnmP+cnmR, v2vP+v2vR)
	}
}

func TestPCAVisualizationPath(t *testing.T) {
	g, truth := miniBenchmark(0.8, 5)
	emb, err := Embed(g, miniOptions(24))
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := emb.ProjectPCA(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, len(proj))
	ys := make([]float64, len(proj))
	for i, p := range proj {
		xs[i], ys[i] = p[0], p[1]
	}
	plot := &ScatterPlot{Title: "Figure 4 (mini)", X: xs, Y: ys, Category: truth}
	var buf bytes.Buffer
	if err := plot.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG output")
	}
}

func TestFeaturePredictionPath(t *testing.T) {
	ds, err := GenerateOpenFlights(OpenFlightsConfig{
		NumAirports: 500, NumRegions: 5, CountriesPerRegion: 4,
		HubFraction: 20, IntlDegree: 5, TrunkDegree: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := miniOptions(24)
	opts.WalksPerVertex = 6
	opts.WalkLength = 30
	emb, err := Embed(ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := emb.CrossValidateLabels(ds.Continent, 3, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Continent prediction on a stratified route graph should beat
	// the ~1/5 chance level by a wide margin.
	if acc < 0.6 {
		t.Fatalf("continent prediction accuracy %.3f", acc)
	}
}

func TestModelSaveLoadThroughFacade(t *testing.T) {
	g, _ := miniBenchmark(0.5, 9)
	emb, err := Embed(g, miniOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emb.Model.Save(&buf, g.Name); err != nil {
		t.Fatal(err)
	}
	m, tokens, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vocab != emb.Model.Vocab || m.Dim != emb.Model.Dim {
		t.Fatal("round trip changed shape")
	}
	if tokens[0] != g.Name(0) {
		t.Fatal("token naming lost")
	}
}

func TestEdgeListThroughFacade(t *testing.T) {
	g, _ := miniBenchmark(0.4, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip lost edges")
	}
}

func TestMetricsExposed(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{1, 1, 0, 0}
	if f1, err := PairwiseF1(truth, pred); err != nil || f1 != 1 {
		t.Fatalf("F1 = %v, %v", f1, err)
	}
}

func TestKMeansExposed(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}}
	res, err := KMeans(pts, KMeansConfig{K: 2, Restarts: 5, PlusPlus: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[0] == res.Assignments[2] {
		t.Fatalf("clustering wrong: %v", res.Assignments)
	}
}

func TestKNNExposed(t *testing.T) {
	clf := NewKNNClassifier(1, EuclideanDistance, [][]float64{{0}, {10}}, []int{0, 1})
	if clf.Predict([]float64{1}) != 0 {
		t.Fatal("knn wrong")
	}
	acc, err := CrossValidateKNN([][]float64{{0}, {0.1}, {10}, {10.1}}, []int{0, 0, 1, 1}, 1, 2, EuclideanDistance, 15)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Fatalf("cv accuracy %v", acc)
	}
}

func TestBaselinesExposed(t *testing.T) {
	g, truth := CommunityBenchmark(BenchmarkConfig{
		NumCommunities: 3, CommunitySize: 12, Alpha: 0.9, InterEdges: 4, Seed: 16,
	})
	if q, err := Modularity(g, truth); err != nil || q < 0.3 {
		t.Fatalf("Modularity facade: %v, %v", q, err)
	}
}

func TestForceLayoutExposed(t *testing.T) {
	g, truth := CommunityBenchmark(BenchmarkConfig{
		NumCommunities: 2, CommunitySize: 15, Alpha: 0.8, InterEdges: 3, Seed: 19,
	})
	x, y := ForceLayout(g, LayoutConfig{Iterations: 80, Seed: 20})
	if len(x) != 30 || len(y) != 30 {
		t.Fatal("layout shape wrong")
	}
	plot := &GraphPlot{X: x, Y: y, Category: truth}
	var buf bytes.Buffer
	for _, e := range g.Edges() {
		plot.Edges = append(plot.Edges, [2]int{e.From, e.To})
	}
	if err := plot.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
}
