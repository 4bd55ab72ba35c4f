package viz

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

func TestScatterPlotSVG(t *testing.T) {
	p := &ScatterPlot{
		Title:    "test <plot>",
		X:        []float64{0, 1, 2},
		Y:        []float64{2, 1, 0},
		Category: []int{0, 1, 0},
		Labels:   []string{"alpha", "beta"},
	}
	var buf bytes.Buffer
	if err := p.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(strings.TrimSpace(s), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(s, "<circle") < 3 {
		t.Fatal("missing point circles")
	}
	if strings.Contains(s, "<plot>") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(s, "test &lt;plot&gt;") {
		t.Fatal("escaped title missing")
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Fatal("legend missing")
	}
}

func TestScatterPlotValidation(t *testing.T) {
	p := &ScatterPlot{X: []float64{1}, Y: []float64{1, 2}}
	if err := p.WriteSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	p2 := &ScatterPlot{X: []float64{1}, Y: []float64{1}, Category: []int{0, 1}}
	if err := p2.WriteSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("category mismatch accepted")
	}
}

func TestScatterPlotDegenerate(t *testing.T) {
	// Single point and identical coordinates must not divide by zero.
	p := &ScatterPlot{X: []float64{5, 5}, Y: []float64{5, 5}}
	var buf bytes.Buffer
	if err := p.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("NaN in SVG output")
	}
}

func TestLineChartSVG(t *testing.T) {
	c := &LineChart{
		Title:  "precision vs alpha",
		XLabel: "alpha",
		YLabel: "precision",
		Series: []Series{
			{Name: "dim 20", X: []float64{0.1, 0.5, 1}, Y: []float64{0.8, 0.9, 0.95}},
			{Name: "dim 50", X: []float64{0.1, 0.5, 1}, Y: []float64{0.85, 0.93, 0.97}},
		},
	}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "<polyline") != 2 {
		t.Fatal("wrong series count")
	}
	if !strings.Contains(s, "dim 20") || !strings.Contains(s, "precision vs alpha") {
		t.Fatal("labels missing")
	}
}

func TestLineChartValidation(t *testing.T) {
	c := &LineChart{Series: []Series{{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}}}
	if err := c.WriteSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("ragged series accepted")
	}
	// Empty chart renders without error.
	if err := (&LineChart{}).WriteSVG(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphPlotSVG(t *testing.T) {
	p := &GraphPlot{
		X:     []float64{0, 1, 0.5},
		Y:     []float64{0, 0, 1},
		Edges: [][2]int{{0, 1}, {1, 2}},
	}
	var buf bytes.Buffer
	if err := p.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "<line") < 2 {
		t.Fatal("edges missing")
	}
	if strings.Count(s, "<circle") != 3 {
		t.Fatal("vertices missing")
	}
	// Fewer categories than vertices is an error before any output,
	// as ScatterPlot's, not an index panic mid-drawing.
	p.Category = []int{0, 1}
	buf.Reset()
	if err := p.WriteSVG(&buf); err == nil || !strings.Contains(err.Error(), "2 categories for 3 points") {
		t.Fatalf("category mismatch: err %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("category mismatch wrote %d bytes", buf.Len())
	}
}

func TestColorCycles(t *testing.T) {
	if Color(0) != Palette[0] {
		t.Fatal("Color(0) wrong")
	}
	if Color(len(Palette)) != Palette[0] {
		t.Fatal("Color does not cycle")
	}
	if c := Color(-3); c == "" || slices.Contains(Palette, c) {
		t.Fatalf("negative index (no label): colour %q, want one outside the palette", c)
	}
}

func TestQuadtreeMassConservation(t *testing.T) {
	rng := xrand.New(3)
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	mass := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
		mass[i] = 1 + rng.Float64()
		total += mass[i]
	}
	qt := buildQuadtree(x, y, mass)
	root := qt.nodes[0]
	if math.Abs(root.mass-total) > 1e-9 {
		t.Fatalf("root mass %v, want %v", root.mass, total)
	}
	if root.count != int32(n) {
		t.Fatalf("root count %d", root.count)
	}
}

func TestQuadtreeCoincidentPoints(t *testing.T) {
	// All points identical: insertion must terminate (max depth
	// aggregation) and preserve mass.
	x := []float64{1, 1, 1, 1}
	y := []float64{2, 2, 2, 2}
	mass := []float64{1, 1, 1, 1}
	qt := buildQuadtree(x, y, mass)
	if qt.nodes[0].mass != 4 {
		t.Fatalf("mass %v", qt.nodes[0].mass)
	}
}

func TestQuadtreeRepulsionApproximatesExact(t *testing.T) {
	rng := xrand.New(7)
	n := 150
	x := make([]float64, n)
	y := make([]float64, n)
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64() * 10
		y[i] = rng.NormFloat64() * 10
		mass[i] = 1
	}
	qt := buildQuadtree(x, y, mass)
	kernel := func(px, py float64) func(dx, dy, m float64) (float64, float64) {
		return func(dx, dy, m float64) (float64, float64) {
			d2 := dx*dx + dy*dy
			if d2 < 1e-9 {
				d2 = 1e-9
			}
			d := math.Sqrt(d2)
			f := m / d2
			return f * dx / d, f * dy / d
		}
	}
	for _, p := range []int32{0, 17, 99} {
		var ax, ay float64
		qt.repulsion(p, x, y, 0.5, func(dx, dy, m float64) {
			fx, fy := kernel(x[p], y[p])(dx, dy, m)
			ax += fx
			ay += fy
		})
		// Exact O(n) sum.
		var ex, ey float64
		for j := 0; j < n; j++ {
			if int32(j) == p {
				continue
			}
			fx, fy := kernel(x[p], y[p])(x[p]-x[j], y[p]-y[j], mass[j])
			ex += fx
			ey += fy
		}
		norm := math.Hypot(ex, ey) + 1e-12
		if math.Hypot(ax-ex, ay-ey)/norm > 0.1 {
			t.Fatalf("point %d: BH force (%.4f,%.4f) vs exact (%.4f,%.4f)", p, ax, ay, ex, ey)
		}
	}
}

func TestLayoutSeparatesCommunities(t *testing.T) {
	g, truth := graph.TwoCliquesBridge(10)
	x, y := Layout(g, LayoutConfig{Iterations: 150, Seed: 5})
	// Mean positions of the two cliques should be far apart relative
	// to the intra-clique spread.
	var cx, cy [2]float64
	var cnt [2]int
	for v := range truth {
		c := truth[v]
		cx[c] += x[v]
		cy[c] += y[v]
		cnt[c]++
	}
	for c := 0; c < 2; c++ {
		cx[c] /= float64(cnt[c])
		cy[c] /= float64(cnt[c])
	}
	sep := math.Hypot(cx[0]-cx[1], cy[0]-cy[1])
	var spread float64
	for v := range truth {
		c := truth[v]
		spread += math.Hypot(x[v]-cx[c], y[v]-cy[c])
	}
	spread /= float64(len(truth))
	if sep < spread {
		t.Fatalf("communities not separated: sep %.2f, spread %.2f", sep, spread)
	}
}

func TestLayoutFiniteAndDeterministic(t *testing.T) {
	g := graph.ErdosRenyiGNM(50, 120, 9)
	x1, y1 := Layout(g, LayoutConfig{Iterations: 50, Seed: 11})
	x2, y2 := Layout(g, LayoutConfig{Iterations: 50, Seed: 11})
	for i := range x1 {
		if math.IsNaN(x1[i]) || math.IsInf(x1[i], 0) || math.IsNaN(y1[i]) {
			t.Fatal("non-finite layout position")
		}
		if x1[i] != x2[i] || y1[i] != y2[i] {
			t.Fatal("layout not deterministic for fixed seed")
		}
	}
}

func TestLayoutTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		b := graph.NewBuilder(n)
		if n == 2 {
			b.AddEdge(0, 1)
		}
		g := b.Build()
		x, y := Layout(g, LayoutConfig{Iterations: 10, Seed: 1})
		if len(x) != n || len(y) != n {
			t.Fatalf("layout size %d/%d for n=%d", len(x), len(y), n)
		}
	}
}
