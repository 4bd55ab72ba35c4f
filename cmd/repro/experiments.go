package main

import (
	"fmt"
	"io"
	"time"

	"v2v"
)

// benchmarkGraph builds the paper's synthetic benchmark at the given
// alpha under the experiment scale.
func (p params) benchmarkGraph(alpha float64) (*v2v.Graph, []int) {
	return v2v.CommunityBenchmark(v2v.BenchmarkConfig{
		NumCommunities: p.communities,
		CommunitySize:  p.communitySize,
		Alpha:          alpha,
		InterEdges:     p.interEdges,
		Seed:           p.seed,
	})
}

// embedOptions is the shared V2V configuration.
func (p params) embedOptions(dim int) v2v.Options {
	o := v2v.DefaultOptions(dim)
	o.WalksPerVertex = p.walksPerVertex
	o.WalkLength = p.walkLength
	o.Epochs = p.epochs
	o.Seed = p.seed + uint64(dim)*7919
	return o
}

// ---- Figure 3: force-directed drawings of the benchmark graphs -----

func runFig3(p params, out string) error {
	for _, alpha := range []float64{0.1, 0.5, 1.0} {
		g, truth := p.benchmarkGraph(alpha)
		x, y := v2v.ForceLayout(g, v2v.LayoutConfig{Iterations: 150, Seed: p.seed})
		plot := &v2v.GraphPlot{
			Title:    fmt.Sprintf("Fig 3: synthetic graph, alpha=%.1f (%d vertices, %d edges)", alpha, g.NumVertices(), g.NumEdges()),
			X:        x,
			Y:        y,
			Category: truth,
		}
		for _, e := range g.Edges() {
			plot.Edges = append(plot.Edges, [2]int{e.From, e.To})
		}
		name := fmt.Sprintf("fig3_alpha%.1f.svg", alpha)
		if err := writeFile(out, name, plot.WriteSVG); err != nil {
			return err
		}
		fmt.Printf("  alpha=%.1f: %d vertices, %d edges -> %s\n", alpha, g.NumVertices(), g.NumEdges(), name)
	}
	return nil
}

// ---- Figure 4: PCA scatter of the embedding at alpha=0.1 -----------

func runFig4(p params, out string) error {
	alpha := 0.1
	g, truth := p.benchmarkGraph(alpha)
	emb, err := v2v.Embed(g, p.embedOptions(50))
	if err != nil {
		return err
	}
	proj, pca, err := emb.ProjectPCA(2, p.seed)
	if err != nil {
		return err
	}
	xs := make([]float64, len(proj))
	ys := make([]float64, len(proj))
	for i, pt := range proj {
		xs[i], ys[i] = pt[0], pt[1]
	}
	plot := &v2v.ScatterPlot{
		Title:    fmt.Sprintf("Fig 4: PCA of V2V embedding (dim=50, alpha=%.1f)", alpha),
		X:        xs,
		Y:        ys,
		Category: truth,
	}
	if err := writeFile(out, "fig4_pca.svg", plot.WriteSVG); err != nil {
		return err
	}
	fmt.Printf("  PCA variances: PC1=%.4f PC2=%.4f -> fig4_pca.svg\n", pca.Variances[0], pca.Variances[1])
	return nil
}

// sharedWalkEmbedder prepares one walk set under
// p.embedOptions(seedDim) and returns an embed function that trains
// any dimension on that same set — the paper's dimension-sweep
// protocol. The set is one stream: every model re-derives identical
// walks, and none is stored.
func (p params) sharedWalkEmbedder(g *v2v.Graph, seedDim int) (func(dim int) (*v2v.Embedding, error), error) {
	stream, err := v2v.StreamWalks(g, p.embedOptions(seedDim))
	if err != nil {
		return nil, err
	}
	return func(dim int) (*v2v.Embedding, error) {
		return v2v.EmbedWalks(g, stream, p.embedOptions(dim))
	}, nil
}

// ---- Figures 5 and 6: precision/recall vs alpha per dimension ------

// sweepPrecisionRecall runs the alpha x dims grid once and returns
// precision[dimIdx][alphaIdx] and recall likewise.
func sweepPrecisionRecall(p params, dims []int) ([][]float64, [][]float64, error) {
	precision := make([][]float64, len(dims))
	recall := make([][]float64, len(dims))
	for i := range dims {
		precision[i] = make([]float64, len(p.alphas))
		recall[i] = make([]float64, len(p.alphas))
	}
	for ai, alpha := range p.alphas {
		g, truth := p.benchmarkGraph(alpha)
		// All dimension settings train on the same walk set, as the
		// paper specifies for its dimension sweeps.
		embed, err := p.sharedWalkEmbedder(g, dims[0])
		if err != nil {
			return nil, nil, err
		}
		for di, dim := range dims {
			emb, err := embed(dim)
			if err != nil {
				return nil, nil, err
			}
			res, err := emb.DetectCommunities(v2v.CommunityConfig{
				K: p.communities, Restarts: 100, Seed: p.seed,
			})
			if err != nil {
				return nil, nil, err
			}
			pr, rc, err := v2v.EvaluateCommunities(truth, res.Partition)
			if err != nil {
				return nil, nil, err
			}
			precision[di][ai] = pr
			recall[di][ai] = rc
		}
	}
	return precision, recall, nil
}

func writeSweepChart(out, name, title, ylabel string, p params, dims []int, vals [][]float64) error {
	chart := &v2v.LineChart{
		Title:  title,
		XLabel: "alpha",
		YLabel: ylabel,
		YMin:   0.5,
		YMax:   1.0,
	}
	for di, dim := range dims {
		chart.Series = append(chart.Series, v2v.ChartSeries{
			Name: fmt.Sprintf("dimension %d", dim),
			X:    p.alphas,
			Y:    vals[di],
		})
	}
	return writeFile(out, name, chart.WriteSVG)
}

func writeSweepTable(f io.Writer, p params, dims []int, vals [][]float64) error {
	fmt.Fprintf(f, "alpha")
	for _, d := range dims {
		fmt.Fprintf(f, "\tdim%d", d)
	}
	fmt.Fprintln(f)
	for ai, alpha := range p.alphas {
		fmt.Fprintf(f, "%.1f", alpha)
		for di := range dims {
			fmt.Fprintf(f, "\t%.4f", vals[di][ai])
		}
		fmt.Fprintln(f)
	}
	return nil
}

func runFig5(p params, out string) error {
	precision, _, err := sweepPrecisionRecall(p, p.fig56Dims)
	if err != nil {
		return err
	}
	if err := writeSweepChart(out, "fig5_precision.svg",
		"Fig 5: precision of V2V community detection vs alpha", "precision",
		p, p.fig56Dims, precision); err != nil {
		return err
	}
	if err := writeFile(out, "fig5_precision.txt", func(f io.Writer) error {
		return writeSweepTable(f, p, p.fig56Dims, precision)
	}); err != nil {
		return err
	}
	for di, dim := range p.fig56Dims {
		fmt.Printf("  dim %4d: precision %.3f (alpha=%.1f) -> %.3f (alpha=%.1f)\n",
			dim, precision[di][0], p.alphas[0], precision[di][len(p.alphas)-1], p.alphas[len(p.alphas)-1])
	}
	return nil
}

func runFig6(p params, out string) error {
	_, recall, err := sweepPrecisionRecall(p, p.fig56Dims)
	if err != nil {
		return err
	}
	if err := writeSweepChart(out, "fig6_recall.svg",
		"Fig 6: recall of V2V community detection vs alpha", "recall",
		p, p.fig56Dims, recall); err != nil {
		return err
	}
	if err := writeFile(out, "fig6_recall.txt", func(f io.Writer) error {
		return writeSweepTable(f, p, p.fig56Dims, recall)
	}); err != nil {
		return err
	}
	for di, dim := range p.fig56Dims {
		fmt.Printf("  dim %4d: recall %.3f (alpha=%.1f) -> %.3f (alpha=%.1f)\n",
			dim, recall[di][0], p.alphas[0], recall[di][len(p.alphas)-1], p.alphas[len(p.alphas)-1])
	}
	return nil
}

// ---- Figure 7: training time and accuracy vs alpha (convergence) ---

func runFig7(p params, out string) error {
	type row struct {
		alpha     float64
		trainTime time.Duration
		epochs    int
		precision float64
		recall    float64
	}
	var rows []row
	for _, alpha := range p.alphas {
		g, truth := p.benchmarkGraph(alpha)
		o := p.embedOptions(p.fig7Dim)
		o.Epochs = p.maxEpochs
		o.ConvergenceTol = p.convergenceTol
		emb, err := v2v.Embed(g, o)
		if err != nil {
			return err
		}
		res, err := emb.DetectCommunities(v2v.CommunityConfig{
			K: p.communities, Restarts: 100, Seed: p.seed,
		})
		if err != nil {
			return err
		}
		pr, rc, err := v2v.EvaluateCommunities(truth, res.Partition)
		if err != nil {
			return err
		}
		rows = append(rows, row{alpha, emb.TrainTime, emb.Stats.Epochs, pr, rc})
		fmt.Printf("  alpha=%.1f: train=%v (%d epochs) precision=%.3f recall=%.3f\n",
			alpha, emb.TrainTime.Round(time.Millisecond), emb.Stats.Epochs, pr, rc)
	}
	if err := writeFile(out, "fig7_training_time.txt", func(f io.Writer) error {
		fmt.Fprintln(f, "alpha\ttrain_seconds\tepochs\tprecision\trecall")
		for _, r := range rows {
			fmt.Fprintf(f, "%.1f\t%.4f\t%d\t%.4f\t%.4f\n",
				r.alpha, r.trainTime.Seconds(), r.epochs, r.precision, r.recall)
		}
		return nil
	}); err != nil {
		return err
	}
	chart := &v2v.LineChart{
		Title:  fmt.Sprintf("Fig 7: training time (convergence-stopped) vs alpha, dim=%d", p.fig7Dim),
		XLabel: "alpha",
		YLabel: "training time (s)",
	}
	var ts, xs []float64
	for _, r := range rows {
		xs = append(xs, r.alpha)
		ts = append(ts, r.trainTime.Seconds())
	}
	chart.Series = append(chart.Series, v2v.ChartSeries{Name: "training time", X: xs, Y: ts})
	return writeFile(out, "fig7_training_time.svg", chart.WriteSVG)
}

// ---- Table I: V2V vs CNM vs Girvan-Newman ---------------------------

func runTable1(p params, out string) error {
	type row struct {
		alpha                  float64
		v2vP, v2vR             float64
		trainTime, clusterTime time.Duration
		cnmP, cnmR             float64
		cnmTime                time.Duration
		gnP, gnR               float64
		gnTime                 time.Duration
	}
	var rows []row
	for _, alpha := range p.alphas {
		g, truth := p.benchmarkGraph(alpha)

		emb, err := v2v.Embed(g, p.embedOptions(p.table1Dim))
		if err != nil {
			return err
		}
		res, err := emb.DetectCommunities(v2v.CommunityConfig{
			K: p.communities, Restarts: 100, Seed: p.seed,
		})
		if err != nil {
			return err
		}
		v2vP, v2vR, err := v2v.EvaluateCommunities(truth, res.Partition)
		if err != nil {
			return err
		}

		cnmStart := time.Now()
		cnm, err := v2v.CNM(g, v2v.CNMConfig{TargetK: p.communities})
		if err != nil {
			return err
		}
		cnmTime := time.Since(cnmStart)
		cnmP, cnmR, _ := v2v.EvaluateCommunities(truth, cnm.Partition)

		gnStart := time.Now()
		gn, err := v2v.GirvanNewman(g, v2v.GNConfig{TargetK: p.communities})
		if err != nil {
			return err
		}
		gnTime := time.Since(gnStart)
		gnP, gnR, _ := v2v.EvaluateCommunities(truth, gn.Partition)

		r := row{alpha, v2vP, v2vR, emb.TrainTime + emb.WalkTime, res.ClusterTime,
			cnmP, cnmR, cnmTime, gnP, gnR, gnTime}
		rows = append(rows, r)
		fmt.Printf("  alpha=%.1f  V2V %.3f/%.3f train=%v cluster=%v | CNM %.3f/%.3f %v | GN %.3f/%.3f %v\n",
			alpha, v2vP, v2vR, r.trainTime.Round(time.Millisecond), r.clusterTime.Round(time.Microsecond),
			cnmP, cnmR, cnmTime.Round(time.Millisecond), gnP, gnR, gnTime.Round(time.Millisecond))
	}
	return writeFile(out, "table1.txt", func(f io.Writer) error {
		fmt.Fprintln(f, "# Community detection: V2V (k-means on embeddings) vs CNM vs Girvan-Newman")
		fmt.Fprintf(f, "# graph: %d communities x %d vertices, %d inter-community edges; V2V dim=%d\n",
			p.communities, p.communitySize, p.interEdges, p.table1Dim)
		fmt.Fprintln(f, "alpha\tv2v_precision\tv2v_recall\tv2v_train_s\tv2v_cluster_s\tcnm_precision\tcnm_recall\tcnm_s\tgn_precision\tgn_recall\tgn_s")
		var avg row
		for _, r := range rows {
			fmt.Fprintf(f, "%.1f\t%.3f\t%.3f\t%.4f\t%.6f\t%.3f\t%.3f\t%.4f\t%.3f\t%.3f\t%.4f\n",
				r.alpha, r.v2vP, r.v2vR, r.trainTime.Seconds(), r.clusterTime.Seconds(),
				r.cnmP, r.cnmR, r.cnmTime.Seconds(), r.gnP, r.gnR, r.gnTime.Seconds())
			avg.v2vP += r.v2vP
			avg.v2vR += r.v2vR
			avg.trainTime += r.trainTime
			avg.clusterTime += r.clusterTime
			avg.cnmP += r.cnmP
			avg.cnmR += r.cnmR
			avg.cnmTime += r.cnmTime
			avg.gnP += r.gnP
			avg.gnR += r.gnR
			avg.gnTime += r.gnTime
		}
		n := float64(len(rows))
		fmt.Fprintf(f, "avg\t%.3f\t%.3f\t%.4f\t%.6f\t%.3f\t%.3f\t%.4f\t%.3f\t%.3f\t%.4f\n",
			avg.v2vP/n, avg.v2vR/n, avg.trainTime.Seconds()/n, avg.clusterTime.Seconds()/n,
			avg.cnmP/n, avg.cnmR/n, avg.cnmTime.Seconds()/n, avg.gnP/n, avg.gnR/n, avg.gnTime.Seconds()/n)
		return nil
	})
}

// ---- Figure 8: OpenFlights PCA visualization ------------------------

func (p params) openFlights() (*v2v.OpenFlightsDataset, error) {
	cfg := v2v.DefaultOpenFlightsConfig(p.seed)
	cfg.NumAirports = p.airports
	cfg.NumRegions = p.regions
	return v2v.GenerateOpenFlights(cfg)
}

func (p params) embedOpenFlights(ds *v2v.OpenFlightsDataset, dim int) (*v2v.Embedding, error) {
	o := p.embedOptions(dim)
	return v2v.Embed(ds.Graph, o)
}

func runFig8(p params, out string) error {
	ds, err := p.openFlights()
	if err != nil {
		return err
	}
	fmt.Printf("  route network: %d airports, %d routes, %d countries, %d regions\n",
		ds.Graph.NumVertices(), ds.Graph.NumEdges(), ds.NumCountries, ds.NumRegions)
	emb, err := p.embedOpenFlights(ds, 50)
	if err != nil {
		return err
	}
	proj, _, err := emb.ProjectPCA(3, p.seed)
	if err != nil {
		return err
	}
	xs := make([]float64, len(proj))
	ys := make([]float64, len(proj))
	for i, pt := range proj {
		xs[i], ys[i] = pt[0], pt[1]
	}
	plot := &v2v.ScatterPlot{
		Title:    "Fig 8a: PCA (2D) of airport embeddings, colored by continent",
		X:        xs,
		Y:        ys,
		Category: ds.Continent,
		Labels:   ds.RegionNames,
	}
	if err := writeFile(out, "fig8_openflights_pca2d.svg", plot.WriteSVG); err != nil {
		return err
	}
	// 3-D coordinates as data (the paper's Fig 8b); SVG is 2-D, so we
	// emit the coordinates for external plotting and a 2D projection
	// of components 1 and 3 as a second view.
	if err := writeFile(out, "fig8_openflights_pca3d.txt", func(f io.Writer) error {
		fmt.Fprintln(f, "pc1\tpc2\tpc3\tcontinent\tcountry\tairport")
		for i, pt := range proj {
			fmt.Fprintf(f, "%.5f\t%.5f\t%.5f\t%s\t%s\t%s\n",
				pt[0], pt[1], pt[2], ds.RegionNames[ds.Continent[i]],
				ds.CountryNames[ds.Country[i]], ds.Graph.Name(i))
		}
		return nil
	}); err != nil {
		return err
	}
	zs := make([]float64, len(proj))
	for i, pt := range proj {
		zs[i] = pt[2]
	}
	plot13 := &v2v.ScatterPlot{
		Title:    "Fig 8b (view): PCA components 1 and 3",
		X:        xs,
		Y:        zs,
		Category: ds.Continent,
		Labels:   ds.RegionNames,
	}
	return writeFile(out, "fig8_openflights_pca13.svg", plot13.WriteSVG)
}

// ---- Figures 9 and 10: k-NN accuracy sweeps -------------------------

// predictionGrid computes accuracy[dimIdx][kIdx] for k = 1..10 by
// 10-fold cross-validated country prediction.
func predictionGrid(p params, dims []int) ([][]float64, *v2v.OpenFlightsDataset, error) {
	ds, err := p.openFlights()
	if err != nil {
		return nil, nil, err
	}
	// All dimension settings train on the same walk set, following the
	// paper's Figure 9 protocol ("we trained the V2V, with different
	// settings of dimensions, in the same set of random walk paths" —
	// the stated cause of the overfitting shape).
	embed, err := p.sharedWalkEmbedder(ds.Graph, dims[0])
	if err != nil {
		return nil, nil, err
	}
	acc := make([][]float64, len(dims))
	for di, dim := range dims {
		emb, err := embed(dim)
		if err != nil {
			return nil, nil, err
		}
		acc[di] = make([]float64, 10)
		for k := 1; k <= 10; k++ {
			a, err := emb.CrossValidateLabels(ds.Country, k, 10, p.seed)
			if err != nil {
				return nil, nil, err
			}
			acc[di][k-1] = a
		}
	}
	return acc, ds, nil
}

func runFig9(p params, out string) error {
	acc, ds, err := predictionGrid(p, p.fig9Dims)
	if err != nil {
		return err
	}
	fmt.Printf("  predicting %d country labels over %d airports\n", ds.NumCountries, ds.Graph.NumVertices())
	chart := &v2v.LineChart{
		Title:  "Fig 9: country prediction accuracy vs embedding dimension",
		XLabel: "dimensions",
		YLabel: "accuracy",
	}
	dimsX := make([]float64, len(p.fig9Dims))
	for i, d := range p.fig9Dims {
		dimsX[i] = float64(d)
	}
	for k := 1; k <= 10; k++ {
		ys := make([]float64, len(p.fig9Dims))
		for di := range p.fig9Dims {
			ys[di] = acc[di][k-1]
		}
		chart.Series = append(chart.Series, v2v.ChartSeries{
			Name: fmt.Sprintf("k = %d", k), X: dimsX, Y: ys,
		})
	}
	if err := writeFile(out, "fig9_accuracy_vs_dim.svg", chart.WriteSVG); err != nil {
		return err
	}
	if err := writeFile(out, "fig9_accuracy_vs_dim.txt", func(f io.Writer) error {
		fmt.Fprint(f, "dim")
		for k := 1; k <= 10; k++ {
			fmt.Fprintf(f, "\tk%d", k)
		}
		fmt.Fprintln(f)
		for di, d := range p.fig9Dims {
			fmt.Fprintf(f, "%d", d)
			for k := 1; k <= 10; k++ {
				fmt.Fprintf(f, "\t%.4f", acc[di][k-1])
			}
			fmt.Fprintln(f)
		}
		return nil
	}); err != nil {
		return err
	}
	for di, d := range p.fig9Dims {
		fmt.Printf("  dim %4d: k=3 accuracy %.3f\n", d, acc[di][2])
	}
	return nil
}

func runFig10(p params, out string) error {
	acc, _, err := predictionGrid(p, p.fig10Dims)
	if err != nil {
		return err
	}
	chart := &v2v.LineChart{
		Title:  "Fig 10: country prediction accuracy vs k (neighbours voting)",
		XLabel: "k",
		YLabel: "accuracy",
	}
	ks := make([]float64, 10)
	for k := range ks {
		ks[k] = float64(k + 1)
	}
	for di, d := range p.fig10Dims {
		chart.Series = append(chart.Series, v2v.ChartSeries{
			Name: fmt.Sprintf("dimension %d", d), X: ks, Y: acc[di],
		})
	}
	if err := writeFile(out, "fig10_accuracy_vs_k.svg", chart.WriteSVG); err != nil {
		return err
	}
	return writeFile(out, "fig10_accuracy_vs_k.txt", func(f io.Writer) error {
		fmt.Fprint(f, "k")
		for _, d := range p.fig10Dims {
			fmt.Fprintf(f, "\tdim%d", d)
		}
		fmt.Fprintln(f)
		for k := 0; k < 10; k++ {
			fmt.Fprintf(f, "%d", k+1)
			for di := range p.fig10Dims {
				fmt.Fprintf(f, "\t%.4f", acc[di][k])
			}
			fmt.Fprintln(f)
		}
		return nil
	})
}
