// Command visualize renders a graph or an embedding as SVG.
//
// Two modes:
//
//	visualize -graph graph.txt -out drawing.svg          force layout
//	visualize -vectors vecs.txt -out scatter.svg         PCA scatter
//
// An optional -labels file (one label per line, vertex order) colours
// the points by category.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"v2v"
)

func main() {
	var (
		graphF  = flag.String("graph", "", "edge list to lay out with ForceAtlas2")
		vecF    = flag.String("vectors", "", "word2vec text file to project")
		labelsF = flag.String("labels", "", "category labels, one per line (optional)")
		out     = flag.String("out", "", "output SVG (required)")
		iters   = flag.Int("iters", 200, "layout iterations")
		title   = flag.String("title", "", "plot title")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *out == "" || (*graphF == "") == (*vecF == "") {
		fmt.Fprintln(os.Stderr, "visualize: need -out and exactly one of -graph / -vectors")
		flag.Usage()
		os.Exit(2)
	}

	var labels []int
	var labelNames []string
	if *labelsF != "" {
		var err error
		labels, labelNames, err = readLabels(*labelsF)
		if err != nil {
			fatal(err)
		}
	}

	outF, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer outF.Close()

	if *graphF != "" {
		f, err := os.Open(*graphF)
		if err != nil {
			fatal(err)
		}
		g, err := v2v.ReadEdgeList(f, v2v.EdgeListOptions{})
		f.Close()
		if err != nil {
			fatal(err)
		}
		x, y := v2v.ForceLayout(g, v2v.LayoutConfig{Iterations: *iters, Seed: *seed})
		plot := &v2v.GraphPlot{Title: *title, X: x, Y: y, Category: labels}
		for _, e := range g.Edges() {
			plot.Edges = append(plot.Edges, [2]int{e.From, e.To})
		}
		if err := plot.WriteSVG(outF); err != nil {
			fatal(err)
		}
		return
	}

	f, err := os.Open(*vecF)
	if err != nil {
		fatal(err)
	}
	model, _, err := v2v.LoadModel(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	rows := model.Rows()
	pca, err := v2v.PCAOf(rows, 2, *seed)
	if err != nil {
		fatal(err)
	}
	pts := pca.TransformAll(rows)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p[0], p[1]
	}
	plot := &v2v.ScatterPlot{Title: *title, X: xs, Y: ys, Category: labels, Labels: labelNames}
	if err := plot.WriteSVG(outF); err != nil {
		fatal(err)
	}
}

func readLabels(path string) ([]int, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var labels []int
	index := map[string]int{}
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, ok := index[line]
		if !ok {
			id = len(names)
			index[line] = id
			names = append(names, line)
		}
		labels = append(labels, id)
	}
	return labels, names, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visualize:", err)
	os.Exit(1)
}
