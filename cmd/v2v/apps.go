package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"v2v"
)

// apps are the paper's three applications of the embedding, one
// subcommand each: community detection (Section III), feature
// prediction (Section V) and visualisation (Section IV). Each parses
// its own arguments, writes its report to stdout and returns its
// error, so a test runs it in-process.
var apps = map[string]func(args []string, stdout, stderr io.Writer) error{
	"communities": communitiesMain,
	"predict":     predictMain,
	"visualize":   visualizeMain,
}

// errUsage marks a command line a subcommand cannot run; the usage has
// already gone to stderr, and main exits 2 as flag.ExitOnError does.
var errUsage = errors.New("usage")

// parseArgs parses args on fs, reporting to stderr. -h returns
// flag.ErrHelp; any other rejected command line wraps errUsage.
func parseArgs(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// usage prints msg and fs's flags to fs's output and returns an error
// wrapping errUsage.
func usage(fs *flag.FlagSet, msg string) error {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), msg)
	fs.Usage()
	return fmt.Errorf("%w: %s", errUsage, msg)
}

// readGraph reads the edge list at path, "-" for stdin.
func readGraph(path string, opts v2v.EdgeListOptions) (*v2v.Graph, error) {
	if path == "-" {
		return v2v.ReadEdgeList(os.Stdin, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return v2v.ReadEdgeList(f, opts)
}

// readLabels reads one label per line in vertex order, skipping blank
// lines and '#' comments. A label is any string; labels get dense IDs
// in order of first appearance, and names[id] is the string. "?" is a
// missing label, ID -1.
func readLabels(path string) (labels []int, names []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	index := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "?" {
			labels = append(labels, -1)
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

// writeFile creates path and fills it with write. Close is where a
// deferred write error (a full disk, a network file system) surfaces,
// so it is checked: a truncated file must not exit 0.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// communitiesMain detects communities with the paper's three methods
// (Table I) — V2V embedding + k-means, CNM greedy modularity and
// Girvan-Newman — and prints each one's community count, modularity,
// pairwise precision and recall against -truth, and run time.
func communitiesMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("v2v communities", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input edge list (required; '-' for stdin)")
		truthF  = fs.String("truth", "", "ground-truth community labels, one per line in vertex order (optional)")
		k       = fs.Int("k", 0, "number of communities: v2v needs it; cnm and gn stop there, or at their own optimum with 0")
		methods = fs.String("methods", "v2v,cnm,gn", "comma-separated methods: v2v, cnm, gn")
	)
	options := trainOptions(fs, 10) // Table I embeds at dim 10
	if err := parseArgs(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return usage(fs, "-in is required")
	}
	opts, err := options()
	if err != nil {
		return err
	}
	var run []string
	for _, m := range strings.Split(*methods, ",") {
		switch m = strings.TrimSpace(m); m {
		case "v2v":
			if *k <= 0 {
				return fmt.Errorf("v2v needs -k, the number of communities k-means looks for")
			}
		case "cnm", "gn":
		default:
			return fmt.Errorf("unknown method %q (valid: v2v, cnm, gn)", m)
		}
		run = append(run, m)
	}
	g, err := readGraph(*in, v2v.EdgeListOptions{})
	if err != nil {
		return err
	}
	var truth []int
	if *truthF != "" {
		if truth, _, err = readLabels(*truthF); err != nil {
			return err
		}
		if len(truth) != g.NumVertices() {
			return fmt.Errorf("%d labels for %d vertices", len(truth), g.NumVertices())
		}
		for v, l := range truth {
			if l < 0 {
				return fmt.Errorf("-truth: vertex %d has no community ('?'); precision and recall need every vertex's", v)
			}
		}
	}

	fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "%-10s %10s %10s %10s %12s %8s\n", "method", "comms", "modularity", "precision", "recall", "time")
	for _, m := range run {
		start := time.Now()
		var part []int
		switch m {
		case "v2v":
			emb, err := v2v.Embed(g, opts)
			if err != nil {
				return err
			}
			res, err := emb.DetectCommunities(v2v.CommunityConfig{K: *k, Restarts: 100, Seed: opts.Seed})
			if err != nil {
				return err
			}
			part = res.Partition
		case "cnm":
			res, err := v2v.CNM(g, v2v.CNMConfig{TargetK: *k})
			if err != nil {
				return err
			}
			part = res.Partition
		case "gn":
			res, err := v2v.GirvanNewman(g, v2v.GNConfig{TargetK: *k})
			if err != nil {
				return err
			}
			part = res.Partition
		}
		elapsed := time.Since(start)

		q, err := v2v.Modularity(g, part)
		if err != nil {
			return err
		}
		prec, rec := "-", "-"
		if truth != nil {
			p, r, err := v2v.EvaluateCommunities(truth, part)
			if err != nil {
				return err
			}
			prec = fmt.Sprintf("%.3f", p)
			rec = fmt.Sprintf("%.3f", r)
		}
		fmt.Fprintf(stdout, "%-10s %10d %10.4f %10s %12s %8s\n", m, countCommunities(part), q, prec, rec, elapsed.Round(time.Millisecond))
	}
	return nil
}

func countCommunities(part []int) int {
	seen := map[int]bool{}
	for _, c := range part {
		seen[c] = true
	}
	return len(seen)
}

// predictMain runs the paper's feature-prediction protocol: embed,
// then k-NN-classify vertex labels under cosine distance, either by
// -folds cross-validation (always over the exact index, so accuracies
// stay comparable with the paper) or, with -predict-missing, by
// filling in the '?' labels through the -index kind and printing the
// completed list.
func predictMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("v2v predict", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input edge list (required; '-' for stdin)")
		labelsF  = fs.String("labels", "", "labels, one per line in vertex order; '?' marks a missing one (required)")
		k        = fs.Int("k", 3, "nearest neighbours voting (paper's best: 3)")
		folds    = fs.Int("folds", 10, "cross-validation folds")
		missing  = fs.Bool("predict-missing", false, "predict the '?' labels instead of cross-validating")
		directed = fs.Bool("directed", false, "treat edges as directed")
		modelF   = fs.String("model-out", "", "also save the trained embedding here as a binary snapshot, servable by v2v serve")
	)
	options := trainOptions(fs, 50) // the paper's best: 40-70
	index := indexSelection(fs, "exact")
	if err := parseArgs(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" || *labelsF == "" {
		return usage(fs, "-in and -labels are required")
	}
	opts, err := options()
	if err != nil {
		return err
	}
	if opts.Index, err = index(); err != nil {
		return err
	}
	g, err := readGraph(*in, v2v.EdgeListOptions{Directed: *directed})
	if err != nil {
		return err
	}
	labels, names, err := readLabels(*labelsF)
	if err != nil {
		return err
	}
	if len(labels) != g.NumVertices() {
		return fmt.Errorf("%d labels for %d vertices", len(labels), g.NumVertices())
	}
	known := 0
	for v, l := range labels {
		switch {
		case l >= 0:
			known++
		case !*missing:
			return fmt.Errorf("vertex %d has a missing label ('?'); cross-validation needs every label, -predict-missing fills them in", v)
		}
	}
	if known == 0 {
		return fmt.Errorf("every label is missing ('?'); there is nothing to learn from")
	}

	emb, err := v2v.Embed(g, opts)
	if err != nil {
		return err
	}
	if *modelF != "" {
		tokens := make([]string, g.NumVertices())
		for v := range tokens {
			tokens[v] = g.Name(v)
		}
		if err := writeFile(*modelF, func(w io.Writer) error { return v2v.SaveSnapshot(w, emb.Model, tokens) }); err != nil {
			return err
		}
	}

	if *missing {
		completed, err := emb.PredictLabels(labels, *k)
		if err != nil {
			return err
		}
		for _, l := range completed {
			fmt.Fprintln(stdout, names[l])
		}
		return nil
	}
	acc, err := emb.CrossValidateLabels(labels, *k, *folds, opts.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges, %d classes\n", g.NumVertices(), g.NumEdges(), len(names))
	fmt.Fprintf(stdout, "%d-fold cross-validated %d-NN accuracy at dim %d: %.4f\n", *folds, *k, opts.Dim, acc)
	return nil
}

// visualizeMain renders a graph (-graph, ForceAtlas2 layout) or an
// embedding (-vectors, PCA scatter) as an SVG, coloured by -labels.
func visualizeMain(args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("v2v visualize", flag.ContinueOnError)
	var (
		graphF  = fs.String("graph", "", "edge list to lay out with ForceAtlas2 ('-' for stdin)")
		vecF    = fs.String("vectors", "", "saved model to project with PCA (snapshot or text, auto-detected)")
		labelsF = fs.String("labels", "", "category labels, one per line in vertex order; '?' draws a point grey (optional)")
		out     = fs.String("out", "", "output SVG (required)")
		iters   = fs.Int("iters", 200, "layout iterations")
		title   = fs.String("title", "", "plot title")
		seed    = fs.Uint64("seed", 1, "random seed of the layout or the PCA")
	)
	if err := parseArgs(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" || (*graphF == "") == (*vecF == "") {
		return usage(fs, "need -out and exactly one of -graph / -vectors")
	}
	var labels []int
	var names []string
	if *labelsF != "" {
		var err error
		if labels, names, err = readLabels(*labelsF); err != nil {
			return err
		}
	}
	checkLabels := func(n int, what string) error {
		if labels != nil && len(labels) != n {
			return fmt.Errorf("%d labels for %d %s", len(labels), n, what)
		}
		return nil
	}

	if *graphF != "" {
		g, err := readGraph(*graphF, v2v.EdgeListOptions{})
		if err != nil {
			return err
		}
		if err := checkLabels(g.NumVertices(), "vertices"); err != nil {
			return err
		}
		x, y := v2v.ForceLayout(g, v2v.LayoutConfig{Iterations: *iters, Seed: *seed})
		plot := &v2v.GraphPlot{Title: *title, X: x, Y: y, Category: labels}
		for _, e := range g.Edges() {
			plot.Edges = append(plot.Edges, [2]int{e.From, e.To})
		}
		return writeFile(*out, plot.WriteSVG)
	}

	f, err := os.Open(*vecF)
	if err != nil {
		return err
	}
	model, _, err := v2v.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := checkLabels(model.Vocab, "rows"); err != nil {
		return err
	}
	rows := model.Rows()
	pca, err := v2v.PCAOf(rows, 2, *seed)
	if err != nil {
		return err
	}
	xs := make([]float64, len(rows))
	ys := make([]float64, len(rows))
	for i, p := range pca.TransformAll(rows) {
		xs[i], ys[i] = p[0], p[1]
	}
	plot := &v2v.ScatterPlot{Title: *title, X: xs, Y: ys, Category: labels, Labels: names}
	return writeFile(*out, plot.WriteSVG)
}
