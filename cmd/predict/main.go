// Command predict runs the paper's feature-prediction protocol on a
// labelled graph: embed with V2V, then k-NN-classify vertex labels
// under cosine distance with k-fold cross-validation, or fill in
// missing labels.
//
// Usage:
//
//	predict -in graph.txt -labels labels.txt [-k 3] [-folds 10]
//	        [-dim 50] [-predict-missing] [-seed 1]
//	        [-index exact|hnsw] [-m 0] [-efc 0] [-efs 0]
//	        [-model-out model.snap]
//
// -model-out additionally saves the trained embedding as a binary
// snapshot, ready to be served with `v2v serve` (docs/SERVING.md).
//
// labels.txt holds one label per line in vertex order; with
// -predict-missing, lines equal to "?" are predicted from the rest
// and the completed list is printed.
//
// -index hnsw serves -predict-missing through an approximate index
// (see docs/INDEXES.md for the selection guide and the m/efc/efs
// recall trade-offs).
// Cross-validation always uses the exact index so reported accuracies
// stay comparable with the paper.
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
		in      = flag.String("in", "", "input edge list (required)")
		labelsF = flag.String("labels", "", "labels file (required)")
		k       = flag.Int("k", 3, "nearest neighbours voting (paper's best: 3)")
		folds   = flag.Int("folds", 10, "cross-validation folds")
		dim     = flag.Int("dim", 50, "embedding dimensions (paper's best: 40-70)")
		walks   = flag.Int("walks", 10, "walks per vertex")
		length  = flag.Int("length", 80, "walk length")
		missing = flag.Bool("predict-missing", false, "predict '?' labels instead of cross-validating")
		dirFlag = flag.Bool("directed", false, "treat edges as directed")
		seed    = flag.Uint64("seed", 1, "random seed")
		index   = flag.String("index", "exact", "similarity index for -predict-missing: exact or hnsw")
		hm      = flag.Int("m", 0, "hnsw: links per node per level (0 = 16)")
		efc     = flag.Int("efc", 0, "hnsw: construction beam width (0 = 200)")
		efs     = flag.Int("efs", 0, "hnsw: query beam width (0 = 128)")
		modelF  = flag.String("model-out", "", "also save the trained embedding here as a binary snapshot (servable with `v2v serve`)")
	)
	flag.Parse()
	if *in == "" || *labelsF == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := v2v.ReadEdgeList(f, v2v.EdgeListOptions{Directed: *dirFlag})
	f.Close()
	if err != nil {
		fatal(err)
	}

	raw, names, err := readLabels(*labelsF)
	if err != nil {
		fatal(err)
	}
	if len(raw) != g.NumVertices() {
		fatal(fmt.Errorf("%d labels for %d vertices", len(raw), g.NumVertices()))
	}

	opts := v2v.DefaultOptions(*dim)
	opts.WalksPerVertex = *walks
	opts.WalkLength = *length
	opts.Seed = *seed
	switch *index {
	case "exact":
		opts.Index = v2v.IndexConfig{Kind: v2v.ExactIndex}
	case "hnsw":
		opts.Index = v2v.IndexConfig{Kind: v2v.HNSWIndex, M: *hm, EfConstruction: *efc, EfSearch: *efs, Seed: *seed}
	default:
		fatal(fmt.Errorf("unknown index kind %q (want exact or hnsw; exact replaces the removed ivf)", *index))
	}
	if err := opts.Index.Validate(); err != nil {
		fatal(err)
	}
	emb, err := v2v.Embed(g, opts)
	if err != nil {
		fatal(err)
	}
	if *modelF != "" {
		f, err := os.Create(*modelF)
		if err != nil {
			fatal(err)
		}
		tokens := make([]string, g.NumVertices())
		for v := range tokens {
			tokens[v] = g.Name(v)
		}
		if err := v2v.SaveSnapshot(f, emb.Model, tokens); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *missing {
		completed, err := emb.PredictLabels(raw, *k)
		if err != nil {
			fatal(err)
		}
		for _, l := range completed {
			fmt.Println(names[l])
		}
		return
	}
	for _, l := range raw {
		if l < 0 {
			fatal(fmt.Errorf("missing label without -predict-missing"))
		}
	}
	acc, err := emb.CrossValidateLabels(raw, *k, *folds, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d classes\n", g.NumVertices(), g.NumEdges(), len(names))
	fmt.Printf("%d-fold cross-validated %d-NN accuracy at dim %d: %.4f\n", *folds, *k, *dim, acc)
}

// readLabels reads one label per line; "?" means missing (-1). The
// returned names slice maps dense label ids back to the original
// strings.
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
