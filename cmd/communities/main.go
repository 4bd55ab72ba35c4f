// Command communities detects communities in a graph with the paper's
// three methods — V2V embedding + k-means, CNM greedy modularity and
// Girvan-Newman (Table I) — and prints a comparison of modularity and
// runtime (plus pairwise precision/recall when ground truth is
// supplied).
//
// Usage:
//
//	communities -in graph.txt -k 10 [-truth labels.txt]
//	            [-methods v2v,cnm,gn] [-dim 10] [-seed 1]
//
// labels.txt holds one integer community label per line, in vertex
// order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"v2v"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge list (required)")
		truthF  = flag.String("truth", "", "ground-truth labels, one per line (optional)")
		k       = flag.Int("k", 0, "number of communities for v2v/cnm/gn (0 = let each method decide)")
		methods = flag.String("methods", "v2v,cnm,gn", "comma-separated methods: v2v, cnm, gn")
		dim     = flag.Int("dim", 10, "V2V embedding dimensions (paper Table I uses 10)")
		walks   = flag.Int("walks", 10, "V2V walks per vertex")
		length  = flag.Int("length", 80, "V2V walk length")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	g, err := v2v.ReadEdgeList(f, v2v.EdgeListOptions{})
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	var truth []int
	if *truthF != "" {
		truth, err = readLabels(*truthF)
		if err != nil {
			fatal(err)
		}
		if len(truth) != g.NumVertices() {
			fatal(fmt.Errorf("%d labels for %d vertices", len(truth), g.NumVertices()))
		}
	}

	fmt.Printf("%-10s %10s %10s %10s %12s %8s\n", "method", "comms", "modularity", "precision", "recall", "time")
	for _, m := range strings.Split(*methods, ",") {
		m = strings.TrimSpace(m)
		start := time.Now()
		var part []int
		switch m {
		case "v2v":
			opts := v2v.DefaultOptions(*dim)
			opts.WalksPerVertex = *walks
			opts.WalkLength = *length
			opts.Seed = *seed
			emb, err := v2v.Embed(g, opts)
			if err != nil {
				fatal(err)
			}
			kk := *k
			if kk <= 0 {
				fatal(fmt.Errorf("v2v needs -k"))
			}
			res, err := emb.DetectCommunities(v2v.CommunityConfig{K: kk, Restarts: 100, Seed: *seed})
			if err != nil {
				fatal(err)
			}
			part = res.Partition
		case "cnm":
			res, err := v2v.CNM(g, v2v.CNMConfig{TargetK: *k})
			if err != nil {
				fatal(err)
			}
			part = res.Partition
		case "gn":
			res, err := v2v.GirvanNewman(g, v2v.GNConfig{TargetK: *k})
			if err != nil {
				fatal(err)
			}
			part = res.Partition
		default:
			fatal(fmt.Errorf("unknown method %q (valid: v2v, cnm, gn)", m))
		}
		elapsed := time.Since(start)

		q, err := v2v.Modularity(g, part)
		if err != nil {
			fatal(err)
		}
		nc := countCommunities(part)
		prec, rec := "-", "-"
		if truth != nil {
			p, r, err := v2v.EvaluateCommunities(truth, part)
			if err != nil {
				fatal(err)
			}
			prec = fmt.Sprintf("%.3f", p)
			rec = fmt.Sprintf("%.3f", r)
		}
		fmt.Printf("%-10s %10d %10.4f %10s %12s %8s\n", m, nc, q, prec, rec, elapsed.Round(time.Millisecond))
	}
}

func countCommunities(part []int) int {
	seen := map[int]bool{}
	for _, c := range part {
		seen[c] = true
	}
	return len(seen)
}

func readLabels(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var labels []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		l, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("bad label %q: %v", line, err)
		}
		labels = append(labels, l)
	}
	return labels, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "communities:", err)
	os.Exit(1)
}
