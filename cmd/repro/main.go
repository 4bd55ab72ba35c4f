// Command repro regenerates every table and figure of the paper's
// evaluation (Table I, Figures 3-10) from the reproduction library,
// writing text tables and SVG charts into an output directory.
//
// Usage:
//
//	repro [-exp all|table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10]
//	      [-scale small|medium|paper] [-out results] [-seed N]
//
// Scale controls graph sizes and walk budgets: "small" finishes in
// well under a minute, "medium" (default) in a few minutes, "paper"
// approaches the paper's sizes (1000-vertex benchmark graphs, a
// 10k-airport route network) and takes correspondingly longer. Walks
// are streamed, never stored (docs/STREAMING.md), so memory stays
// bounded at paper scale. The paper's absolute runtimes
// are not reproducible (different hardware and a different word2vec
// implementation); the *shapes* of every table and figure are. See
// docs/EXPERIMENTS.md for the section-by-section command mapping.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run: all, table1, fig3..fig10")
		scale = flag.String("scale", "medium", "small, medium or paper")
		out   = flag.String("out", "results", "output directory")
		seed  = flag.Uint64("seed", 1, "master random seed")
	)
	flag.Parse()

	p, err := paramsFor(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	experiments := map[string]func(params, string) error{
		"table1": runTable1,
		"fig3":   runFig3,
		"fig4":   runFig4,
		"fig5":   runFig5,
		"fig6":   runFig6,
		"fig7":   runFig7,
		"fig8":   runFig8,
		"fig9":   runFig9,
		"fig10":  runFig10,
	}
	order := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig8", "fig9", "fig10"}

	var toRun []string
	if *exp == "all" {
		toRun = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiments[name]; !ok {
				fmt.Fprintf(os.Stderr, "repro: unknown experiment %q\n", name)
				os.Exit(2)
			}
			toRun = append(toRun, name)
		}
	}

	for _, name := range toRun {
		fmt.Printf("== %s (scale=%s) ==\n", name, *scale)
		if err := experiments[name](p, *out); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	fmt.Printf("done; outputs in %s\n", *out)
}

// params bundles every scale-dependent knob.
type params struct {
	seed uint64

	// Synthetic benchmark (paper: 10 x 100, 200 inter edges).
	communities   int
	communitySize int
	interEdges    int

	// Walk budget (paper: t = l = 1000).
	walksPerVertex int
	walkLength     int
	epochs         int

	// Dimension sweeps.
	fig56Dims []int // paper: 20, 50, 100, 250, 600
	fig7Dim   int   // paper: 600
	table1Dim int   // paper: 10
	fig9Dims  []int // paper: 10..1000
	fig10Dims []int

	// Convergence training (Fig 7).
	convergenceTol float64
	maxEpochs      int

	// OpenFlights-like dataset.
	airports int
	regions  int

	// Alpha sweep (paper: 0.1 .. 1.0).
	alphas []float64
}

func paramsFor(scale string, seed uint64) (params, error) {
	full := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	switch scale {
	case "small":
		return params{
			seed:           seed,
			communities:    10,
			communitySize:  40,
			interEdges:     40,
			walksPerVertex: 6,
			walkLength:     40,
			epochs:         3,
			fig56Dims:      []int{10, 20, 50},
			fig7Dim:        50,
			table1Dim:      10,
			fig9Dims:       []int{5, 10, 20, 40, 80},
			fig10Dims:      []int{10, 20, 50},
			convergenceTol: 0.02,
			maxEpochs:      30,
			airports:       500,
			regions:        6,
			alphas:         []float64{0.1, 0.4, 0.7, 1.0},
		}, nil
	case "medium":
		return params{
			seed:           seed,
			communities:    10,
			communitySize:  50,
			interEdges:     100,
			walksPerVertex: 8,
			walkLength:     60,
			epochs:         3,
			fig56Dims:      []int{20, 50, 100},
			fig7Dim:        100,
			table1Dim:      10,
			fig9Dims:       []int{5, 10, 20, 40, 70, 100, 200},
			fig10Dims:      []int{10, 30, 50, 100},
			convergenceTol: 0.02,
			maxEpochs:      40,
			airports:       2000,
			regions:        8,
			alphas:         full,
		}, nil
	case "paper":
		return params{
			seed:           seed,
			communities:    10,
			communitySize:  100,
			interEdges:     200,
			walksPerVertex: 50,
			walkLength:     200,
			epochs:         3,
			fig56Dims:      []int{20, 50, 100, 250, 600},
			fig7Dim:        600,
			table1Dim:      10,
			fig9Dims:       []int{10, 20, 30, 40, 50, 70, 100, 200, 500, 1000},
			fig10Dims:      []int{10, 30, 50, 70, 100, 300, 1000},
			convergenceTol: 0.02,
			maxEpochs:      60,
			airports:       10000,
			regions:        10,
			alphas:         full,
		}, nil
	default:
		return params{}, fmt.Errorf("unknown scale %q", scale)
	}
}

// writeFile writes data to dir/name.
func writeFile(dir, name string, write func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
