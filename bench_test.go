package v2v

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Benchmarks use scaled-down workloads (see docs/EXPERIMENTS.md for
// the scale rationale); run `go run ./cmd/repro -scale paper` for
// paper-size regeneration.
//
// Quality numbers (precision, recall, accuracy) are attached to the
// benchmark output via b.ReportMetric so the shape of each figure is
// visible directly in `go test -bench` output.

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

const (
	benchCommunities   = 10
	benchCommunitySize = 40
	benchInterEdges    = 80
)

func benchGraph(b *testing.B, alpha float64) (*Graph, []int) {
	b.Helper()
	return CommunityBenchmark(BenchmarkConfig{
		NumCommunities: benchCommunities,
		CommunitySize:  benchCommunitySize,
		Alpha:          alpha,
		InterEdges:     benchInterEdges,
		Seed:           1,
	})
}

func benchOptions(dim int) Options {
	o := DefaultOptions(dim)
	o.WalksPerVertex = 6
	o.WalkLength = 40
	o.Epochs = 2
	o.Seed = 3
	return o
}

func embedBench(b *testing.B, g *Graph, opts Options) *Embedding {
	b.Helper()
	emb, err := Embed(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	return emb
}

// ---- Table I --------------------------------------------------------

// BenchmarkTable1V2VPipeline measures the full V2V side of Table I at
// alpha = 0.5: walks + CBOW training + 100-restart k-means.
func BenchmarkTable1V2VPipeline(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	var lastP, lastR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := embedBench(b, g, benchOptions(10))
		res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 100, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		lastP, lastR, err = EvaluateCommunities(truth, res.Partition)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastP, "precision")
	b.ReportMetric(lastR, "recall")
}

// BenchmarkTable1V2VClusterOnly measures just the clustering phase
// (the paper's "less than 0.01 seconds" column).
func BenchmarkTable1V2VClusterOnly(b *testing.B) {
	g, _ := benchGraph(b, 0.5)
	emb := embedBench(b, g, benchOptions(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 100, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CNM measures the CNM column of Table I.
func BenchmarkTable1CNM(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	var lastP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CNM(g, CNMConfig{TargetK: benchCommunities})
		if err != nil {
			b.Fatal(err)
		}
		lastP, _, _ = EvaluateCommunities(truth, res.Partition)
	}
	b.ReportMetric(lastP, "precision")
}

// BenchmarkTable1GirvanNewman measures the Girvan-Newman column of
// Table I (dominates the benchmark suite's runtime, as in the paper).
func BenchmarkTable1GirvanNewman(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	var lastP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := GirvanNewman(g, GNConfig{TargetK: benchCommunities})
		if err != nil {
			b.Fatal(err)
		}
		lastP, _, _ = EvaluateCommunities(truth, res.Partition)
	}
	b.ReportMetric(lastP, "precision")
}

// BenchmarkTable1GraphSizeScaling shows the edge-count scaling the
// paper notes: graph-algorithm runtime grows with alpha while V2V
// training does not grow proportionally.
func BenchmarkTable1GraphSizeScaling(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.5, 1.0} {
		g, _ := benchGraph(b, alpha)
		b.Run("cnm/alpha="+ftoa(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CNM(g, CNMConfig{TargetK: benchCommunities}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("v2v/alpha="+ftoa(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				embedBench(b, g, benchOptions(10))
			}
		})
	}
}

// ---- Figure 3 -------------------------------------------------------

// BenchmarkFig3ForceLayout measures the ForceAtlas2-style layout used
// to draw the benchmark graphs.
func BenchmarkFig3ForceLayout(b *testing.B) {
	g, _ := benchGraph(b, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForceLayout(g, LayoutConfig{Iterations: 50, Seed: 7})
	}
}

// ---- Figure 4 -------------------------------------------------------

// BenchmarkFig4PCAScatter measures PCA projection of an embedding to
// 2-D (the Figure 4 pathway).
func BenchmarkFig4PCAScatter(b *testing.B) {
	g, _ := benchGraph(b, 0.1)
	emb := embedBench(b, g, benchOptions(50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := emb.ProjectPCA(2, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 5 and 6 -------------------------------------------------

// BenchmarkFig5PrecisionVsAlpha runs one cell of the Figure 5 grid
// (alpha = 0.3, dim = 50) and reports its precision.
func BenchmarkFig5PrecisionVsAlpha(b *testing.B) {
	g, truth := benchGraph(b, 0.3)
	var lastP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := embedBench(b, g, benchOptions(50))
		res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 100, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		lastP, _, _ = EvaluateCommunities(truth, res.Partition)
	}
	b.ReportMetric(lastP, "precision")
}

// BenchmarkFig6RecallVsAlpha runs the matching Figure 6 cell and
// reports recall.
func BenchmarkFig6RecallVsAlpha(b *testing.B) {
	g, truth := benchGraph(b, 0.3)
	var lastR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := embedBench(b, g, benchOptions(50))
		res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 100, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		_, lastR, _ = EvaluateCommunities(truth, res.Partition)
	}
	b.ReportMetric(lastR, "recall")
}

// ---- Figure 7 -------------------------------------------------------

// BenchmarkFig7ConvergenceTraining measures convergence-stopped
// training at weak vs strong community structure; the strong case
// should need fewer epochs (the figure's falling curve).
func BenchmarkFig7ConvergenceTraining(b *testing.B) {
	for _, alpha := range []float64{0.1, 1.0} {
		g, _ := benchGraph(b, alpha)
		b.Run("alpha="+ftoa(alpha), func(b *testing.B) {
			var epochs int
			for i := 0; i < b.N; i++ {
				o := benchOptions(50)
				o.Epochs = 30
				o.ConvergenceTol = 0.02
				emb := embedBench(b, g, o)
				epochs = emb.Stats.Epochs
			}
			b.ReportMetric(float64(epochs), "epochs")
		})
	}
}

// ---- Figure 8 -------------------------------------------------------

// BenchmarkFig8OpenFlights measures embedding + 3-component PCA of
// the synthetic route network.
func BenchmarkFig8OpenFlights(b *testing.B) {
	ds, err := GenerateOpenFlights(OpenFlightsConfig{
		NumAirports: 600, NumRegions: 6, CountriesPerRegion: 5,
		HubFraction: 20, IntlDegree: 5, TrunkDegree: 3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb := embedBench(b, ds.Graph, benchOptions(50))
		if _, _, err := emb.ProjectPCA(3, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 9 and 10 ------------------------------------------------

// BenchmarkFig9AccuracyVsDim runs one cell of the Figure 9 grid
// (dim = 50, k = 3 country prediction) and reports accuracy.
func BenchmarkFig9AccuracyVsDim(b *testing.B) {
	ds, err := GenerateOpenFlights(OpenFlightsConfig{
		NumAirports: 600, NumRegions: 6, CountriesPerRegion: 5,
		HubFraction: 20, IntlDegree: 5, TrunkDegree: 3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	emb := embedBench(b, ds.Graph, benchOptions(50))
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err = emb.CrossValidateLabels(ds.Country, 3, 10, 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkFig10AccuracyVsK sweeps k = 1 and k = 10 at fixed
// dimension (the endpoints of Figure 10's x axis).
func BenchmarkFig10AccuracyVsK(b *testing.B) {
	ds, err := GenerateOpenFlights(OpenFlightsConfig{
		NumAirports: 600, NumRegions: 6, CountriesPerRegion: 5,
		HubFraction: 20, IntlDegree: 5, TrunkDegree: 3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	emb := embedBench(b, ds.Graph, benchOptions(50))
	for _, k := range []int{1, 10} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc, err = emb.CrossValidateLabels(ds.Country, k, 10, 15)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// ---- Ablations (design choices from DESIGN.md) -----------------------

// BenchmarkAblationObjective compares CBOW (the paper) with SkipGram
// (DeepWalk/node2vec) at identical budgets.
func BenchmarkAblationObjective(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	for _, obj := range []Objective{CBOW, SkipGram} {
		b.Run(obj.String(), func(b *testing.B) {
			var lastP float64
			for i := 0; i < b.N; i++ {
				o := benchOptions(16)
				o.Objective = obj
				emb := embedBench(b, g, o)
				res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 30, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				lastP, _, _ = EvaluateCommunities(truth, res.Partition)
			}
			b.ReportMetric(lastP, "precision")
		})
	}
}

// BenchmarkAblationSampler compares negative sampling with
// hierarchical softmax.
func BenchmarkAblationSampler(b *testing.B) {
	g, _ := benchGraph(b, 0.5)
	for _, s := range []SamplerKind{NegativeSampling, HierarchicalSoftmax} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(16)
				o.Sampler = s
				embedBench(b, g, o)
			}
		})
	}
}

// BenchmarkAblationWalkBudget varies the walk budget t (walks per
// vertex), the paper's main cost knob.
func BenchmarkAblationWalkBudget(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	for _, t := range []int{2, 6, 18} {
		b.Run("walks="+itoa(t), func(b *testing.B) {
			var lastP float64
			for i := 0; i < b.N; i++ {
				o := benchOptions(16)
				o.WalksPerVertex = t
				emb := embedBench(b, g, o)
				res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: 30, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				lastP, _, _ = EvaluateCommunities(truth, res.Partition)
			}
			b.ReportMetric(lastP, "precision")
		})
	}
}

// BenchmarkAblationWalkStrategy compares uniform walks (the paper)
// with node2vec's biased second-order walks.
func BenchmarkAblationWalkStrategy(b *testing.B) {
	g, _ := benchGraph(b, 0.5)
	configs := map[string]func(*Options){
		"uniform":  func(o *Options) { o.Strategy = UniformWalk },
		"node2vec": func(o *Options) { o.Strategy = Node2VecWalk; o.ReturnParam = 1; o.InOutParam = 0.5 },
	}
	for name, mod := range configs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(16)
				mod(&o)
				embedBench(b, g, o)
			}
		})
	}
}

// BenchmarkAblationKMeansRestarts varies the restart count against
// the paper's 100.
func BenchmarkAblationKMeansRestarts(b *testing.B) {
	g, truth := benchGraph(b, 0.5)
	emb := embedBench(b, g, benchOptions(10))
	for _, restarts := range []int{1, 10, 100} {
		b.Run("restarts="+itoa(restarts), func(b *testing.B) {
			var lastP float64
			for i := 0; i < b.N; i++ {
				res, err := emb.DetectCommunities(CommunityConfig{K: benchCommunities, Restarts: restarts, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				lastP, _, _ = EvaluateCommunities(truth, res.Partition)
			}
			b.ReportMetric(lastP, "precision")
		})
	}
}

// BenchmarkAblationParallelism measures walk+train throughput with 1
// worker vs all cores (the Hogwild scaling the repro=4 band is
// about).
func BenchmarkAblationParallelism(b *testing.B) {
	g, _ := benchGraph(b, 0.5)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "workers=1"
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(32)
				o.Workers = workers
				embedBench(b, g, o)
			}
		})
	}
}

// ---- Walk corpus (docs/STREAMING.md) ----------------------------------

// streamBench caches a ~1M-edge Barabási–Albert graph (100k vertices,
// m = 10) shared by the walk-stage and pipeline benchmarks; -short
// scales it down.
var streamBench struct {
	once sync.Once
	g    *Graph
}

func streamBenchGraph(b *testing.B) *Graph {
	b.Helper()
	streamBench.once.Do(func() {
		n, m := 100_000, 10
		if testing.Short() {
			n, m = 10_000, 5
		}
		streamBench.g = BarabasiAlbert(n, m, 42)
	})
	return streamBench.g
}

func streamBenchOptions() Options {
	o := DefaultOptions(8)
	o.WalksPerVertex = 1
	o.WalkLength = 40
	o.Epochs = 1
	o.Seed = 42
	return o
}

// BenchmarkWalkStageMaterialized measures materializing the stream on
// the 1M-edge graph (GenerateWalks, what saving walks costs): every
// token is buffered, so B/op grows with the walk budget.
func BenchmarkWalkStageMaterialized(b *testing.B) {
	g := streamBenchGraph(b)
	opts := streamBenchOptions()
	var tokens int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := GenerateWalks(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		tokens = c.NumTokens()
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtokens/s")
}

// BenchmarkWalkStageStreaming drains the identical walks through the
// stream's bounded buffers, sharded over GOMAXPROCS consumers like the
// trainer: B/op is workers x 2 batches x 64 walks x Length, independent
// of the total token count.
func BenchmarkWalkStageStreaming(b *testing.B) {
	g := streamBenchGraph(b)
	opts := streamBenchOptions()
	var tokens int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := StreamWalks(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		workers := runtime.GOMAXPROCS(0)
		numWalks := s.NumWalks()
		counts := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * numWalks / workers
			hi := (w + 1) * numWalks / workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for walk := range s.WalkSeq(lo, hi) {
					counts[w] += int64(len(walk))
				}
			}(w, lo, hi)
		}
		wg.Wait()
		tokens = 0
		for _, c := range counts {
			tokens += c
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtokens/s")
}

// BenchmarkPipeline1MEdges runs the full walk+train pipeline on the
// 1M-edge graph. The corpus is never materialized (the pipeline pays
// one extra walk sweep for the counting pass instead), so peakHeapMB —
// the maximum heap in use, sampled every 10ms during the run — stays
// at the model matrices' floor.
func BenchmarkPipeline1MEdges(b *testing.B) {
	g := streamBenchGraph(b)
	opts := streamBenchOptions()
	runtime.GC()
	stop := make(chan struct{})
	var peak uint64
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		var ms runtime.MemStats
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > peak {
					peak = ms.HeapInuse
				}
			}
		}
	}()
	var emb *Embedding
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		emb, err = Embed(g, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	samplerWg.Wait()
	b.ReportMetric(float64(emb.Tokens)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtokens/s")
	b.ReportMetric(float64(peak)/(1<<20), "peakHeapMB")
}

// ---- helpers ---------------------------------------------------------

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func itoa(i int) string { return strconv.Itoa(i) }
