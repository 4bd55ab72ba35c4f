package word2vec

import (
	"runtime"
	"sync"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/walk"
)

func benchTrainCorpus(b *testing.B) (*walk.Corpus, int) {
	b.Helper()
	g, _ := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 10, CommunitySize: 50, Alpha: 0.5, InterEdges: 100, Seed: 1,
	})
	s, err := walk.NewStream(g, walk.Config{WalksPerVertex: 4, Length: 60, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return s.Materialize(), g.NumVertices()
}

func benchTrain(b *testing.B, cfg Config) {
	b.Helper()
	corpus, vocab := benchTrainCorpus(b)
	b.SetBytes(int64(corpus.NumTokens()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(corpus, vocab, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainCBOWNegSampling is the paper's configuration
// (throughput reported as corpus bytes ~ tokens per op).
func BenchmarkTrainCBOWNegSampling(b *testing.B) {
	cfg := DefaultConfig(50)
	cfg.Seed = 3
	benchTrain(b, cfg)
}

// BenchmarkTrainDim compares costs across dimensionalities.
func BenchmarkTrainDim(b *testing.B) {
	for _, dim := range []int{10, 100, 600} {
		b.Run(itoa(dim), func(b *testing.B) {
			cfg := DefaultConfig(dim)
			cfg.Seed = 3
			benchTrain(b, cfg)
		})
	}
}

// benchScaling measures how cfg's training scales over the workers of
// one model, as three sub-benchmarks that each report Mtok/s
// (token-epochs over the trainer's own clock, the figure the repository
// benchmark calls word2vec.mtok_per_s):
//
//	workers=1    one worker
//	workers=all  GOMAXPROCS Hogwild workers on one shared model
//	ceiling      GOMAXPROCS one-worker trainers side by side, each on a
//	             model of its own: what the cores give when nothing is
//	             shared, so the gap to workers=all is the cost of sharing
//
// The last two also report scaling, their Mtok/s over workers=1's (so
// run all three: -bench Name, not -bench Name/workers=all).
func benchScaling(b *testing.B, corpus Corpus, vocab int, cfg Config) {
	tokenEpochs := float64(corpus.NumTokens()) * float64(cfg.Epochs)
	// train runs one trainer with the given worker count and returns
	// its Mtok/s.
	train := func(b *testing.B, workers int) float64 {
		cfg := cfg
		cfg.Workers = workers
		_, stats, err := Train(corpus, vocab, cfg)
		if err != nil {
			b.Error(err)
			return 0
		}
		return tokenEpochs / stats.Duration.Seconds() / 1e6
	}
	// sub runs b.N rounds as sub-benchmark name and reports the mean of
	// their Mtok/s, and that mean over workers=1's as scaling.
	var one float64
	sub := func(name string, round func(b *testing.B) float64) {
		b.Run(name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += round(b)
			}
			mtoks := sum / float64(b.N)
			b.ReportMetric(mtoks, "Mtok/s")
			if name == "workers=1" {
				one = mtoks
			} else if one > 0 {
				b.ReportMetric(mtoks/one, "scaling")
			}
		})
	}
	sub("workers=1", func(b *testing.B) float64 { return train(b, 1) })
	sub("workers=all", func(b *testing.B) float64 { return train(b, 0) })
	sub("ceiling", func(b *testing.B) float64 {
		each := make([]float64, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := range each {
			wg.Add(1)
			go func() {
				defer wg.Done()
				each[i] = train(b, 1)
			}()
		}
		wg.Wait()
		var sum float64
		for _, mtoks := range each {
			sum += mtoks
		}
		return sum
	})
}

// BenchmarkTrainHogwild is the scaling of the paper's configuration at
// dim 100 on the 500-vertex corpus, where every row of the model fits
// in both cores' caches and only ownership moves.
func BenchmarkTrainHogwild(b *testing.B) {
	corpus, vocab := benchTrainCorpus(b)
	cfg := DefaultConfig(100)
	cfg.Seed = 3
	benchScaling(b, corpus, vocab, cfg)
}

// BenchmarkTrainPipelineShape trains on the corpus of the repository
// benchmark's `pipeline` workload (10 communities of 100, alpha 0.1,
// 200 inter-community edges; 5 walks of 80 per vertex; dim 50, 3
// epochs, the CLI's CBOW + negative sampling), so the layer and its
// scaling can be measured and profiled without the harness.
func BenchmarkTrainPipelineShape(b *testing.B) {
	g, _ := graph.CommunityBenchmark(graph.DefaultCommunityBenchmark(0.1, 1))
	s, err := walk.NewStream(g, walk.Config{WalksPerVertex: 5, Length: 80, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(50)
	cfg.Epochs = 3
	cfg.Seed = 1
	benchScaling(b, s.Materialize(), g.NumVertices(), cfg)
}

// BenchmarkSigmoidLUT measures the lookup-table sigmoid.
func BenchmarkSigmoidLUT(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += sigmoid(float32(i%12) - 6)
	}
	_ = sink
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
