package word2vec

import (
	"testing"
	"time"

	"v2v/internal/graph"
	"v2v/internal/walk"
)

func benchTrainCorpus(b *testing.B) (*walk.Corpus, int) {
	b.Helper()
	g, _ := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: 10, CommunitySize: 50, Alpha: 0.5, InterEdges: 100, Seed: 1,
	})
	gen, err := walk.NewGenerator(g, walk.Config{WalksPerVertex: 4, Length: 60, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return gen.Generate(), g.NumVertices()
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

// BenchmarkTrainCBOWHierSoftmax swaps the output layer.
func BenchmarkTrainCBOWHierSoftmax(b *testing.B) {
	cfg := DefaultConfig(50)
	cfg.Sampler = HierarchicalSoftmax
	cfg.Seed = 3
	benchTrain(b, cfg)
}

// BenchmarkTrainSkipGramNegSampling is the DeepWalk configuration.
func BenchmarkTrainSkipGramNegSampling(b *testing.B) {
	cfg := DefaultConfig(50)
	cfg.Objective = SkipGram
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

// BenchmarkTrainHogwild compares 1 worker with all cores.
func BenchmarkTrainHogwild(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(100)
			cfg.Workers = workers
			cfg.Seed = 3
			benchTrain(b, cfg)
		})
	}
}

// BenchmarkTrainPipelineShape trains on the corpus of the repository
// benchmark's `pipeline` workload (10 communities of 100, alpha 0.1,
// 200 inter-community edges; 5 walks of 80 per vertex; dim 50, 3
// epochs, the CLI's CBOW + negative sampling) and reports the figure
// that benchmark calls word2vec.mtok_per_s, so the layer can be
// measured and profiled without the harness.
func BenchmarkTrainPipelineShape(b *testing.B) {
	g, _ := graph.CommunityBenchmark(graph.DefaultCommunityBenchmark(0.1, 1))
	gen, err := walk.NewGenerator(g, walk.Config{WalksPerVertex: 5, Length: 80, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	corpus := gen.Generate()
	cfg := DefaultConfig(50)
	cfg.Epochs = 3
	cfg.Seed = 1
	var trained time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := Train(corpus, g.NumVertices(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		trained += stats.Duration
	}
	b.ReportMetric(float64(corpus.NumTokens())*float64(cfg.Epochs)*float64(b.N)/trained.Seconds()/1e6, "Mtok/s")
}

// BenchmarkHuffmanBuild measures tree construction over a Zipfian
// vocabulary.
func BenchmarkHuffmanBuild(b *testing.B) {
	counts := make([]int, 10000)
	for i := range counts {
		counts[i] = 1 + 100000/(i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildHuffman(counts)
	}
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
