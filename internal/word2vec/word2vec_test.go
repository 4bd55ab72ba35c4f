package word2vec

import (
	"bytes"
	"math"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/walk"
	"v2v/internal/xrand"
)

// benchCorpus builds a real random-walk corpus over the paper's
// synthetic benchmark, scaled down.
func benchCorpus(t testing.TB, alpha float64, communities, size int) (*walk.Corpus, *graph.Graph, []int) {
	t.Helper()
	g, truth := graph.CommunityBenchmark(graph.CommunityBenchmarkConfig{
		NumCommunities: communities, CommunitySize: size,
		Alpha: alpha, InterEdges: 10 * communities, Seed: 5,
	})
	return benchStream(t, g).Materialize(), g, truth
}

// benchStream is the walk stream benchCorpus materializes.
func benchStream(t testing.TB, g *graph.Graph) *walk.Stream {
	t.Helper()
	s, err := walk.NewStream(g, walk.Config{WalksPerVertex: 8, Length: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrainRejectsBadInput(t *testing.T) {
	c := &walk.Corpus{Tokens: []int32{0, 1, 2}, Offsets: []int{0, 3}}
	if _, _, err := Train(c, 0, DefaultConfig(8)); err == nil {
		t.Error("vocab 0 accepted")
	}
	if _, _, err := Train(&walk.Corpus{Offsets: []int{0}}, 3, DefaultConfig(8)); err == nil {
		t.Error("empty corpus accepted")
	}
	bad := DefaultConfig(0)
	if _, _, err := Train(c, 3, bad); err == nil {
		t.Error("dim 0 accepted")
	}
	badWin := DefaultConfig(8)
	badWin.Window = 0
	if _, _, err := Train(c, 3, badWin); err == nil {
		t.Error("window 0 accepted")
	}
	outOfVocab := &walk.Corpus{Tokens: []int32{0, 7}, Offsets: []int{0, 2}}
	if _, _, err := Train(outOfVocab, 3, DefaultConfig(8)); err == nil {
		t.Error("out-of-vocab token accepted")
	}
}

func TestTrainShapes(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.6, 3, 12)
	cfg := DefaultConfig(16)
	cfg.Seed = 1
	m, stats, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vocab != g.NumVertices() || m.Dim != 16 {
		t.Fatalf("model shape %dx%d", m.Vocab, m.Dim)
	}
	if len(m.Vectors) != m.Vocab*m.Dim {
		t.Fatalf("vector storage %d", len(m.Vectors))
	}
	if stats.Epochs != 1 || stats.TokensTrained == 0 {
		t.Fatalf("stats %+v", stats)
	}
	if len(stats.EpochDurations) != stats.Epochs || stats.EpochDurations[0] <= 0 || stats.EpochDurations[0] > stats.Duration {
		t.Fatalf("epoch durations %v of a %v run", stats.EpochDurations, stats.Duration)
	}
	for _, x := range m.Vectors {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatal("non-finite weight after training")
		}
	}
}

// separatesCommunities trains CBOW with negative sampling at the given
// worker count (0: the default, GOMAXPROCS) and requires
// same-community vertices to end up more similar than
// different-community ones by a clear margin.
func separatesCommunities(t *testing.T, workers int) {
	corpus, g, truth := benchCorpus(t, 0.7, 3, 15)
	t.Run("cbow-ns", func(t *testing.T) {
		cfg := DefaultConfig(24)
		cfg.Epochs = 5
		cfg.Seed = 42
		cfg.Workers = workers
		m, _, err := Train(corpus, g.NumVertices(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		intra, inter := avgSimilarities(m, truth)
		t.Logf("intra=%.3f inter=%.3f", intra, inter)
		if intra <= inter+0.1 {
			t.Fatalf("communities not separated: intra %.3f vs inter %.3f", intra, inter)
		}
	})
}

// The central semantic test: after training on a community graph,
// intra-community cosine similarity must exceed inter-community
// similarity by a clear margin.
func TestEmbeddingSeparatesCommunities(t *testing.T) { separatesCommunities(t, 0) }

// TestHogwildSeparatesCommunities holds the lock-free path, workers
// updating one model at once, to the same margin; without it only the
// repository benchmark's F1 gate sees more than one worker on a
// one-CPU box.
func TestHogwildSeparatesCommunities(t *testing.T) {
	if raceEnabled {
		t.Skip("training runs one worker under the race detector")
	}
	for _, workers := range []int{2, 4} {
		t.Run("workers="+itoa(workers), func(t *testing.T) { separatesCommunities(t, workers) })
	}
}

func avgSimilarities(m *Model, truth []int) (intra, inter float64) {
	var nIntra, nInter int
	n := m.Vocab
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j += 3 { // sample pairs for speed
			s := m.Cosine(i, j)
			if truth[i] == truth[j] {
				intra += s
				nIntra++
			} else {
				inter += s
				nInter++
			}
		}
	}
	return intra / float64(nIntra), inter / float64(nInter)
}

func TestConvergenceStopping(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.9, 3, 12)
	cfg := DefaultConfig(16)
	cfg.Epochs = 50
	cfg.ConvergenceTol = 0.02
	cfg.Seed = 9
	_, stats, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("training never converged in %d epochs (losses %v)", stats.Epochs, stats.EpochLosses)
	}
	if stats.Epochs >= 50 {
		t.Fatal("convergence mode ran the full epoch cap")
	}
	// Losses should be broadly decreasing from first to last.
	first, last := stats.EpochLosses[0], stats.EpochLosses[len(stats.EpochLosses)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v", stats.EpochLosses)
	}
}

func TestLossDecreasesOverEpochs(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.5, 3, 12)
	cfg := DefaultConfig(16)
	cfg.Epochs = 6
	cfg.Seed = 4
	_, stats, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpochLosses) != 6 {
		t.Fatalf("epoch losses %v", stats.EpochLosses)
	}
	if stats.EpochLosses[5] >= stats.EpochLosses[0] {
		t.Fatalf("loss not improving: %v", stats.EpochLosses)
	}
}

func TestSubsampleStillTrains(t *testing.T) {
	corpus, g, truth := benchCorpus(t, 0.8, 3, 15)
	cfg := DefaultConfig(16)
	cfg.Epochs = 5
	cfg.Subsample = 1e-2
	cfg.Seed = 21
	m, stats, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TokensTrained == 0 {
		t.Fatal("subsampling dropped everything")
	}
	if stats.TokensTrained >= int64(corpus.NumTokens())*5 {
		t.Fatal("subsampling dropped nothing")
	}
	intra, inter := avgSimilarities(m, truth)
	if intra <= inter {
		t.Fatalf("subsampled training lost structure: %.3f vs %.3f", intra, inter)
	}
}

func TestDeterministicSingleWorker(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.5, 2, 10)
	cfg := DefaultConfig(8)
	cfg.Workers = 1
	cfg.Seed = 33
	m1, _, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Vectors {
		if m1.Vectors[i] != m2.Vectors[i] {
			t.Fatal("single-worker training is not deterministic")
		}
	}
}

// TestTrainStreamMatchesCorpus: with Workers = 1 a stream and the
// corpus it materializes train exactly the same vectors through Train
// — one a view of stored walks, the other re-derived into reused
// buffers every epoch.
func TestTrainStreamMatchesCorpus(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.6, 3, 12)
	cfg := DefaultConfig(12)
	cfg.Epochs = 2
	cfg.Workers = 1
	cfg.Seed = 21
	cfg.Subsample = 1e-2

	want, wantStats, err := Train(corpus, g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := Train(benchStream(t, g), g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Vectors {
		if got.Vectors[i] != want.Vectors[i] {
			t.Fatalf("vector[%d] = %g, want %g", i, got.Vectors[i], want.Vectors[i])
		}
	}
	if gotStats.TokensTrained != wantStats.TokensTrained {
		t.Fatalf("TokensTrained = %d, want %d", gotStats.TokensTrained, wantStats.TokensTrained)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(float64(s)-0.5) > 0.01 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(10); s != 1 {
		t.Fatalf("sigmoid(10) = %v, want clamp to 1", s)
	}
	if s := sigmoid(-10); s != 0 {
		t.Fatalf("sigmoid(-10) = %v, want clamp to 0", s)
	}
	for _, x := range []float32{-5, -1, -0.1, 0.1, 1, 5} {
		want := 1 / (1 + math.Exp(-float64(x)))
		if got := float64(sigmoid(x)); math.Abs(got-want) > 0.01 {
			t.Errorf("sigmoid(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLogSigmoid(t *testing.T) {
	for _, x := range []float64{-20, -3, -0.5, 0, 0.5, 3, 20} {
		want := math.Log(1 / (1 + math.Exp(-x)))
		if got := logSigmoid(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("logSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestAliasSamplerPower(t *testing.T) {
	// counts 1 and 16 with power 0.75: ratio 16^0.75 = 8.
	s := newAliasSampler([]int{1, 16}, 0.75)
	rng := xrand.New(77)
	c0, c1 := 0, 0
	for i := 0; i < 90000; i++ {
		if s.sample(rng) == 0 {
			c0++
		} else {
			c1++
		}
	}
	ratio := float64(c1) / float64(c0)
	if math.Abs(ratio-8) > 0.8 {
		t.Fatalf("unigram^0.75 ratio = %.2f, want ~8", ratio)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(3, 4)
	for i := range m.Vectors {
		m.Vectors[i] = float32(i) * 0.25
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	m2, tokens, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Vocab != 3 || m2.Dim != 4 {
		t.Fatalf("loaded shape %dx%d", m2.Vocab, m2.Dim)
	}
	if tokens[2] != "2" {
		t.Fatalf("token %q", tokens[2])
	}
	for i := range m.Vectors {
		if math.Abs(float64(m.Vectors[i]-m2.Vectors[i])) > 1e-5 {
			t.Fatalf("vector %d: %v != %v", i, m.Vectors[i], m2.Vectors[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"x y\n",
		"2 3\n0 1 2 3\n", // truncated
		"1 2\n0 1\n",     // wrong field count
		"1 2\n0 a b\n",   // bad float
	}
	for _, in := range cases {
		if _, _, err := Load(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestCosineAndMostSimilar(t *testing.T) {
	m := NewModel(3, 2)
	copy(m.Vector(0), []float32{1, 0})
	copy(m.Vector(1), []float32{0.9, 0.1})
	copy(m.Vector(2), []float32{0, 1})
	if s := m.Cosine(0, 0); math.Abs(s-1) > 1e-9 {
		t.Fatalf("self cosine = %v", s)
	}
	if s := m.Cosine(0, 2); math.Abs(s) > 1e-9 {
		t.Fatalf("orthogonal cosine = %v", s)
	}
	nn := m.MostSimilar(0, 2)
	if len(nn) != 2 || nn[0].Word != 1 {
		t.Fatalf("MostSimilar = %+v", nn)
	}
	// Zero vector: cosine defined as 0.
	z := NewModel(2, 2)
	copy(z.Vector(1), []float32{1, 1})
	if s := z.Cosine(0, 1); s != 0 {
		t.Fatalf("zero-vector cosine = %v", s)
	}
}

func TestNormalize(t *testing.T) {
	m := NewModel(2, 3)
	copy(m.Vector(0), []float32{3, 0, 4})
	m.Normalize()
	var n float64
	for _, x := range m.Vector(0) {
		n += float64(x) * float64(x)
	}
	if math.Abs(n-1) > 1e-5 {
		t.Fatalf("norm^2 after Normalize = %v", n)
	}
	// Zero vector untouched.
	for _, x := range m.Vector(1) {
		if x != 0 {
			t.Fatal("zero vector modified")
		}
	}
}

func TestRowsMatchesVectors(t *testing.T) {
	m := NewModel(4, 3)
	for i := range m.Vectors {
		m.Vectors[i] = float32(i)
	}
	rows := m.Rows()
	for v := 0; v < 4; v++ {
		for j := 0; j < 3; j++ {
			if rows[v][j] != float64(m.Vector(v)[j]) {
				t.Fatalf("Rows[%d][%d] mismatch", v, j)
			}
		}
	}
}

// TestNLLTable: the tabulated -log σ the trainer reports its loss from
// stays within one bin's worth of the exact value (|d/dx log σ| <= 1,
// so one bin width), and is exact at and beyond the clamps.
func TestNLLTable(t *testing.T) {
	const binWidth = 1.0 / binsPerUnit
	for x := -(maxExp + 1.0); x <= maxExp+1; x += binWidth / 7 {
		got := float64(nll(float32(x)))
		want := -logSigmoid(float64(float32(x)))
		if math.Abs(got-want) > binWidth {
			t.Fatalf("nll(%v) = %v, exact %v: off by more than a bin (%v)", x, got, want, binWidth)
		}
	}
	for _, x := range []float32{maxExp, maxExp + 0.5, 100} {
		if got := nll(x); got != 0 {
			t.Errorf("nll(%v) = %v, want 0 at the upper clamp", x, got)
		}
		if got := nll(-x); got != x {
			t.Errorf("nll(%v) = %v, want %v at the lower clamp", -x, got, x)
		}
	}
}
