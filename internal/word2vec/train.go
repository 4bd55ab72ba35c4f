package word2vec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"v2v/internal/f32"
	"v2v/internal/vecstore"
	"v2v/internal/xrand"
)

// Stats reports what happened during training.
type Stats struct {
	Epochs         int             // epochs actually run
	Workers        int             // Hogwild goroutines per epoch (1 under the race detector)
	TokensTrained  int64           // centre-token updates performed
	EpochLosses    []float64       // mean per-sample loss of each epoch
	EpochDurations []time.Duration // wall-clock time of each epoch
	FinalLoss      float64         // last entry of EpochLosses
	Converged      bool            // true when convergence stopping fired
	Duration       time.Duration   // wall-clock training time
}

// Train learns embeddings for a vocabulary of vocab vertices from the
// given corpus with CBOW and negative sampling. See Config for the
// hyper-parameters; the paper's V2V uses window 5. Each worker reads
// its shard of walks through corpus.WalkSeq, so a streamed corpus is
// never held in memory.
func Train(corpus Corpus, vocab int, cfg Config) (*Model, *Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if vocab <= 0 {
		return nil, nil, fmt.Errorf("word2vec: vocab must be positive, got %d", vocab)
	}
	if corpus.NumWalks() == 0 || corpus.NumTokens() == 0 {
		return nil, nil, fmt.Errorf("word2vec: empty corpus")
	}

	tr, err := newTrainer(corpus, vocab, cfg)
	if err != nil {
		return nil, nil, err
	}
	return tr.run()
}

type trainer struct {
	corpus Corpus
	vocab  int
	cfg    Config

	counts      []int
	totalTokens int64

	syn0 []float32 // input vectors (the embeddings), vocab x dim
	syn1 []float32 // output vectors, vocab x dim

	unigram *aliasSampler // negative sampling distribution (counts^0.75)

	processed atomic.Int64 // tokens consumed so far (drives LR decay)
	budget    int64        // tokens expected over all (cap) epochs
}

func newTrainer(corpus Corpus, vocab int, cfg Config) (*trainer, error) {
	tr := &trainer{corpus: corpus, vocab: vocab, cfg: cfg}

	counts, err := corpus.Counts(vocab)
	if err != nil {
		return nil, err
	}
	tr.counts = counts
	tr.totalTokens = int64(corpus.NumTokens())
	tr.budget = tr.totalTokens * int64(cfg.Epochs)

	dim := cfg.Dim
	// Aligned weight matrices: syn0 becomes the model's vector store
	// after training, syn1 just shares the hot-loop cache behavior.
	tr.syn0 = vecstore.AlignedSlice(vocab * dim)
	rng := xrand.New(cfg.Seed ^ 0x5eedf00d)
	for i := range tr.syn0 {
		tr.syn0[i] = (rng.Float32() - 0.5) / float32(dim)
	}
	tr.syn1 = vecstore.AlignedSlice(vocab * dim)
	tr.unigram = newAliasSampler(tr.counts, 0.75)
	return tr, nil
}

func (tr *trainer) run() (*Model, *Stats, error) {
	start := time.Now()
	stats := &Stats{Workers: tr.workers()}
	prevLoss := math.Inf(1)
	for epoch := 0; epoch < tr.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		loss, samples := tr.runEpoch(epoch, stats.Workers)
		stats.EpochDurations = append(stats.EpochDurations, time.Since(epochStart))
		meanLoss := 0.0
		if samples > 0 {
			meanLoss = loss / float64(samples)
		}
		stats.EpochLosses = append(stats.EpochLosses, meanLoss)
		stats.Epochs = epoch + 1
		if tr.cfg.ConvergenceTol > 0 && epoch > 0 {
			if prevLoss-meanLoss < tr.cfg.ConvergenceTol*math.Abs(prevLoss) {
				stats.Converged = true
				prevLoss = meanLoss
				break
			}
		}
		prevLoss = meanLoss
	}
	stats.FinalLoss = prevLoss
	if len(stats.EpochLosses) > 0 {
		stats.FinalLoss = stats.EpochLosses[len(stats.EpochLosses)-1]
	}
	stats.TokensTrained = tr.processed.Load()
	stats.Duration = time.Since(start)

	m := &Model{Dim: tr.cfg.Dim, Vocab: tr.vocab, Vectors: tr.syn0}
	return m, stats, nil
}

// workers returns how many goroutines share an epoch: cfg.Workers,
// GOMAXPROCS by default, at most one per walk.
func (tr *trainer) workers() int {
	workers := tr.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if raceEnabled {
		workers = 1 // Hogwild updates are intentional races; see race_off.go
	}
	return min(workers, tr.corpus.NumWalks())
}

// runEpoch processes every walk once, sharded over workers goroutines,
// and returns the summed loss and sample count.
func (tr *trainer) runEpoch(epoch, workers int) (float64, int64) {
	numWalks := tr.corpus.NumWalks()
	losses := make([]float64, workers)
	samples := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * numWalks / workers
		hi := (w + 1) * numWalks / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			losses[w], samples[w] = tr.work(epoch, w, workers, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()

	var loss float64
	var n int64
	for w := 0; w < workers; w++ {
		loss += losses[w]
		n += samples[w]
	}
	return loss, n
}

// worker is one Hogwild goroutine's state for one epoch shard: what
// the per-target code reads of the trainer, copied out once so the
// inner loops load it from one place, plus the goroutine's own random
// stream, learning rate and scratch vectors.
type worker struct {
	dim        int
	syn0, syn1 []float32
	negatives  int           // negatives drawn from unigram per centre
	unigram    *aliasSampler // the negatives' distribution
	shared     bool          // other workers are updating syn1 this epoch
	rng        xrand.RNG
	alpha      float32
	neu1       []float32 // CBOW hidden activation
	neu1e      []float32 // accumulated gradient for the input rows
	negs       []int     // the negatives of the target in hand
}

// private returns n zeroed elements that share no cache line with any
// other allocation: there is a line of padding either side of them,
// wherever the allocator puts the block. A worker and its scratch come
// from here. The allocator packs small objects of one size together,
// and two workers' random states or negative lists in one line (32 and
// 40 bytes, written a dozen times per target) cost Hogwild what the
// shared model costs it.
func private[T any](n int) []T {
	const cacheLine = 64
	var elem T
	size := int(unsafe.Sizeof(elem))
	pad := (cacheLine + size - 1) / size
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
}

// work trains on walks [lo, hi), consumed through the corpus walk
// iterator. It is the hot loop; shared syn0/syn1
// are updated without synchronisation (Hogwild). All its float32
// arithmetic over rows goes through the f32 kernels.
func (tr *trainer) work(epoch, shard, shards, lo, hi int) (loss float64, samples int64) {
	cfg := tr.cfg
	window := cfg.Window
	w := &private[worker](1)[0]
	*w = worker{
		dim:       cfg.Dim,
		syn0:      tr.syn0,
		syn1:      tr.syn1,
		negatives: cfg.NegativeSamples,
		unigram:   tr.unigram,
		shared:    shards > 1,
		alpha:     tr.currentAlpha(),
		neu1:      private[float32](cfg.Dim),
		neu1e:     private[float32](cfg.Dim),
		negs:      private[int](cfg.NegativeSamples)[:0],
	}
	w.rng.SeedStream(cfg.Seed, uint64(epoch)*uint64(shards+1)+uint64(shard)+1)
	var kept []int32 // subsampled sentence buffer
	var sinceAlpha int64

	for sen := range tr.corpus.WalkSeq(lo, hi) {
		if cfg.Subsample > 0 {
			kept = kept[:0]
			for _, tok := range sen {
				if tr.keepToken(int(tok), &w.rng) {
					kept = append(kept, tok)
				}
			}
			sen = kept
		}

		for pos := range sen {
			// Reduced window, as in the reference implementation:
			// the effective radius is uniform in [1, Window].
			b := w.rng.Intn(window)
			first := max(pos-window+b, 0)
			last := min(pos+window-b, len(sen)-1)
			loss += w.cbow(sen, pos, first, last)
			samples++
			sinceAlpha++
			if sinceAlpha >= 10000 {
				tr.processed.Add(sinceAlpha)
				sinceAlpha = 0
				w.alpha = tr.currentAlpha()
			}
		}
	}
	tr.processed.Add(sinceAlpha)
	return loss, samples
}

// currentAlpha returns the linearly decayed learning rate.
func (tr *trainer) currentAlpha() float32 {
	frac := float64(tr.processed.Load()) / float64(tr.budget+1)
	a := tr.cfg.LearningRate * (1 - frac)
	if a < tr.cfg.MinLearningRate {
		a = tr.cfg.MinLearningRate
	}
	return float32(a)
}

// keepToken applies word2vec subsampling: frequent vertices are
// randomly dropped with probability depending on their corpus share.
func (tr *trainer) keepToken(tok int, rng *xrand.RNG) bool {
	cn := float64(tr.counts[tok])
	if cn == 0 {
		return true
	}
	st := tr.cfg.Subsample * float64(tr.totalTokens)
	ran := (math.Sqrt(cn/st) + 1) * st / cn
	return ran >= rng.Float64()
}

// cbow performs one CBOW step for the centre sen[pos] with context
// sen[first..last] excluding pos, returning the sample's loss.
func (w *worker) cbow(sen []int32, pos, first, last int) float64 {
	dim, syn0, neu1 := w.dim, w.syn0, w.neu1
	cw := 0
	for p := first; p <= last; p++ {
		if p == pos {
			continue
		}
		c := int(sen[p])
		v := syn0[c*dim : c*dim+dim]
		if cw == 0 {
			copy(neu1, v)
		} else {
			f32.Add(neu1, v)
		}
		cw++
	}
	if cw == 0 {
		return 0
	}
	// The mean of the context rows; once per centre, where the kernels
	// run once per context row and per target.
	inv := 1 / float32(cw)
	for i := range neu1 {
		neu1[i] *= inv
	}

	clear(w.neu1e)
	loss := w.output(int(sen[pos]), neu1)

	for p := first; p <= last; p++ {
		if p == pos {
			continue
		}
		c := int(sen[p])
		f32.Add(syn0[c*dim:c*dim+dim], w.neu1e)
	}
	return loss
}

// output applies the negative-sampling update for centre vertex
// centre with hidden activation h, accumulating the input gradient
// into neu1e, and returns the loss.
//
// Every row of syn1 it is going to update is known before the first
// update: centre and the negatives, which are drawn here ahead of the
// steps (the same draws in the same order as drawing each beside its
// step, so a one-worker model keeps its bits). Each row is hinted as
// soon as it is known. Under Hogwild another core wrote a row last
// about as often as not, and the hint lets that line's transfer, and
// the ownership the update needs, overlap the draws and the steps on
// earlier rows instead of stalling the Dot and then the Grad's first
// store.
func (w *worker) output(centre int, h []float32) float64 {
	w.hint(centre)
	negs := w.negs[:0]
	for d := 0; d < w.negatives; d++ {
		if neg := w.unigram.sample(&w.rng); neg != centre {
			w.hint(neg)
			negs = append(negs, neg)
		}
	}
	loss := float64(w.target(centre, 1, h))
	for _, neg := range negs {
		loss += float64(w.target(neg, 0, h))
	}
	return loss
}

// hint announces the coming update of a row of syn1. An epoch's only
// worker owns every row already, and says nothing.
func (w *worker) hint(row int) {
	if w.shared {
		f32.HintWrite(w.syn1[row*w.dim : row*w.dim+w.dim])
	}
}

// target is the SGD step on one row of syn1 with label 1 or 0: the
// row moves along h by (label - σ(h·row)) * alpha, neu1e collects the
// matching move for the inputs, and the step's loss -log σ(±h·row) is
// returned.
func (w *worker) target(row int, label float32, h []float32) float32 {
	out := w.syn1[row*w.dim : row*w.dim+w.dim]
	f := f32.Dot(h, out)
	f32.Grad((label-sigmoid(f))*w.alpha, h, out, w.neu1e)
	if label == 1 {
		return nll(f)
	}
	return nll(-f)
}

// aliasSampler draws vertices from the counts^power distribution in
// O(1), replacing the reference implementation's 100M-entry table.
type aliasSampler struct {
	prob  []float64
	alias []int
}

func newAliasSampler(counts []int, power float64) *aliasSampler {
	n := len(counts)
	weights := make([]float64, n)
	var total float64
	for i, c := range counts {
		if c <= 0 {
			c = 1 // smooth so every vertex can be a negative
		}
		weights[i] = math.Pow(float64(c), power)
		total += weights[i]
	}
	s := &aliasSampler{prob: make([]float64, n), alias: make([]int, n)}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		sm := small[len(small)-1]
		small = small[:len(small)-1]
		lg := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[sm] = scaled[sm]
		s.alias[sm] = lg
		scaled[lg] -= 1 - scaled[sm]
		if scaled[lg] < 1 {
			small = append(small, lg)
		} else {
			large = append(large, lg)
		}
	}
	for _, i := range large {
		s.prob[i], s.alias[i] = 1, i
	}
	for _, i := range small {
		s.prob[i], s.alias[i] = 1, i
	}
	return s
}

func (s *aliasSampler) sample(rng *xrand.RNG) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
