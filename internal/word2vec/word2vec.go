// Package word2vec implements the CBOW embedding model of Mikolov et
// al. with negative sampling from scratch, specialised to the V2V
// setting where the vocabulary is the vertex set of a graph and
// sentences are random walks. CBOW with negative sampling is what the
// paper trains, and the only model here. Training follows the
// reference C implementation: shared parameter matrices updated
// Hogwild-style by a pool of goroutines without locking (lock-free
// asynchronous SGD, the parallelisation the paper relies on for
// speed), a linearly decaying learning rate, reduced-window context
// sampling, optional frequent-token subsampling, and a sigmoid lookup
// table. The float32 work of
// the inner loop is three level-1 kernels (Dot, Add, Grad) of package
// f32, with an SSE2 assembly and a portable implementation that return
// the same bits, plus one cache hint (f32.HintWrite) that computes
// nothing.
//
// What limits Hogwild on a small model is ownership of cache lines, not
// arithmetic: every target updates six rows of the output matrix that
// another worker wrote last about half the time. So the output layer
// first works out all the rows it is about to update (drawing its
// negatives ahead of its steps, in the same order it always drew them)
// and hints each one for writing, and the transfers overlap the draws
// and the earlier steps; and each worker's own state (random stream,
// scratch vectors) sits on cache lines nothing else shares. Neither
// changes a result: a one-worker model has the bits it had without
// them (TestTrainGoldenDigests).
//
// In addition to fixed-epoch training, the trainer supports
// convergence-based stopping (stop when the relative improvement of
// the epoch loss falls below a tolerance). This mode reproduces the
// paper's Figure 7, where training time *decreases* as community
// structure strengthens because SGD reaches a stationary loss sooner.
package word2vec

import (
	"fmt"
	"iter"
	"math"
)

// Corpus is the training input: a set of vertex sequences, read one
// walk at a time. It is satisfied by *walk.Stream, which re-derives
// its walks on every read, and by *walk.Corpus, which stores them.
//
// NumTokens must be the exact total token count (it drives the
// learning-rate decay budget), Counts must be the exact per-token
// occurrence counts (they build the negative-sampling distribution) and WalkSeq(lo, hi) must yield walks lo..hi-1 in
// order, producing identical token sequences every time it is
// re-opened — the trainer opens one shard per worker per epoch.
// Yielded slices are only read between iteration steps, so
// implementations may reuse buffers.
type Corpus interface {
	NumWalks() int
	NumTokens() int
	Counts(vocab int) ([]int, error)
	WalkSeq(lo, hi int) iter.Seq[[]int32]
}

// Config holds the training hyper-parameters.
type Config struct {
	Dim    int // embedding dimensionality (paper: 10–1000)
	Window int // context radius n (paper default: 5)

	NegativeSamples int     // k for negative sampling (default 5)
	LearningRate    float64 // initial alpha (default 0.05)
	MinLearningRate float64 // floor for the linear decay (default alpha*1e-4)
	Epochs          int     // passes over the corpus (default 1)

	// ConvergenceTol, when positive, switches to convergence-based
	// stopping: training runs epoch by epoch (up to Epochs, treated
	// as a cap) until the relative improvement in mean epoch loss
	// drops below the tolerance.
	ConvergenceTol float64

	// Subsample, when positive, randomly discards frequent vertices
	// with the word2vec subsampling formula and threshold Subsample
	// (typical: 1e-3). Zero disables subsampling.
	Subsample float64

	Workers int    // 0 = GOMAXPROCS
	Seed    uint64 //
}

// DefaultConfig returns sensible defaults matching the paper (CBOW,
// window 5) and the word2vec reference implementation.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:             dim,
		Window:          5,
		NegativeSamples: 5,
		LearningRate:    0.05,
		Epochs:          1,
	}
}

// validate fills defaults and rejects nonsense.
func (c *Config) validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("word2vec: Dim must be positive, got %d", c.Dim)
	}
	if c.Window <= 0 {
		return fmt.Errorf("word2vec: Window must be positive, got %d", c.Window)
	}
	if c.NegativeSamples <= 0 {
		c.NegativeSamples = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.MinLearningRate <= 0 {
		c.MinLearningRate = c.LearningRate * 1e-4
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.ConvergenceTol < 0 {
		return fmt.Errorf("word2vec: negative ConvergenceTol %v", c.ConvergenceTol)
	}
	if c.Subsample < 0 {
		return fmt.Errorf("word2vec: negative Subsample %v", c.Subsample)
	}
	return nil
}

// Sigmoid lookup table, mirroring the word2vec reference code
// (EXP_TABLE_SIZE = 1000, MAX_EXP = 6), including its integer
// division: x falls in bin int((x+6)*83), not (x+6)*83.33, so the
// table is read at a point up to 0.4% nearer -6 than x and its last
// three entries are never used. That is part of the update rule and
// stays.
const (
	expTableSize = 1000
	maxExp       = 6
	binsPerUnit  = expTableSize / (2 * maxExp)
)

// expTable[i] is σ((2i/expTableSize - 1) * maxExp), as in the
// reference. nllTable[i] is -log σ at the lower edge of the x that
// tableBin sends to i.
var expTable, nllTable = buildTables()

func buildTables() (sig, nll []float32) {
	sig = make([]float32, expTableSize)
	nll = make([]float32, expTableSize)
	for i := range sig {
		e := math.Exp((float64(i)/expTableSize*2 - 1) * maxExp)
		sig[i] = float32(e / (e + 1))
		nll[i] = float32(-logSigmoid(float64(i)/binsPerUnit - maxExp))
	}
	return sig, nll
}

// tableBin returns the bin of x, which must lie in (-maxExp, maxExp).
func tableBin(x float32) int {
	return int((x + maxExp) * binsPerUnit)
}

// sigmoid returns 1/(1+e^-x), clamped through the lookup table.
func sigmoid(x float32) float32 {
	if x >= maxExp {
		return 1
	}
	if x <= -maxExp {
		return 0
	}
	return expTable[tableBin(x)]
}

// nll returns -log σ(x), the loss of one training target, from the
// table: the reported epoch loss costs the hot loop one load per
// target. Beyond the table it is the asymptote on either side: 0
// above maxExp, -x below -maxExp.
func nll(x float32) float32 {
	if x >= maxExp {
		return 0
	}
	if x <= -maxExp {
		return -x
	}
	return nllTable[tableBin(x)]
}

// logSigmoid returns log(sigmoid(x)) computed exactly. Training does
// not call it: it builds nllTable, and tests measure the table
// against it.
func logSigmoid(x float64) float64 {
	// Stable: log σ(x) = -log(1+e^{-x}) = min(x,0) - log1p(e^{-|x|})
	if x < 0 {
		return x - math.Log1p(math.Exp(x))
	}
	return -math.Log1p(math.Exp(-x))
}
