// Package core wires the substrates into the paper's V2V pipeline:
// constrained random walks over a graph feed a CBOW
// model whose hidden-layer weights become the vertex embeddings
// (Figure 1 of the paper). It also hosts the embedding-space
// application drivers: community detection by k-means (Section III),
// PCA projection for visualization (Section IV) and k-NN feature
// prediction (Section V).
package core

import (
	"fmt"
	"sync"
	"time"

	"v2v/internal/cluster"
	"v2v/internal/graph"
	"v2v/internal/knn"
	"v2v/internal/linalg"
	"v2v/internal/metrics"
	"v2v/internal/vecstore"
	"v2v/internal/walk"
	"v2v/internal/word2vec"
)

// Config couples the two stages of the pipeline.
type Config struct {
	Walk  walk.Config
	Model word2vec.Config

	// Index selects the similarity index the embedding's query paths
	// (Neighbors, missing-label prediction) are served by. The zero
	// value is the exact index; Kind = vecstore.KindHNSW trades exact
	// results for sublinear graph search. The metric is always cosine,
	// the paper's similarity. See docs/VECTORS.md.
	Index vecstore.Config
}

// DefaultConfig returns a configuration matching the paper's defaults
// (t = l = 1000, CBOW, window 5) at the given dimensionality. The
// walk budget is usually scaled down for experiments; see
// docs/EXPERIMENTS.md.
func DefaultConfig(dim int) Config {
	return Config{
		Walk:  walk.DefaultConfig(),
		Model: word2vec.DefaultConfig(dim),
	}
}

// Embedding is a trained V2V model bound to its graph.
type Embedding struct {
	Graph *graph.Graph
	Model *word2vec.Model
	Stats *word2vec.Stats

	// WalkTime is the wall clock of Embed's counting pass, one sweep
	// over the walks; the walks are re-derived inside every epoch, so
	// their generation lands in TrainTime too.
	WalkTime  time.Duration
	TrainTime time.Duration // CBOW training wall clock
	Tokens    int           // corpus size in vertex occurrences

	// IndexCfg is the query-path index configuration this embedding
	// was trained under (from Config.Index); VectorIndex builds and
	// caches it.
	IndexCfg vecstore.Config
	idxMu    sync.Mutex
	vecIdx   vecstore.Index
}

// VectorIndex returns the embedding's similarity index, building it
// on first call from IndexCfg over the model's vector store (cosine
// metric). The index is cached and safe to build under concurrent
// queries; after mutating the model's vectors, call
// Embedding.InvalidateIndex to force a rebuild.
func (e *Embedding) VectorIndex() (vecstore.Index, error) {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	if e.vecIdx == nil {
		cfg := e.IndexCfg
		cfg.Metric = vecstore.Cosine
		idx, err := vecstore.Open(e.Model.Store(), cfg)
		if err != nil {
			return nil, err
		}
		e.vecIdx = idx
	}
	return e.vecIdx, nil
}

// InvalidateIndex drops the cached similarity index (and the model's
// own store/norm caches) after the embedding vectors were mutated —
// an HNSW index would otherwise keep serving a graph linked over the
// old geometry. Like the mutation itself, it must not run
// concurrently with queries.
func (e *Embedding) InvalidateIndex() {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	e.vecIdx = nil
	e.Model.InvalidateIndex()
}

// Neighbors returns the k vertices most cosine-similar to v through
// the configured index — exact by default, approximate when the
// embedding was configured with an HNSW index.
func (e *Embedding) Neighbors(v, k int) ([]word2vec.Neighbor, error) {
	idx, err := e.VectorIndex()
	if err != nil {
		return nil, err
	}
	return word2vec.NeighborsIndex(idx, v, k), nil
}

// modelConfig applies the cross-stage seed default shared by every
// pipeline variant: the trainer is seeded differently from the walker
// so the two stages draw independent streams even with identical user
// seeds.
func (cfg Config) modelConfig() word2vec.Config {
	mcfg := cfg.Model
	if mcfg.Seed == 0 {
		mcfg.Seed = cfg.Walk.Seed + 0x1000
	}
	return mcfg
}

// Embed runs the full V2V pipeline on g: it streams the walks of
// cfg.Walk, runs the counting pass the trainer needs (exact token
// count and per-vertex counts), then trains on the stream, each epoch
// re-deriving the walks into bounded buffers. Corpus memory is
// workers x a few batches of walks, whatever the walk budget.
func Embed(g *graph.Graph, cfg Config) (*Embedding, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	stream, err := walk.NewStream(g, cfg.Walk)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tokens := stream.NumTokens() // runs the counting pass
	walkTime := time.Since(start)
	if tokens == 0 {
		return nil, fmt.Errorf("core: walk generation produced an empty corpus")
	}
	emb, err := EmbedCorpus(g, stream, cfg)
	if err != nil {
		return nil, err
	}
	emb.WalkTime = walkTime
	return emb, nil
}

// GenerateCorpus runs only the walk phase, returning the materialized
// corpus and its generation time, for callers that save walks or need
// random access.
func GenerateCorpus(g *graph.Graph, cfg walk.Config) (*walk.Corpus, time.Duration, error) {
	if g.NumVertices() == 0 {
		return nil, 0, fmt.Errorf("core: empty graph")
	}
	stream, err := walk.NewStream(g, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	corpus := stream.Materialize()
	walkTime := time.Since(start)
	if corpus.NumTokens() == 0 {
		return nil, 0, fmt.Errorf("core: walk generation produced an empty corpus")
	}
	return corpus, walkTime, nil
}

// EmbedCorpus trains an embedding on pre-built walks — a *walk.Stream
// or a *walk.Corpus. The paper's Figure 9 experiment trains models of
// many dimensionalities "in the same set of random walk paths": pass
// the same walks to EmbedCorpus per model. Only cfg.Model is consulted
// (plus cfg.Walk.Seed for default seeding).
func EmbedCorpus(g *graph.Graph, corpus word2vec.Corpus, cfg Config) (*Embedding, error) {
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	model, stats, err := word2vec.Train(corpus, g.NumVertices(), cfg.modelConfig())
	if err != nil {
		return nil, err
	}
	return &Embedding{
		Graph:     g,
		Model:     model,
		Stats:     stats,
		TrainTime: stats.Duration,
		Tokens:    corpus.NumTokens(),
		IndexCfg:  cfg.Index,
	}, nil
}

// CommunityConfig controls DetectCommunities.
type CommunityConfig struct {
	K        int // number of communities
	Restarts int // k-means restarts (paper: 100)
	Seed     uint64
	Workers  int
}

// CommunityResult is the outcome of embedding-space community
// detection.
type CommunityResult struct {
	Partition   []int
	SSE         float64
	ClusterTime time.Duration
}

// DetectCommunities clusters the embedding with multi-restart
// k-means++ and returns the induced vertex partition — the paper's
// V2V community detection (Section III).
func (e *Embedding) DetectCommunities(cfg CommunityConfig) (*CommunityResult, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("core: community detection needs K > 0")
	}
	kcfg := cluster.DefaultConfig(cfg.K)
	if cfg.Restarts > 0 {
		kcfg.Restarts = cfg.Restarts
	}
	kcfg.Seed = cfg.Seed
	kcfg.Workers = cfg.Workers
	start := time.Now()
	res, err := cluster.KMeans(e.Model.Rows(), kcfg)
	if err != nil {
		return nil, err
	}
	return &CommunityResult{
		Partition:   res.Assignments,
		SSE:         res.SSE,
		ClusterTime: time.Since(start),
	}, nil
}

// EvaluateCommunities returns the paper's pairwise precision and
// recall of a detected partition against ground truth.
func EvaluateCommunities(truth, pred []int) (precision, recall float64, err error) {
	return metrics.PairwisePrecisionRecall(truth, pred)
}

// ProjectPCA fits a k-component PCA to the embedding and returns the
// projected coordinates of every vertex (n x k), the paper's
// visualization pathway (Section IV).
func (e *Embedding) ProjectPCA(k int, seed uint64) ([][]float64, *linalg.PCA, error) {
	rows := e.Model.Rows()
	p, err := linalg.FitPCA(rows, k, seed)
	if err != nil {
		return nil, nil, err
	}
	return p.TransformAll(rows), p, nil
}

// CrossValidateLabels runs the paper's feature-prediction protocol
// (Section V): folds-fold cross-validated k-NN classification of
// vertex labels in the embedding space under cosine distance,
// returning the mean accuracy. The classifier reads the trained
// float32 vectors in place — no float64 interchange copies.
func (e *Embedding) CrossValidateLabels(labels []int, k, folds int, seed uint64) (float64, error) {
	if len(labels) != e.Model.Vocab {
		return 0, fmt.Errorf("core: %d labels for %d vertices", len(labels), e.Model.Vocab)
	}
	return knn.CrossValidateStore(e.Model.Store(), labels, k, folds, knn.Cosine, seed)
}

// PredictLabels trains a k-NN classifier on the vertices with label
// >= 0 and predicts a label for every vertex with label < 0,
// returning the completed label slice (the paper's missing-data
// recovery scenario). When the embedding is configured with an HNSW
// index (Config.Index), prediction searches approximately through it.
func (e *Embedding) PredictLabels(labels []int, k int) ([]int, error) {
	if len(labels) != e.Model.Vocab {
		return nil, fmt.Errorf("core: %d labels for %d vertices", len(labels), e.Model.Vocab)
	}
	store := e.Model.Store()
	var trainIdx, trainLbl, queryIdx []int
	for v, l := range labels {
		if l >= 0 {
			trainIdx = append(trainIdx, v)
			trainLbl = append(trainLbl, l)
		} else {
			queryIdx = append(queryIdx, v)
		}
	}
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("core: no labelled vertices to train on")
	}
	out := append([]int(nil), labels...)
	if len(queryIdx) == 0 {
		return out, nil
	}
	clf := knn.NewClassifierStore(k, knn.Cosine, store.Gather(trainIdx), trainLbl)
	if e.IndexCfg.Kind != vecstore.KindExact {
		if err := clf.UseIndex(e.IndexCfg); err != nil {
			return nil, err
		}
	}
	queries := make([][]float32, len(queryIdx))
	for i, v := range queryIdx {
		queries[i] = store.Row(v)
	}
	pred := clf.PredictRows(queries)
	for i, v := range queryIdx {
		out[v] = pred[i]
	}
	return out, nil
}
