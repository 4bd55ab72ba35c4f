// Package v2v is the public API of the V2V reproduction: vertex
// embeddings of graphs learned from constrained random walks with a
// CBOW (word2vec) model, plus the embedding-space applications studied
// by the paper — community detection, visualization and feature
// prediction — and the direct graph-based baselines (CNM,
// Girvan-Newman) they are compared against.
//
// Reproduces: Nguyen & Tirthapura, "V2V: Vector Embedding of a Graph
// and Applications", IPDPSW 2018.
//
// Quickstart:
//
//	g, truth := v2v.CommunityBenchmark(v2v.DefaultBenchmarkConfig(0.5, 1))
//	emb, err := v2v.Embed(g, v2v.DefaultOptions(50))
//	if err != nil { ... }
//	res, err := emb.DetectCommunities(v2v.CommunityConfig{K: 10})
//	prec, rec, _ := v2v.EvaluateCommunities(truth, res.Partition)
package v2v

import (
	"context"
	"fmt"
	"io"

	"v2v/internal/cluster"
	"v2v/internal/community"
	"v2v/internal/core"
	"v2v/internal/graph"
	"v2v/internal/knn"
	"v2v/internal/linalg"
	"v2v/internal/linkpred"
	"v2v/internal/metrics"
	"v2v/internal/openflights"
	"v2v/internal/server"
	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
	"v2v/internal/viz"
	"v2v/internal/walk"
	"v2v/internal/word2vec"
)

// ---- Graphs -------------------------------------------------------

// Graph is an immutable CSR graph; build one with NewGraphBuilder, a
// generator, or ReadEdgeList.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// Edge is a single edge of a Graph.
type Edge = graph.Edge

// NewGraphBuilder returns a builder for an undirected graph with n
// initial vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// EdgeListOptions controls ReadEdgeList parsing.
type EdgeListOptions = graph.EdgeListOptions

// ReadEdgeList parses a "u v [weight [time]]" edge list.
func ReadEdgeList(r io.Reader, opts EdgeListOptions) (*Graph, error) {
	return graph.ReadEdgeList(r, opts)
}

// WriteEdgeList writes g in the format accepted by ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// BenchmarkConfig describes the paper's synthetic community
// benchmark (Section III-A).
type BenchmarkConfig = graph.CommunityBenchmarkConfig

// DefaultBenchmarkConfig returns the paper's benchmark at the given
// community strength alpha: 10 communities x 100 vertices, 200
// inter-community edges.
func DefaultBenchmarkConfig(alpha float64, seed uint64) BenchmarkConfig {
	return graph.DefaultCommunityBenchmark(alpha, seed)
}

// CommunityBenchmark generates the synthetic benchmark graph and its
// ground-truth community of every vertex.
func CommunityBenchmark(cfg BenchmarkConfig) (*Graph, []int) {
	return graph.CommunityBenchmark(cfg)
}

// ---- Embedding ----------------------------------------------------

// WalkStrategy selects the random-walk transition rule.
type WalkStrategy = walk.Strategy

// Walk strategies (paper Section II-A).
const (
	UniformWalk        = walk.Uniform
	EdgeWeightedWalk   = walk.EdgeWeighted
	VertexWeightedWalk = walk.VertexWeighted
	TemporalWalk       = walk.Temporal
)

// Options are the end-to-end V2V hyper-parameters.
type Options struct {
	// Random walks (paper defaults: WalksPerVertex = WalkLength = 1000).
	WalksPerVertex int
	WalkLength     int
	Strategy       WalkStrategy
	TemporalWindow int64 // Temporal strategy: max gap between edges

	// Model: CBOW with negative sampling (paper default window 5).
	Dim             int
	Window          int
	NegativeSamples int
	LearningRate    float64
	Epochs          int
	ConvergenceTol  float64 // > 0 enables convergence-based stopping
	Subsample       float64

	Seed    uint64
	Workers int

	// Index selects the similarity index serving the embedding's
	// query paths (Embedding.Neighbors, missing-label prediction):
	// the zero value is the exact scan; {Kind: HNSWIndex} trades
	// exactness for sublinear graph search. See
	// docs/VECTORS.md and docs/INDEXES.md.
	Index IndexConfig
}

// DefaultOptions returns the paper's configuration at the given
// dimensionality, with a laptop-scale walk budget (raise
// WalksPerVertex and WalkLength toward 1000 for paper scale).
func DefaultOptions(dim int) Options {
	return Options{
		WalksPerVertex:  10,
		WalkLength:      80,
		Strategy:        UniformWalk,
		Dim:             dim,
		Window:          5,
		NegativeSamples: 5,
		Epochs:          3,
	}
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		Walk: walk.Config{
			WalksPerVertex: o.WalksPerVertex,
			Length:         o.WalkLength,
			Strategy:       o.Strategy,
			TemporalWindow: o.TemporalWindow,
			Seed:           o.Seed,
			Workers:        o.Workers,
		},
		Model: word2vec.Config{
			Dim:             o.Dim,
			Window:          o.Window,
			NegativeSamples: o.NegativeSamples,
			LearningRate:    o.LearningRate,
			Epochs:          o.Epochs,
			ConvergenceTol:  o.ConvergenceTol,
			Subsample:       o.Subsample,
			Workers:         o.Workers,
			Seed:            o.Seed,
		},
		Index: o.Index,
	}
}

// Embedding is a trained V2V model bound to its graph.
type Embedding = core.Embedding

// TrainStats reports what happened during training.
type TrainStats = word2vec.Stats

// Model is the raw embedding matrix with similarity helpers.
type Model = word2vec.Model

// EmbeddingNeighbor is a similarity search result.
type EmbeddingNeighbor = word2vec.Neighbor

// Embed runs the V2V pipeline (random walks, then CBOW training) on
// g. The walks are streamed: re-derived from their per-walk RNG
// streams in every epoch, never stored, so memory does not grow with
// the walk budget (docs/STREAMING.md).
func Embed(g *Graph, opts Options) (*Embedding, error) {
	return core.Embed(g, opts.coreConfig())
}

// WalkStream is a walk corpus that is never stored: walks are
// re-derived on demand from their deterministic per-walk RNG streams,
// byte-identical to the WalkCorpus GenerateWalks returns under the same
// options.
type WalkStream = walk.Stream

// StreamWalks returns the walks of the pipeline as a stream, without
// generating any. Several models (e.g. a dimension sweep) can share one
// stream with EmbedWalks, training on identical walks without storing
// them.
func StreamWalks(g *Graph, opts Options) (*WalkStream, error) {
	return walk.NewStream(g, opts.coreConfig().Walk)
}

// WalkCorpus is a generated set of random walks. It can be saved,
// reloaded and reused to train models of several dimensionalities on
// identical contexts, as the paper's Figure 9 experiment does.
type WalkCorpus = walk.Corpus

// WalkSource is what EmbedWalks trains on: a *WalkStream or a
// *WalkCorpus.
type WalkSource = word2vec.Corpus

// GenerateWalks runs only the walk phase of the pipeline.
func GenerateWalks(g *Graph, opts Options) (*WalkCorpus, error) {
	corpus, _, err := core.GenerateCorpus(g, opts.coreConfig().Walk)
	return corpus, err
}

// EmbedWalks trains an embedding on pre-built walks; only the model
// fields of opts are consulted.
func EmbedWalks(g *Graph, walks WalkSource, opts Options) (*Embedding, error) {
	return core.EmbedCorpus(g, walks, opts.coreConfig())
}

// LoadWalks reads a corpus written with WalkCorpus.Save.
func LoadWalks(r io.Reader) (*WalkCorpus, error) { return walk.LoadCorpus(r) }

// LoadModel reads embeddings in either persistence format — the
// word2vec text format written by Model.Save, or the binary snapshot
// written by SaveSnapshot — auto-detected from the stream's first
// bytes. Snapshot loading is ~10x faster; see docs/SERVING.md.
func LoadModel(r io.Reader) (*Model, []string, error) { return snapshot.LoadAuto(r) }

// SaveSnapshot writes the model and its token table in the versioned
// binary snapshot format: a magic/version header, the tokens, the raw
// little-endian float32 matrix and a trailing CRC-32. tokens may be
// nil (rows are named by decimal index, matching Model.Save). The
// fast-startup format behind `v2v serve` and `v2v -format bin`.
func SaveSnapshot(w io.Writer, m *Model, tokens []string) error {
	return snapshot.Save(w, m, tokens)
}

// LoadSnapshot reads a binary snapshot written by SaveSnapshot,
// verifying its checksum. Use LoadModel to accept either format.
func LoadSnapshot(r io.Reader) (*Model, []string, error) { return snapshot.Load(r) }

// SaveIndexedSnapshot writes a bundle: the model snapshot followed by
// an index trailer (its own magic, version and CRC-32) holding the
// topology of a prebuilt HNSW index, one graph per shard. A server or
// query CLI loading the bundle with a matching HNSW index configuration
// binds the persisted graphs instead of re-inserting every row —
// startup cost becomes a bounds-checked read. idx must be an HNSW index
// over m's store built with NewIndex and Kind: HNSWIndex, flat or
// sharded (Shards > 1). See docs/INDEXES.md.
func SaveIndexedSnapshot(w io.Writer, m *Model, tokens []string, idx Index) error {
	graphs, err := indexGraphs(idx)
	if err != nil {
		return fmt.Errorf("v2v: SaveIndexedSnapshot: %w", err)
	}
	return snapshot.SaveBundle(w, m, tokens, graphs)
}

// SaveIndexedSnapshotFile writes the bundle to path atomically
// (same-directory temp file and rename), so a crash mid-write never
// leaves a half-bundle at the target — the invariant the hot-reload
// deploy loop depends on. Prefer this over SaveIndexedSnapshot for
// files the server reloads from.
func SaveIndexedSnapshotFile(path string, m *Model, tokens []string, idx Index) error {
	graphs, err := indexGraphs(idx)
	if err != nil {
		return fmt.Errorf("v2v: SaveIndexedSnapshotFile: %w", err)
	}
	return snapshot.SaveBundleFile(path, m, tokens, graphs)
}

// indexGraphs returns the per-shard graphs of an HNSW index, one for a
// flat index.
func indexGraphs(idx Index) ([]*vecstore.HNSWGraph, error) {
	switch h := idx.(type) {
	case *vecstore.HNSW:
		return []*vecstore.HNSWGraph{h.Graph()}, nil
	case *vecstore.Sharded:
		return h.Graphs()
	default:
		return nil, fmt.Errorf("needs an HNSW index, got %T (exact indexes rebuild quickly and are not persisted)", idx)
	}
}

// LoadIndexedSnapshot loads a model file in any persistence format
// (bundle, binary snapshot, word2vec text — auto-sniffed) and returns
// an index over it per cfg, validating cfg first. When the file
// bundles HNSW graphs and cfg asks for an HNSW index they can serve —
// one shard per graph, the same metric, no explicitly conflicting
// build parameter (an M different from the graphs', or a nonzero
// EfConstruction) — the prebuilt graphs are bound (cfg.EfSearch and
// cfg.Workers still apply); otherwise the index is built from scratch.
// Like NewIndex it returns a flat HNSW index when cfg.Shards is below 2
// and a sharded coordinator otherwise. Non-HNSW configurations skip
// decoding the index trailer entirely.
func LoadIndexedSnapshot(path string, cfg IndexConfig) (*Model, []string, Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if cfg.Kind != HNSWIndex {
		m, tokens, err := snapshot.LoadFile(path)
		if err != nil {
			return nil, nil, nil, err
		}
		idx, err := vecstore.Open(m.Store(), cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, tokens, idx, nil
	}
	b, err := snapshot.LoadBundle(path)
	if err != nil {
		return nil, nil, nil, err
	}
	m, tokens := b.Model, b.Tokens
	if !vecstore.Bindable(b.Shards, cfg) {
		idx, err := vecstore.Open(m.Store(), cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, tokens, idx, nil
	}
	var idx Index
	if cfg.Shards <= 1 {
		idx, err = vecstore.HNSWFromGraph(m.Store(), b.Shards[0], cfg.EfSearch, cfg.Workers)
	} else {
		idx, err = vecstore.OpenShardedFromGraphs(m.Store(), b.Shards, cfg)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("v2v: binding bundled index: %w", err)
	}
	return m, tokens, idx, nil
}

// ---- Vector store and top-k indexes --------------------------------

// VectorStore is a contiguous, aligned float32 matrix with cached L2
// norms — the storage every similarity consumer shares. Get a model's
// store with Model.Store().
type VectorStore = vecstore.Store

// Index is a pluggable top-k similarity index over a VectorStore.
type Index = vecstore.Index

// MutableIndex is the online-write extension of Index: Insert appends
// and indexes a new vector (incrementally, even for HNSW) and
// Delete tombstones a row, both safe to call concurrently with
// queries. Every index built by NewIndex, NewVectorIndex and
// LoadIndexedSnapshot implements it — use AsMutableIndex to surface
// the extension. See docs/INDEXES.md for the mutability semantics
// (tombstone filtering, compaction, staleness detection).
type MutableIndex = vecstore.MutableIndex

// AsMutableIndex surfaces idx's online-write extension. The second
// return is false only for third-party Index implementations; every
// index this package builds supports writes.
func AsMutableIndex(idx Index) (MutableIndex, bool) {
	m, ok := idx.(MutableIndex)
	return m, ok
}

// IndexKind selects the index implementation.
type IndexKind = vecstore.Kind

// Index kinds.
const (
	// ExactIndex scans every vector — int8 and float32 passes reject
	// what provably cannot rank, float64 kernels score the rest — into
	// bounded top-k heaps; results are exact (and bit-for-bit
	// identical to the pre-index brute-force paths).
	ExactIndex = vecstore.KindExact
	// HNSWIndex routes queries through a hierarchical navigable small
	// world graph: sublinear approximate search whose recall is tuned
	// by M and EfSearch. The graph can be persisted alongside the
	// model with SaveIndexedSnapshot so servers skip the build. See
	// docs/INDEXES.md.
	HNSWIndex = vecstore.KindHNSW
)

// IndexConfig selects and tunes an index (kind, metric, HNSW
// M/EfConstruction/EfSearch, workers, seed). The
// zero value is an exact cosine index; invalid combinations are
// rejected with a descriptive error by every constructor (see
// IndexConfig.Validate). docs/INDEXES.md is the selection and tuning
// guide.
type IndexConfig = vecstore.Config

// SearchResult is one similarity hit (vertex ID and score, higher
// better).
type SearchResult = vecstore.Result

// IndexMetric selects the similarity an index scores by.
type IndexMetric = vecstore.Metric

// Index metrics.
const (
	CosineSimilarityMetric = vecstore.Cosine
	DotProductMetric       = vecstore.Dot
	EuclideanMetric        = vecstore.Euclidean
)

// NewIndex builds a similarity index over a trained model's vectors.
func NewIndex(m *Model, cfg IndexConfig) (Index, error) {
	return vecstore.Open(m.Store(), cfg)
}

// NewVectorIndex builds a similarity index over an arbitrary store.
func NewVectorIndex(s *VectorStore, cfg IndexConfig) (Index, error) {
	return vecstore.Open(s, cfg)
}

// VectorStoreOf copies [][]float64 rows into an aligned store (the
// bridge from the historical interchange format).
func VectorStoreOf(rows [][]float64) *VectorStore { return vecstore.FromRows64(rows) }

// ---- Serving -------------------------------------------------------

// ServeConfig configures the embedding query server (listen address,
// model path, index, response cache size). See docs/SERVING.md.
type ServeConfig = server.Config

// ServeWALConfig configures the server's write-ahead log
// (ServeConfig.WAL): with a log directory set, every acknowledged
// write is logged before it is applied and startup replays the log,
// so a crash loses no acknowledged write. See docs/SERVING.md
// ("Durability").
type ServeWALConfig = server.WALConfig

// ServeAdmissionConfig configures per-class admission control and
// deadlines (ServeConfig.Admission): bounded concurrency plus a small
// wait queue per request class, shedding excess load with 429 +
// Retry-After, and optional per-class deadlines answered with 503
// when they expire mid-request. See docs/SERVING.md ("Overload and
// backpressure").
type ServeAdmissionConfig = server.AdmissionConfig

// ServeClassLimit bounds one request class (ServeAdmissionConfig.Read
// / .Write / .Admin): in-flight concurrency, wait-queue depth and
// deadline.
type ServeClassLimit = server.ClassLimit

// QueryServer is a long-lived HTTP/JSON query service over a trained
// embedding: /v1/neighbors, /v1/similarity, /v1/analogy, /v1/predict
// (plus batched variants), /healthz and /stats, with atomic hot model
// reload via /v1/reload and online writes via /v1/upsert and
// /v1/delete (plus batched variants) — upserts and deletes are
// visible to the very next query, no reload required, and past a
// tombstone threshold the shard they landed on is rebuilt over its
// live rows in the background, in the same generation (see
// ServeConfig.CompactFraction; ServeConfig.ReadOnly disables writes).
// Build one with NewQueryServer or NewQueryServerFromModel.
type QueryServer = server.Server

// NewQueryServer builds a query server and loads cfg.ModelPath (in
// either persistence format).
func NewQueryServer(cfg ServeConfig) (*QueryServer, error) { return server.New(cfg) }

// NewQueryServerFromModel builds a query server around an in-memory
// model; tokens may be nil (decimal indices).
func NewQueryServerFromModel(cfg ServeConfig, m *Model, tokens []string) (*QueryServer, error) {
	return server.NewFromModel(cfg, m, tokens)
}

// Serve loads cfg.ModelPath and serves queries on cfg.Addr until ctx
// is cancelled, then shuts down gracefully — the programmatic
// equivalent of `v2v serve`.
func Serve(ctx context.Context, cfg ServeConfig) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	return s.ListenAndServe(ctx, nil)
}

// ---- Applications -------------------------------------------------

// CommunityConfig controls embedding-space community detection.
type CommunityConfig = core.CommunityConfig

// CommunityResult is a detected community partition.
type CommunityResult = core.CommunityResult

// EvaluateCommunities returns the paper's pairwise precision and
// recall of a partition against ground truth.
func EvaluateCommunities(truth, pred []int) (precision, recall float64, err error) {
	return core.EvaluateCommunities(truth, pred)
}

// PairwiseF1 is the harmonic mean of pairwise precision and recall.
func PairwiseF1(truth, pred []int) (float64, error) { return metrics.PairwiseF1(truth, pred) }

// PCA is a fitted principal component analysis.
type PCA = linalg.PCA

// PCAOf fits a k-component PCA to arbitrary points (rows).
func PCAOf(rows [][]float64, k int, seed uint64) (*PCA, error) {
	return linalg.FitPCA(rows, k, seed)
}

// KMeansConfig controls direct k-means clustering of points.
type KMeansConfig = cluster.Config

// KMeansResult is a fitted clustering.
type KMeansResult = cluster.Result

// KMeans clusters arbitrary points (multi-restart Lloyd/k-means++).
func KMeans(points [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	return cluster.KMeans(points, cfg)
}

// KNNDistance selects the k-NN metric.
type KNNDistance = knn.Distance

// k-NN distances; the paper uses cosine.
const (
	CosineDistance    = knn.Cosine
	EuclideanDistance = knn.Euclidean
)

// KNNClassifier is a fitted k-nearest-neighbour classifier.
type KNNClassifier = knn.Classifier

// NewKNNClassifier stores the labelled training points.
func NewKNNClassifier(k int, dist KNNDistance, points [][]float64, labels []int) *KNNClassifier {
	return knn.NewClassifier(k, dist, points, labels)
}

// CrossValidateKNN runs folds-fold cross-validation of k-NN
// classification and returns the mean accuracy.
func CrossValidateKNN(points [][]float64, labels []int, k, folds int, dist KNNDistance, seed uint64) (float64, error) {
	return knn.CrossValidate(points, labels, k, folds, dist, seed)
}

// ---- Graph-based baselines ----------------------------------------

// Modularity returns Newman's modularity of a partition of g.
func Modularity(g *Graph, partition []int) (float64, error) {
	return community.Modularity(g, partition)
}

// CNMConfig controls the CNM greedy modularity baseline.
type CNMConfig = community.CNMConfig

// CNMResult is the outcome of a CNM run.
type CNMResult = community.CNMResult

// CNM runs the Clauset-Newman-Moore greedy modularity algorithm, one
// of the paper's two direct graph-based baselines.
func CNM(g *Graph, cfg CNMConfig) (*CNMResult, error) { return community.CNM(g, cfg) }

// GNConfig controls the Girvan-Newman baseline.
type GNConfig = community.GNConfig

// GNResult is the outcome of a Girvan-Newman run.
type GNResult = community.GNResult

// GirvanNewman runs the edge-betweenness community detection
// algorithm, the paper's second direct graph-based baseline.
func GirvanNewman(g *Graph, cfg GNConfig) (*GNResult, error) { return community.GirvanNewman(g, cfg) }

// ---- Link prediction (extension; paper conclusion) ------------------

// LinkScorer assigns a likelihood score to candidate edges.
type LinkScorer = linkpred.Scorer

// LinkSplit is a train/test edge partition for link prediction.
type LinkSplit = linkpred.Split

// LinkResult is a link prediction evaluation (AUC, precision@k).
type LinkResult = linkpred.Result

// HoldOutEdges removes a fraction of edges as test positives and
// samples matching non-edge negatives.
func HoldOutEdges(g *Graph, fraction float64, seed uint64) (*LinkSplit, error) {
	return linkpred.HoldOut(g, fraction, seed)
}

// EvaluateLinkScorer ranks the split's pairs and reports AUC and
// precision@k.
func EvaluateLinkScorer(s LinkScorer, split *LinkSplit) LinkResult {
	return linkpred.Evaluate(s, split)
}

// EmbeddingLinkScorer scores pairs by embedding similarity (cosine,
// or dot product with hadamard = true), reading the trained vectors
// in place through the model's store.
func EmbeddingLinkScorer(m *Model, hadamard bool) LinkScorer {
	return &linkpred.EmbeddingScorer{Store: m.Store(), Hadamard: hadamard}
}

// EvaluateLinkScorerParallel is EvaluateLinkScorer with pair scoring
// fanned out over workers goroutines (0 = GOMAXPROCS). The scorer's
// Score method must tolerate concurrent calls — every scorer built by
// this package does. Results are identical for every worker count.
func EvaluateLinkScorerParallel(s LinkScorer, split *LinkSplit, workers int) LinkResult {
	return linkpred.EvaluateParallel(s, split, workers)
}

// CommonNeighborsScorer counts shared neighbours in g.
func CommonNeighborsScorer(g *Graph) LinkScorer { return &linkpred.CommonNeighbors{G: g} }

// JaccardScorer normalises shared neighbours by union size.
func JaccardScorer(g *Graph) LinkScorer { return &linkpred.Jaccard{G: g} }

// AdamicAdarScorer weights shared neighbours by 1/log(degree).
func AdamicAdarScorer(g *Graph) LinkScorer { return &linkpred.AdamicAdar{G: g} }

// PreferentialAttachmentScorer scores by degree product.
func PreferentialAttachmentScorer(g *Graph) LinkScorer {
	return &linkpred.PreferentialAttachment{G: g}
}

// ---- Datasets and visualization ------------------------------------

// OpenFlightsConfig controls the synthetic OpenFlights-style route
// network generator (see docs/EXPERIMENTS.md#figure-8--openflights-route-network
// for the substitution rationale).
type OpenFlightsConfig = openflights.Config

// OpenFlightsDataset is the generated route network with labels.
type OpenFlightsDataset = openflights.Dataset

// DefaultOpenFlightsConfig is the OpenFlights-scale configuration
// (~10k airports, ~67k directed routes).
func DefaultOpenFlightsConfig(seed uint64) OpenFlightsConfig {
	return openflights.DefaultConfig(seed)
}

// GenerateOpenFlights builds the synthetic route network.
func GenerateOpenFlights(cfg OpenFlightsConfig) (*OpenFlightsDataset, error) {
	return openflights.Generate(cfg)
}

// ScatterPlot renders a categorical 2-D scatter as SVG.
type ScatterPlot = viz.ScatterPlot

// LineChart renders a multi-series line chart as SVG.
type LineChart = viz.LineChart

// ChartSeries is one line of a LineChart.
type ChartSeries = viz.Series

// GraphPlot renders a laid-out graph as SVG.
type GraphPlot = viz.GraphPlot

// LayoutConfig controls the ForceAtlas2-style force-directed layout.
type LayoutConfig = viz.LayoutConfig

// ForceLayout computes 2-D positions for every vertex of g (the
// paper's Figure 3 drawings).
func ForceLayout(g *Graph, cfg LayoutConfig) (x, y []float64) { return viz.Layout(g, cfg) }
