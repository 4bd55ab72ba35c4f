package vecstore

import (
	"fmt"
	"math"
	"runtime"
)

// Metric selects the similarity. Scores are "higher is better":
// Euclidean reports the negated squared distance so one ordering
// convention serves every metric (consumers needing the distance
// negate it back; squared distance is what the seed k-NN compared
// too, so the conversion is exact).
type Metric uint8

// Metrics.
const (
	Cosine Metric = iota
	Dot
	Euclidean
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Kind selects the index implementation.
type Kind uint8

// Index kinds.
const (
	// KindExact scans every row — an int8 pass, then a float32 one,
	// reject the rows that provably cannot enter the top k, the
	// float64 kernels score the rest — partitioned across workers.
	// Results are exact and bit-for-bit identical to the seed's
	// brute-force paths.
	KindExact Kind = iota
	// KindIVF prunes the scan with an inverted-file index: a k-means
	// coarse quantizer assigns rows to NLists cells and queries probe
	// only the NProbe closest cells. Approximate; recall is tuned by
	// NProbe (see docs/VECTORS.md).
	KindIVF
	// KindHNSW routes through a hierarchical navigable small world
	// graph: greedy descent through sparse upper layers, then a
	// bounded EfSearch beam at layer 0. Approximate with sublinear
	// query cost; recall is tuned by M/EfSearch (see docs/INDEXES.md).
	KindHNSW
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindExact:
		return "exact"
	case KindIVF:
		return "ivf"
	case KindHNSW:
		return "hnsw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config selects and tunes an index. The zero value is a serial-build
// exact cosine index; see docs/VECTORS.md for the knob reference.
type Config struct {
	Kind   Kind
	Metric Metric

	// Workers bounds index build and batch-query parallelism;
	// 0 means GOMAXPROCS.
	Workers int

	// NLists is the number of IVF cells (0 = sqrt(n) heuristic).
	NLists int
	// NProbe is the number of cells scanned per IVF query
	// (0 = max(1, NLists/4), which lands >= 0.95 recall@10 on the
	// paper-scale graphs; raise it toward NLists for higher recall).
	NProbe int
	// Seed drives index construction randomness (the IVF k-means
	// quantizer, HNSW level sampling). Builds are deterministic for a
	// fixed seed regardless of Workers.
	Seed uint64

	// M is the HNSW per-level degree target (0 = 16).
	M int
	// EfConstruction is the HNSW insert-time beam width (0 = 200).
	EfConstruction int
	// EfSearch is the HNSW query-time beam width (0 = 128); queries
	// use max(EfSearch, k).
	EfSearch int

	// Shards > 1 partitions the rows across that many hash-routed
	// shards behind a scatter-gather coordinator: per-shard indexes
	// build concurrently, queries fan out and merge, and writes lock
	// only the owning shard. 0 or 1 builds a single unsharded index.
	// See Sharded and docs/INDEXES.md.
	Shards int
}

// Validate reports, with a descriptive error, why the configuration
// cannot build an index: an unknown kind or metric, a negative
// parameter, a parameter that belongs to a different index kind, or an
// inconsistent IVF probe count. The zero value (serial exact cosine)
// is always valid; Open validates before building.
func (c Config) Validate() error {
	switch c.Kind {
	case KindExact, KindIVF, KindHNSW:
	default:
		return fmt.Errorf("vecstore: unknown index kind %v (valid: exact, ivf, hnsw)", c.Kind)
	}
	switch c.Metric {
	case Cosine, Dot, Euclidean:
	default:
		return fmt.Errorf("vecstore: unknown metric %v (valid: cosine, dot, euclidean)", c.Metric)
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"Workers", c.Workers},
		{"NLists", c.NLists},
		{"NProbe", c.NProbe},
		{"M", c.M},
		{"EfConstruction", c.EfConstruction},
		{"EfSearch", c.EfSearch},
		{"Shards", c.Shards},
	} {
		if p.v < 0 {
			return fmt.Errorf("vecstore: %s index: negative %s %d (0 selects the default)", c.Kind, p.name, p.v)
		}
	}
	if c.Kind != KindIVF && (c.NLists != 0 || c.NProbe != 0) {
		return fmt.Errorf("vecstore: NLists/NProbe are IVF parameters but Kind is %s (got NLists=%d NProbe=%d)",
			c.Kind, c.NLists, c.NProbe)
	}
	if c.Kind != KindHNSW && (c.M != 0 || c.EfConstruction != 0 || c.EfSearch != 0) {
		return fmt.Errorf("vecstore: M/EfConstruction/EfSearch are HNSW parameters but Kind is %s (got M=%d EfConstruction=%d EfSearch=%d)",
			c.Kind, c.M, c.EfConstruction, c.EfSearch)
	}
	if c.Kind == KindIVF && c.NLists > 0 && c.NProbe > c.NLists {
		return fmt.Errorf("vecstore: NProbe %d exceeds NLists %d (an IVF query cannot probe more cells than exist)", c.NProbe, c.NLists)
	}
	return nil
}

// Index is a top-k similarity search structure over a Store.
// Implementations are safe for concurrent queries once built, and
// every tombstoned store row is filtered out of results.
type Index interface {
	// Search returns the k best live rows for the query vector, score
	// descending with ties broken toward smaller IDs.
	Search(q []float32, k int) []Result
	// SearchBatch answers many queries, parallelized across the
	// configured workers, with amortized (near-zero per query)
	// allocation.
	SearchBatch(qs [][]float32, k int) [][]Result
	// SearchRow searches with stored row i as the query, excluding i
	// itself from the results — the neighbor-query fast path.
	SearchRow(i, k int) []Result
	// Store returns the underlying vector store.
	Store() *Store
	// Metric returns the similarity the scores follow.
	Metric() Metric
}

// MutableIndex is the online-write extension of Index: every index
// this package builds (Exact, IVF, HNSW) implements it. Insert and
// Delete are safe to call concurrently with queries and each other —
// each index serialises its mutations behind a writer lock while
// queries proceed under a shared reader lock — so a serving layer can
// apply upserts and deletes without pausing reads.
//
// Once a store is indexed mutably, grow and shrink it only through
// these methods: a direct Store.AppendRow leaves the appended row
// invisible to approximate indexes, and a Store.SetRow silently
// invalidates their adjacency/cell structure — both are detected and
// reported at the next query instead of returning wrong results.
type MutableIndex interface {
	Index
	// Insert appends v as a new row of the underlying store and
	// indexes it incrementally, returning the new row's ID.
	Insert(v []float32) (int, error)
	// Delete tombstones row id: it stops appearing in results
	// immediately. Storage and index links are reclaimed only by a
	// rebuild over Store.Gather(Store.LiveIDs()), which the serving
	// layer triggers past a tombstone-fraction threshold (see
	// docs/INDEXES.md). Errors on out-of-range or double deletion.
	Delete(id int) error
}

// Open builds the index described by cfg over s, validating cfg
// first. The result always implements MutableIndex. Shards > 1
// returns a *Sharded scatter-gather coordinator over per-shard
// indexes of the configured kind.
func Open(s *Store, cfg Config) (Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return OpenSharded(s, cfg)
	}
	switch cfg.Kind {
	case KindIVF:
		return NewIVF(s, cfg.Metric, IVFConfig{
			NLists:  cfg.NLists,
			NProbe:  cfg.NProbe,
			Seed:    cfg.Seed,
			Workers: cfg.Workers,
		})
	case KindHNSW:
		return NewHNSW(s, cfg.Metric, HNSWConfig{
			M:              cfg.M,
			EfConstruction: cfg.EfConstruction,
			EfSearch:       cfg.EfSearch,
			Seed:           cfg.Seed,
			Workers:        cfg.Workers,
		})
	default:
		return NewExact(s, cfg.Metric, cfg.Workers), nil
	}
}

// OpenMutable is Open for callers that apply online writes; it
// surfaces the MutableIndex extension every built index implements.
func OpenMutable(s *Store, cfg Config) (MutableIndex, error) {
	idx, err := Open(s, cfg)
	if err != nil {
		return nil, err
	}
	return idx.(MutableIndex), nil
}

func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// scoreRow scores a single row with the float64 kernels: the score
// every index reports.
func scoreRow(s *Store, metric Metric, q []float32, qn float64, i int) float64 {
	switch metric {
	case Euclidean:
		return -sqDistF64(q, s.Row(i))
	case Cosine:
		return cosineFromDot(dotF64(q, s.Row(i)), qn, s.SqNorms()[i])
	default:
		return dotF64(q, s.Row(i))
	}
}

// cosineFromDot finishes the cosine: dot / sqrt(qn*rn), with the
// seed's zero-vector convention (similarity 0) and its exact
// sqrt(na*nb) formula.
func cosineFromDot(dot, qn, rn float64) float64 {
	if qn == 0 || rn == 0 {
		return 0
	}
	return dot / math.Sqrt(qn*rn)
}

// queryNorm returns the squared norm of q when the metric needs it.
func queryNorm(metric Metric, q []float32) float64 {
	if metric != Cosine {
		return 0
	}
	return sqNorm(q)
}

func clampK(k, n int) int {
	if k > n {
		return n
	}
	return k
}

// checkDim panics on query/store dimension mismatch — the kernels
// would otherwise silently truncate short queries (the seed's
// float64 helpers panicked here too).
func checkDim(s *Store, q []float32) {
	if len(q) != s.dim {
		panic(fmt.Sprintf("vecstore: query dimension %d does not match store dimension %d", len(q), s.dim))
	}
}
