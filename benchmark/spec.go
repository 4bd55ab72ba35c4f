package main

import "time"

// This file is the benchmark's declaration: the workloads, the metric
// names with unit, direction and bound, and the sizes everything runs
// at. BENCHMARK.json at the repository root repeats the names, and
// TestSpecMatchesBenchmarkJSON keeps the two in step.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Loop string // how load is offered
	Why  string
}

var workloads = []workloadSpec{
	{"pipeline", "commands in sequence",
		"The paper's path: edge list to walks to CBOW vectors to HNSW bundle to first answer; word2vec is ~75% of it and no serving layer matters."},
	{"serve_exact", "closed, 4 × nproc waiting clients",
		"Default exact index, every query a cache miss: the scalar scan is ~95% of a request, so kernel and storage work shows here."},
	{"serve_hot", "closed, 4 × nproc waiting clients",
		"Same server, 1024 hot tokens, >99% cache hits: only HTTP, cache and JSON run, so index and kernel changes must not move it."},
	{"serve_sharded", "closed, 4 × nproc waiting clients",
		"Two in-process HNSW shards behind the scatter-gather coordinator, all misses: the fan-out and merge cost."},
	{"serve_fleet", "closed, 4 × nproc waiting clients",
		"Same bundle and traffic as serve_sharded with the shard boundary over HTTP (router + 2 shard processes): the router hop."},
	{"serve_write_wal", "closed, 4 × nproc waiting clients; the traced pass adds an open loop at 1000 requests/s",
		"85% reads, 10% upserts, 5% deletes on HNSW with a synced WAL, then kill -9 and replay: writes beside reads, durability."},
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none. Moves says which end-to-end metric, on which workload,
// the layer metric is predicted to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

var stageNames = []string{
	"parse", "queue_wait", "cache_lookup", "index_search", "shard_wait", "merge",
	"wal_append", "wal_fsync", "apply", "encode", "write",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "cmd.embed_s", Unit: "s", Better: "lower", Layer: "cmd/v2v", Moves: "throughput on pipeline (~80% of the time to the first answer)"},
		{Name: "cmd.index_s", Unit: "s", Better: "lower", Layer: "cmd/v2v", Moves: "setup_s wherever a bundle is built; throughput on pipeline, ~8%"},
		{Name: "cmd.first_query_ms", Unit: "ms", Better: "lower", Layer: "cmd/v2v", Moves: "setup_s, marginally"},
		{Name: "graph.read_medges_per_s", Unit: "Medges/s", Better: "higher", Layer: "graph", Moves: "throughput on pipeline, <1%: predicted invisible"},
		{Name: "walk.mtok_per_s", Unit: "Mtok/s", Better: "higher", Layer: "walk", Moves: "throughput on pipeline, ~1%"},
		{Name: "walk.tokens", Unit: "count", Better: "lower", Layer: "walk", Moves: "nothing; the corpus size must repeat exactly"},
		{Name: "word2vec.mtok_per_s", Unit: "Mtok/s", Better: "higher", Layer: "word2vec", Moves: "throughput on pipeline; nothing on serve_*"},
		{Name: "word2vec.train_s", Unit: "s", Better: "lower", Layer: "word2vec", Moves: "throughput on pipeline"},
		{Name: "cluster.kmeans_ms", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "nothing (it runs after the first answer); the paper's k-means column"},
		{Name: "cluster.community_f1", Unit: "ratio", Better: "higher", Layer: "cluster", Moves: "the correctness gate on pipeline (floor 0.95)"},
		{Name: "snapshot.save_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "snapshot", Moves: "cmd.index_s, marginally"},
		{Name: "snapshot.load_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "snapshot", Moves: "setup_s on serve_*"},
		{Name: "snapshot.bytes_per_vector", Unit: "B", Better: "lower", Layer: "snapshot", Moves: "nothing timed; the bundle's size on disk"},
		{Name: "vecstore.dot_ns_per_row", Unit: "ns", Better: "lower", Layer: "vecstore", Moves: "throughput on serve_exact almost 1:1; HNSW reads too; not serve_hot"},
		{Name: "vecstore.exact_search_us", Unit: "us", Better: "lower", Layer: "vecstore", Moves: "throughput on serve_exact"},
		{Name: "vecstore.hnsw_search_us", Unit: "us", Better: "lower", Layer: "vecstore", Moves: "throughput on serve_write_wal"},
		{Name: "vecstore.hnsw_recall_at_10", Unit: "ratio", Better: "higher", Layer: "vecstore", Moves: "recall_at_10 on the HNSW workloads"},
		{Name: "vecstore.sharded_search_us", Unit: "us", Better: "lower", Layer: "vecstore", Moves: "throughput on serve_sharded and serve_fleet"},
		{Name: "vecstore.hnsw_build_rows_per_s", Unit: "rows/s", Better: "higher", Layer: "vecstore", Moves: "cmd.index_s, so setup_s on the HNSW workloads"},
		{Name: "vecstore.hnsw_insert_us", Unit: "us", Better: "lower", Layer: "vecstore", Moves: "throughput on serve_write_wal, through driver.write_p50_ms"},
		{Name: "wal.append_sync_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "throughput on serve_write_wal, through driver.write_p50_ms"},
		{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower", Layer: "wal", Moves: "throughput on serve_write_wal (group-commit ratio)"},
		{Name: "wal.bytes_per_write", Unit: "B", Better: "lower", Layer: "wal", Moves: "nothing timed; a count"},
		{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher", Layer: "wal", Moves: "recovery time after a crash"},
		{Name: "wal.lost_acked_writes", Unit: "count", Better: "lower", Layer: "wal", Moves: "the correctness gate on serve_write_wal (must be 0)"},
		{Name: "server.ready_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "setup_s on every workload"},
		{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "server", Moves: "validity: <1% on serve_exact, >99% on serve_hot; throughput on serve_hot"},
		{Name: "server.cpu_ms_per_req", Unit: "ms", Better: "lower", Layer: "server", Moves: "throughput on every closed-loop workload"},
		{Name: "server.wire_us", Unit: "us", Better: "lower", Layer: "server", Moves: "throughput on serve_hot (HTTP and connection share)"},
	}
	for _, s := range stageNames {
		moves := map[string]string{
			"parse":        "throughput on serve_fleet",
			"queue_wait":   "nothing unless admission is full",
			"cache_lookup": "throughput on serve_hot",
			"index_search": "throughput on serve_exact and serve_sharded; ~0 on serve_hot",
			"shard_wait":   "throughput on serve_sharded and serve_fleet",
			"merge":        "throughput on serve_sharded and serve_fleet",
			"wal_append":   "throughput on serve_write_wal; absent elsewhere",
			"wal_fsync":    "throughput on serve_write_wal; absent elsewhere",
			"apply":        "throughput on serve_write_wal",
			"encode":       "throughput on serve_hot and serve_fleet",
			"write":        "throughput on serve_hot",
		}[s]
		m = append(m, metricSpec{Name: "server.stage_ms." + s, Unit: "ms", Better: "lower", Layer: "server", Moves: moves})
	}
	return append(m,
		metricSpec{Name: "server.shed_total", Unit: "count", Better: "lower", Layer: "server", Moves: "validity: must be 0"},
		metricSpec{Name: "server.deadline_expired_total", Unit: "count", Better: "lower", Layer: "server", Moves: "validity: must be 0"},
		metricSpec{Name: "router.hop_added_p50_ms", Unit: "ms", Better: "lower", Layer: "server (router)", Moves: "throughput on serve_fleet only"},
		metricSpec{Name: "router.hop_added_p99_ms", Unit: "ms", Better: "lower", Layer: "server (router)", Moves: "nothing gated"},
		metricSpec{Name: "driver.samples", Unit: "count", Better: "higher", Layer: "benchmark", Moves: "validity of every percentile"},
		metricSpec{Name: "driver.slice_spread", Unit: "ratio", Better: "lower", Layer: "benchmark", Moves: "validity: throughput is noisy above its bound"},
		metricSpec{Name: "driver.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "benchmark", Moves: "validity of the traced pass"},
		metricSpec{Name: "driver.p50_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "throughput: with C waiting clients the mean latency is C / throughput"},
		metricSpec{Name: "driver.p95_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated: tails do not repeat within 25% on a shared 2-core box"},
		metricSpec{Name: "driver.p99_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated, as driver.p95_ms"},
		metricSpec{Name: "driver.read_p50_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "throughput on serve_write_wal (reads are 85% of its operations)"},
		metricSpec{Name: "driver.write_p50_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "throughput on serve_write_wal (writes are 15% of the operations, about half the time)"},
		metricSpec{Name: "driver.write_p95_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated"},
		metricSpec{Name: "driver.paced_read_p50_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated: read latency at 1000 requests/s on serve_write_wal, below capacity"},
		metricSpec{Name: "driver.paced_write_p50_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated: write latency from the due time at 1000 requests/s on serve_write_wal"},
		metricSpec{Name: "driver.paced_write_p95_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "nothing gated"},
		metricSpec{Name: "driver.achieved_over_offered", Unit: "ratio", Better: "higher", Layer: "benchmark", Moves: "validity of the paced figures: at least 0.98"},
		metricSpec{Name: "driver.late_p99_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "validity of the paced figures: how late the generator sent"},
	)
}

// sizes fixes how large every fixture and window is. The program's own
// seeds and every flag not named here stay at the CLI defaults.
type sizes struct {
	communities, communitySize int
	alpha                      float64
	interEdges                 int
	walks, walkLength          int
	kmeansRestarts             int
	f1Floor                    float64

	exactRows, hnswRows, dim, anchors int
	hotSet                            int
	probeQueries                      int
	layerQueries                      int

	setupReps   int           // set-ups per run, each followed by its share of the window
	setupBudget time.Duration // pipeline, whose set-up takes a millisecond: more follow until this much time is spent on them
	warmup      time.Duration
	slice       time.Duration // the window is cut into slices of this length
	pacedRate   float64       // requests per second of serve_write_wal's open loop
}

// maxSetups caps the repetitions of pipeline's set-up.
const maxSetups = 200

// fullSizes is what BENCHMARK.json's numbers are taken at. HNSW
// workloads serve half the rows of the exact ones so that three index
// builds per run fit the driver's time cap.
var fullSizes = sizes{
	communities: 10, communitySize: 100, alpha: 0.1, interEdges: 200,
	walks: 5, walkLength: 80, kmeansRestarts: 100, f1Floor: 0.95,
	exactRows: 20000, hnswRows: 10000, dim: 64, anchors: 200,
	hotSet: 1024, probeQueries: 200, layerQueries: 500,
	setupReps: 3, setupBudget: 2 * time.Second, warmup: 500 * time.Millisecond,
	slice: 550 * time.Millisecond, pacedRate: 1000,
}

// smokeSizes runs every code path in a few seconds; its numbers mean
// nothing.
var smokeSizes = sizes{
	communities: 4, communitySize: 50, alpha: 0.3, interEdges: 20,
	walks: 5, walkLength: 40, kmeansRestarts: 10, f1Floor: 0.8,
	exactRows: 6000, hnswRows: 4500, dim: 16, anchors: 40,
	hotSet: 256, probeQueries: 50, layerQueries: 100,
	setupReps: 1, warmup: 100 * time.Millisecond, slice: 250 * time.Millisecond, pacedRate: 500,
}

const (
	runSeconds = 10 // the window the driver asks for, BENCHMARK.json's run_seconds
	// clientsPerCPU waiting clients per CPU keep every CPU busy through
	// the window. With one per CPU each request is a chain of wake-ups
	// of idle virtual CPUs, and the host's wake-up latency, not the
	// program's work, sets the throughput (21–26k requests/s on
	// serve_hot from run to run, against 37–44k with four).
	clientsPerCPU = 4
	cliDim        = 50 // cmd/v2v -dim default
	cliEpochs     = 3  // cmd/v2v -epochs default
	topK          = 10
	cacheCapacity = 4096 // the server's -cache default; serve_exact needs more rows than this
)
