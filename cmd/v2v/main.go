// Command v2v trains vertex embeddings for a graph given as an edge
// list, writes them in the word2vec text format or the fast binary
// snapshot format, serves top-k similarity queries over saved
// embeddings, and runs a long-lived HTTP query server.
//
// Training usage:
//
//	v2v -in graph.txt [-out vectors.txt] [-format text|bin] [-dim 50]
//	    [-walks 10] [-length 80] [-window 5] [-epochs 3] [-directed]
//	    [-named]
//	    [-strategy uniform|edge-weighted|vertex-weighted|temporal|node2vec]
//	    [-objective cbow|skipgram] [-sampler ns|hs] [-streaming] [-seed 1]
//	    [-v]
//
// -v prints one line per stage to stderr: graph load, walk generation
// (tokens, Mtok/s), each training epoch (seconds, Mtok/s, mean loss;
// the first also names the worker count) and the save (bytes, MB/s).
//
// -format bin writes a versioned binary snapshot (magic header, token
// table, raw float32 matrix, CRC) that loads ~10x faster than the
// text format; every model-reading command auto-detects both formats.
//
// Query usage (one-shot, over a saved model):
//
//	v2v query -model vectors.txt [-k 10] [-index exact|ivf|hnsw]
//	          [-nlists 0] [-nprobe 0] [-m 0] [-efc 0] [-efs 0]
//	          [-shards 0] [-v] [vertex ...]
//
// Queries are vertex tokens, taken from the command line or — when
// none are given — one per line from stdin; each answer line is
// "query neighbor similarity". The IVF and HNSW indexes trade exact
// results for speed; see docs/INDEXES.md for the selection guide and
// the nlists/nprobe and m/efc/efs knobs.
//
// Index usage (persist a prebuilt HNSW graph next to the model):
//
//	v2v index -model vectors.snap -out indexed.snap
//	          [-m 0] [-efc 0] [-efs 0] [-shards 0] [-seed 1]
//
// The output bundle is a model snapshot followed by the index graph
// (own magic/version/CRC section). `v2v serve -index hnsw` and
// `v2v query -index hnsw` bind the persisted graph instead of
// rebuilding it at startup. With -shards N the rows are partitioned
// across N independently-built HNSW shards (parallel build,
// scatter-gather queries) and the bundle carries one graph per shard;
// serve/query with the same -shards N rebind them.
//
// Serve usage (the long-lived HTTP/JSON query server):
//
//	v2v serve -model vectors.snap [-addr 127.0.0.1:8080]
//	          [-index exact|ivf|hnsw] [-nlists 0] [-nprobe 0]
//	          [-m 0] [-efc 0] [-efs 0] [-shards 0] [-cache 4096]
//	          [-readonly] [-compact-frac 0]
//	          [-wal DIR] [-wal-sync always|interval|never]
//	          [-wal-sync-interval 100ms] [-wal-segment-bytes N]
//	          [-wal-checkpoint-bytes N]
//	          [-read-concurrency N] [-read-queue N] [-deadline-ms D]
//	          [-write-concurrency N] [-write-queue N] [-write-deadline-ms D]
//	          [-retry-after 1] [-no-admission]
//	          [-router -shard-addrs URL,URL,... [-allow-partial]
//	           [-probe-ms 2000] [-remote-timeout-ms 5000]]
//	          [-shards N -shard-id I]
//
// Distributed serving runs the shard boundary over HTTP: -shard-id I
// serves one process's slice of an N-way partition (read-only public
// API plus the internal /shard/v1/* surface), and -router serves
// scatter-gather reads and hash-routed writes over the shard
// processes listed in -shard-addrs (entry i must be the -shard-id i
// process; membership is /healthz-probed every -probe-ms). Reads
// answer byte-for-byte identically to a single process running
// -shards N. With a shard down, reads answer 503 — or, with
// -allow-partial, skip it and mark the response "partial": true. See
// docs/SERVING.md ("Distributed serving").
//
// Admission control bounds in-flight requests per class (reads,
// writes, admin) with a small wait queue each; excess load is shed
// with 429 + Retry-After instead of queueing without bound, and
// requests that outlive their -deadline-ms answer 503. /healthz,
// /stats and /metrics are exempt so the server stays observable while
// overloaded. See docs/SERVING.md ("Overload and backpressure").
//
// With -wal, every acknowledged write is appended to a write-ahead
// log before it is applied, startup replays the log on top of the
// last checkpoint (crash recovery: no acknowledged write is lost),
// and checkpoints fold the log back into a snapshot. See
// docs/SERVING.md ("Durability").
//
// The server exposes /v1/neighbors, /v1/similarity, /v1/analogy,
// /v1/predict, /v1/vocab, /v1/reload (atomic hot model swap),
// /v1/upsert and /v1/delete (online writes, visible to queries
// immediately with no reload; disable with -readonly), /batch variants
// of all but analogy, vocab and reload — a single request is its batch
// at n = 1, so an item answers what the single request would — and
// /healthz and /stats, and shuts down
// gracefully on SIGTERM/SIGINT. Deletes tombstone rows; past the
// -compact-frac tombstone fraction the server compacts into a fresh
// generation. See docs/SERVING.md for the API reference and
// benchmark/ for the load-generating client.
//
// The input format is one edge per line: "u v [weight [time]]"; lines
// starting with '#' are comments. With -named, u and v are arbitrary
// vertex names rather than integer indices.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"v2v"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			queryMain(os.Args[2:])
			return
		case "serve":
			serveMain(os.Args[2:])
			return
		case "index":
			indexMain(os.Args[2:])
			return
		}
	}
	trainMain()
}

// indexSelection registers the shared index-selection flags on fs and
// returns a closure assembling the IndexConfig after parsing. Invalid
// kind/parameter combinations surface as descriptive errors from
// IndexConfig validation.
func indexSelection(fs *flag.FlagSet, defaultKind string) func() (v2v.IndexConfig, error) {
	var (
		kind   = fs.String("index", defaultKind, "index kind: exact, ivf or hnsw")
		nlists = fs.Int("nlists", 0, "ivf: coarse cells (0 = sqrt(n))")
		nprobe = fs.Int("nprobe", 0, "ivf: cells scanned per query (0 = nlists/4)")
		m      = fs.Int("m", 0, "hnsw: links per node per level (0 = 16)")
		efc    = fs.Int("efc", 0, "hnsw: construction beam width (0 = 200)")
		efs    = fs.Int("efs", 0, "hnsw: query beam width (0 = 128)")
		shards = fs.Int("shards", 0, "partition rows across N index shards: parallel builds and scatter-gather queries (0/1 = unsharded)")
		seed   = fs.Uint64("seed", 1, "index build seed")
	)
	return func() (v2v.IndexConfig, error) {
		cfg := v2v.IndexConfig{
			Seed:           *seed,
			NLists:         *nlists,
			NProbe:         *nprobe,
			M:              *m,
			EfConstruction: *efc,
			EfSearch:       *efs,
			Shards:         *shards,
		}
		switch *kind {
		case "exact":
			cfg.Kind = v2v.ExactIndex
		case "ivf":
			cfg.Kind = v2v.IVFIndex
		case "hnsw":
			cfg.Kind = v2v.HNSWIndex
		default:
			return cfg, fmt.Errorf("unknown index kind %q (want exact, ivf or hnsw)", *kind)
		}
		return cfg, cfg.Validate()
	}
}

func trainMain() {
	var (
		in        = flag.String("in", "", "input edge list (required; '-' for stdin)")
		out       = flag.String("out", "", "output vector file (default stdout)")
		dim       = flag.Int("dim", 50, "embedding dimensions")
		walks     = flag.Int("walks", 10, "random walks per vertex (paper default 1000)")
		length    = flag.Int("length", 80, "walk length (paper default 1000)")
		window    = flag.Int("window", 5, "context window n")
		epochs    = flag.Int("epochs", 3, "training epochs")
		directed  = flag.Bool("directed", false, "treat edges as directed")
		named     = flag.Bool("named", false, "vertex names instead of integer indices")
		strategy  = flag.String("strategy", "uniform", "walk strategy: uniform, edge-weighted, vertex-weighted, temporal, node2vec")
		window64  = flag.Int64("temporal-window", 0, "temporal strategy: max timestamp gap (0 = unbounded)")
		p         = flag.Float64("p", 1, "node2vec return parameter")
		q         = flag.Float64("q", 1, "node2vec in-out parameter")
		objective = flag.String("objective", "cbow", "cbow or skipgram")
		sampler   = flag.String("sampler", "ns", "ns (negative sampling) or hs (hierarchical softmax)")
		streaming = flag.Bool("streaming", false, "fused walk→train pipeline: regenerate walks on the fly instead of materializing the corpus (see docs/STREAMING.md)")
		format    = flag.String("format", "text", "output format: text (word2vec) or bin (binary snapshot, ~10x faster to load)")
		seed      = flag.Uint64("seed", 1, "random seed")
		verbose   = flag.Bool("v", false, "log one line per stage (graph load, walks, each epoch, save) to stderr")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "text" && *format != "bin" {
		fatal(fmt.Errorf("unknown format %q (want text or bin)", *format))
	}

	var input *os.File
	if *in == "-" {
		input = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	}
	start := time.Now()
	g, err := v2v.ReadEdgeList(input, v2v.EdgeListOptions{Directed: *directed, Named: *named})
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "graph: %d vertices, %d edges, loaded in %v\n",
			g.NumVertices(), g.NumEdges(), time.Since(start).Round(time.Microsecond))
	}

	opts := v2v.DefaultOptions(*dim)
	opts.WalksPerVertex = *walks
	opts.WalkLength = *length
	opts.Window = *window
	opts.Epochs = *epochs
	opts.TemporalWindow = *window64
	opts.ReturnParam = *p
	opts.InOutParam = *q
	opts.Streaming = *streaming
	opts.Seed = *seed
	switch *strategy {
	case "uniform":
		opts.Strategy = v2v.UniformWalk
	case "edge-weighted":
		opts.Strategy = v2v.EdgeWeightedWalk
	case "vertex-weighted":
		opts.Strategy = v2v.VertexWeightedWalk
	case "temporal":
		opts.Strategy = v2v.TemporalWalk
	case "node2vec":
		opts.Strategy = v2v.Node2VecWalk
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	switch *objective {
	case "cbow":
		opts.Objective = v2v.CBOW
	case "skipgram":
		opts.Objective = v2v.SkipGram
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}
	switch *sampler {
	case "ns":
		opts.Sampler = v2v.NegativeSampling
	case "hs":
		opts.Sampler = v2v.HierarchicalSoftmax
	default:
		fatal(fmt.Errorf("unknown sampler %q", *sampler))
	}

	emb, err := v2v.Embed(g, opts)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		// On the streaming path the walk stage is the counting pass
		// only; the walks are regenerated inside every epoch.
		fmt.Fprintf(os.Stderr, "walks: %d tokens in %v (%.1f Mtok/s)\n",
			emb.Tokens, emb.WalkTime.Round(time.Microsecond), mega(emb.Tokens, emb.WalkTime))
		for i, d := range emb.Stats.EpochDurations {
			workers := ""
			if i == 0 {
				workers = fmt.Sprintf(", workers %d", emb.Stats.Workers)
			}
			fmt.Fprintf(os.Stderr, "epoch %d/%d: %.3fs, %.2f Mtok/s, mean loss %.4f%s\n",
				i+1, emb.Stats.Epochs, d.Seconds(), mega(emb.Tokens, d), emb.Stats.EpochLosses[i], workers)
		}
	}

	output := &countingWriter{w: os.Stdout}
	var outFile *os.File
	if *out != "" {
		outFile, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		output.w = outFile
	}
	saveStart := time.Now()
	if *format == "bin" {
		tokens := make([]string, g.NumVertices())
		for v := range tokens {
			tokens[v] = g.Name(v)
		}
		err = v2v.SaveSnapshot(output, emb.Model, tokens)
	} else {
		err = emb.Model.Save(output, g.Name)
	}
	if err != nil {
		fatal(err)
	}
	// Close is where a deferred write error (a full disk, a network
	// file system) surfaces: a truncated model must not exit 0.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		took := time.Since(saveStart)
		fmt.Fprintf(os.Stderr, "save: %d bytes in %v (%.1f MB/s)\n",
			output.n, took.Round(time.Microsecond), mega(output.n, took))
		fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// mega returns n per second over d, in millions.
func mega(n int, d time.Duration) float64 {
	return float64(n) / d.Seconds() / 1e6
}

// countingWriter counts the bytes written through it, for the -v save
// line.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// serveMain runs the long-lived HTTP query server with graceful
// shutdown on SIGTERM/SIGINT.
func serveMain(args []string) {
	fs := flag.NewFlagSet("v2v serve", flag.ExitOnError)
	var (
		modelF   = fs.String("model", "", "saved model (required; snapshot, bundle or text, auto-detected)")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		cache    = fs.Int("cache", 4096, "response cache entries (negative disables)")
		readonly = fs.Bool("readonly", false, "disable /v1/upsert and /v1/delete (they answer 403)")
		compact  = fs.Float64("compact-frac", 0, "tombstone fraction that triggers compaction (0 = 0.25 default, negative disables)")
		quiet    = fs.Bool("q", false, "suppress serving logs")
		slowMs   = fs.Float64("slowlog-ms", 0, "log a per-stage breakdown for requests slower than this many ms (0 disables)")
		pprof    = fs.Bool("pprof", false, "expose the net/http/pprof profiling handlers under /debug/pprof/")

		readConc    = fs.Int("read-concurrency", 0, "max in-flight read requests (0 = 16x GOMAXPROCS, min 64; negative = unbounded)")
		readQueue   = fs.Int("read-queue", 0, "read requests parked awaiting a slot before shedding with 429 (0 = 2x concurrency; negative = none)")
		writeConc   = fs.Int("write-concurrency", 0, "max in-flight write requests (0 = 4x GOMAXPROCS, min 16; negative = unbounded)")
		writeQueue  = fs.Int("write-queue", 0, "write requests parked awaiting a slot before shedding with 429 (0 = 2x concurrency; negative = none)")
		deadlineMs  = fs.Float64("deadline-ms", 0, "per-request deadline for reads in ms; expired requests answer 503 (0 disables)")
		wDeadlineMs = fs.Float64("write-deadline-ms", 0, "per-request deadline for writes in ms; expired requests answer 503 (0 disables)")
		noAdmission = fs.Bool("no-admission", false, "disable admission control entirely (no concurrency bounds, no shedding)")
		retryAfter  = fs.Int("retry-after", 0, "Retry-After seconds advertised on shed (429) responses (0 = 1)")

		router       = fs.Bool("router", false, "run as a scatter-gather router over the remote shard processes at -shard-addrs")
		shardAddrs   = fs.String("shard-addrs", "", "comma-separated shard base URLs in shard order (entry i is the -shard-id i process; requires -router)")
		allowPartial = fs.Bool("allow-partial", false, "router: skip unhealthy shards and flag responses partial instead of answering 503")
		probeMs      = fs.Float64("probe-ms", 0, "router: shard health-probe interval in ms (0 = 2000)")
		remoteMs     = fs.Float64("remote-timeout-ms", 0, "router: per-shard call timeout in ms when the request carries no deadline (0 = 5000)")
		shardID      = fs.Int("shard-id", -1, "serve one shard of an N-way partition (requires -shards N; shard processes back a -router)")

		walDir      = fs.String("wal", "", "write-ahead log directory (enables durable writes + crash recovery)")
		walSync     = fs.String("wal-sync", "", "wal fsync policy: always (default), interval or never")
		walSyncIvl  = fs.Duration("wal-sync-interval", 0, "flush period under -wal-sync interval (0 = 100ms)")
		walSegBytes = fs.Int64("wal-segment-bytes", 0, "rotate wal segments at this size (0 = 64 MiB)")
		walCkBytes  = fs.Int64("wal-checkpoint-bytes", 0, "checkpoint after this much new log volume (0 = 16 MiB, negative disables volume checkpoints)")
	)
	indexCfg := indexSelection(fs, "exact")
	fs.Parse(args)
	if *modelF == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg := v2v.ServeConfig{
		Addr:            *addr,
		ModelPath:       *modelF,
		CacheSize:       *cache,
		ReadOnly:        *readonly,
		CompactFraction: *compact,
		SlowLogMs:       *slowMs,
		Pprof:           *pprof,
		Admission: v2v.ServeAdmissionConfig{
			Disabled:          *noAdmission,
			Read:              v2v.ServeClassLimit{Concurrency: *readConc, Queue: *readQueue, DeadlineMs: *deadlineMs},
			Write:             v2v.ServeClassLimit{Concurrency: *writeConc, Queue: *writeQueue, DeadlineMs: *wDeadlineMs},
			RetryAfterSeconds: *retryAfter,
		},
	}
	if *noAdmission && (*readConc != 0 || *readQueue != 0 || *writeConc != 0 || *writeQueue != 0 || *deadlineMs != 0 || *wDeadlineMs != 0 || *retryAfter != 0) {
		fatal(fmt.Errorf("-no-admission conflicts with the per-class -read-*/-write-*/-*deadline-ms/-retry-after flags"))
	}
	if *walDir != "" {
		cfg.WAL = v2v.ServeWALConfig{
			Dir:             *walDir,
			Sync:            *walSync,
			SyncInterval:    *walSyncIvl,
			SegmentBytes:    *walSegBytes,
			CheckpointBytes: *walCkBytes,
		}
	} else if *walSync != "" || *walSyncIvl != 0 || *walSegBytes != 0 || *walCkBytes != 0 {
		fatal(fmt.Errorf("-wal-sync/-wal-sync-interval/-wal-segment-bytes/-wal-checkpoint-bytes require -wal DIR"))
	}
	var err error
	if cfg.Index, err = indexCfg(); err != nil {
		fatal(err)
	}
	switch {
	case *router && *shardID >= 0:
		fatal(fmt.Errorf("-router and -shard-id are mutually exclusive (a process is a router or a shard, not both)"))
	case *router:
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.ShardAddrs = append(cfg.ShardAddrs, a)
			}
		}
		if len(cfg.ShardAddrs) == 0 {
			fatal(fmt.Errorf("-router requires -shard-addrs host:port,... (one per shard, in shard order)"))
		}
		cfg.Router = true
		cfg.AllowPartial = *allowPartial
		cfg.ProbeInterval = time.Duration(*probeMs * float64(time.Millisecond))
		cfg.RemoteTimeout = time.Duration(*remoteMs * float64(time.Millisecond))
	case *shardID >= 0:
		if cfg.Index.Shards < 2 {
			fatal(fmt.Errorf("-shard-id requires -shards N with N >= 2 (the partition width)"))
		}
		cfg.ShardID = *shardID
		cfg.ShardCount = cfg.Index.Shards
	default:
		if *shardAddrs != "" || *allowPartial || *probeMs != 0 || *remoteMs != 0 {
			fatal(fmt.Errorf("-shard-addrs/-allow-partial/-probe-ms/-remote-timeout-ms require -router"))
		}
	}
	if !*quiet {
		cfg.Log = log.New(os.Stderr, "", log.LstdFlags)
	}

	// SIGTERM/SIGINT cancel the context; Serve then stops accepting,
	// drains in-flight requests and returns nil on a clean shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := v2v.Serve(ctx, cfg); err != nil {
		fatal(err)
	}
}

// indexMain builds an HNSW graph over a saved model and writes the
// model + graph bundle, so serve/query restarts skip the build.
func indexMain(args []string) {
	fs := flag.NewFlagSet("v2v index", flag.ExitOnError)
	var (
		modelF  = fs.String("model", "", "saved model (required; snapshot or text, auto-detected)")
		outF    = fs.String("out", "", "output bundle path (required)")
		verbose = fs.Bool("v", false, "log build timing to stderr")
	)
	indexCfg := indexSelection(fs, "hnsw")
	fs.Parse(args)
	if *modelF == "" || *outF == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg, err := indexCfg()
	if err != nil {
		fatal(err)
	}
	if cfg.Kind != v2v.HNSWIndex {
		fatal(fmt.Errorf("only hnsw graphs are persisted (exact and ivf rebuild quickly); got -index %s", cfg.Kind))
	}
	f, err := os.Open(*modelF)
	if err != nil {
		fatal(err)
	}
	model, tokens, err := v2v.LoadModel(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	idx, err := v2v.NewIndex(model, cfg)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "index: %d vectors, dim %d: hnsw graph built in %v\n",
			model.Vocab, model.Dim, time.Since(start).Round(time.Millisecond))
	}
	// Atomic write (temp + rename): `v2v index -out` may target the
	// path a live server reloads from.
	if err := v2v.SaveIndexedSnapshotFile(*outF, model, tokens, idx); err != nil {
		fatal(err)
	}
}

// queryMain serves top-k neighbor queries over a saved model.
func queryMain(args []string) {
	fs := flag.NewFlagSet("v2v query", flag.ExitOnError)
	var (
		modelF  = fs.String("model", "", "saved vector file (required; output of v2v -out or v2v index)")
		k       = fs.Int("k", 10, "neighbors per query")
		verbose = fs.Bool("v", false, "log index build and query timing to stderr")
	)
	indexCfg := indexSelection(fs, "exact")
	fs.Parse(args)
	if *modelF == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg, err := indexCfg()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	// A bundle file with a matching HNSW section binds the prebuilt
	// graph here instead of rebuilding.
	model, tokens, idx, err := v2v.LoadIndexedSnapshot(*modelF, cfg)
	if err != nil {
		fatal(err)
	}
	byToken := make(map[string]int, len(tokens))
	for i, tok := range tokens {
		byToken[tok] = i
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "model: %d vectors, dim %d; %s index ready in %v\n",
			model.Vocab, model.Dim, cfg.Kind, time.Since(start).Round(time.Millisecond))
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	queries := fs.Args()
	answer := func(tok string) {
		w, ok := byToken[tok]
		if !ok {
			fmt.Fprintf(os.Stderr, "v2v query: unknown vertex %q\n", tok)
			return
		}
		qStart := time.Now()
		res := idx.SearchRow(w, *k)
		if *verbose {
			fmt.Fprintf(os.Stderr, "query %q: %v\n", tok, time.Since(qStart).Round(time.Microsecond))
		}
		for _, r := range res {
			fmt.Fprintf(out, "%s\t%s\t%.6f\n", tok, tokens[r.ID], r.Score)
		}
	}
	if len(queries) > 0 {
		for _, q := range queries {
			answer(q)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if tok := sc.Text(); tok != "" {
			answer(tok)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "v2v:", err)
	os.Exit(1)
}
