package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"v2v"
	"v2v/internal/vecstore"
	"v2v/internal/wal"
)

// The layer pass: the traced run replays a workload's generated inputs
// straight into the public functions of the layers on its path, each
// call under its own span, and reports one figure per layer. The
// packages are imported here as subjects; nothing in the end-to-end
// measurement depends on them.

// timed runs fn under a span and returns how long it took.
func (e *env) timed(name string, fn func() error) (time.Duration, error) {
	var took time.Duration
	err := e.tr.do(name, 0, func(int64) error {
		t0 := time.Now()
		err := fn()
		took = time.Since(t0)
		return err
	})
	return took, err
}

// dotSink keeps the compiler from discarding the kernel loop.
var dotSink float64

func (e *env) pipelineLayers(res *result, gPath string) error {
	sz := e.size
	var g *v2v.Graph
	var reads []float64
	for i := 0; i < 10; i++ {
		took, err := e.timed("graph.ReadEdgeList", func() error {
			f, err := os.Open(gPath)
			if err != nil {
				return err
			}
			defer f.Close()
			g, err = v2v.ReadEdgeList(f, v2v.EdgeListOptions{})
			return err
		})
		if err != nil {
			return err
		}
		reads = append(reads, took.Seconds())
	}
	res.set("graph.read_medges_per_s", float64(g.NumEdges())/median(reads)/1e6)

	// The CLI's defaults, as cmd/v2v sets them.
	opts := v2v.DefaultOptions(cliDim)
	opts.WalksPerVertex, opts.WalkLength, opts.Epochs, opts.Seed = sz.walks, sz.walkLength, cliEpochs, 1
	var corpus *v2v.WalkCorpus
	took, err := e.timed("walk.GenerateCorpus", func() error {
		var err error
		corpus, err = v2v.GenerateWalks(g, opts)
		return err
	})
	if err != nil {
		return err
	}
	res.set("walk.tokens", float64(corpus.NumTokens()))
	res.set("walk.mtok_per_s", float64(corpus.NumTokens())/took.Seconds()/1e6)

	var emb *v2v.Embedding
	if _, err := e.timed("word2vec.Train", func() error {
		var err error
		emb, err = v2v.EmbedWalks(g, corpus, opts)
		return err
	}); err != nil {
		return err
	}
	res.set("word2vec.train_s", emb.TrainTime.Seconds())
	res.set("word2vec.mtok_per_s", float64(corpus.NumTokens())*float64(emb.Stats.Epochs)/emb.TrainTime.Seconds()/1e6)
	return nil
}

func (e *env) serveLayers(res *result, name string, spec serveSpec, fixture *vectorFixture, dir string) error {
	sz := e.size
	path := filepath.Join(dir, "V.snap")
	cfg := v2v.IndexConfig{Kind: v2v.ExactIndex}
	if spec.hnsw {
		path = filepath.Join(dir, "V.hnsw")
		cfg = v2v.IndexConfig{Kind: v2v.HNSWIndex}
		if len(spec.indexArgs) > 0 {
			cfg.Shards = 2
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	res.set("snapshot.bytes_per_vector", float64(info.Size())/float64(fixture.n))

	var (
		model  *v2v.Model
		tokens []string
		idx    v2v.Index
	)
	took, err := e.timed("snapshot.LoadBundle", func() error {
		var err error
		model, tokens, idx, err = v2v.LoadIndexedSnapshot(path, cfg)
		return err
	})
	if err != nil {
		return err
	}
	res.set("snapshot.load_mb_per_s", mb/took.Seconds())
	took, err = e.timed("snapshot.SaveBundleFile", func() error {
		out := filepath.Join(dir, "resaved")
		if !spec.hnsw {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			if err := v2v.SaveSnapshot(f, model, tokens); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return v2v.SaveIndexedSnapshotFile(out, model, tokens, idx)
	})
	if err != nil {
		return err
	}
	res.set("snapshot.save_mb_per_s", mb/took.Seconds())
	if name == "serve_hot" {
		return nil // the index and the kernel are off this workload's path
	}

	queries := newRNG(e.seed ^ 0x6c6179657273).Perm(fixture.n)[:sz.layerQueries]
	search := func(span string) (float64, [][]int, error) {
		var us []float64
		got := make([][]int, 0, len(queries))
		for _, q := range queries {
			var hits []v2v.SearchResult
			took, err := e.timed(span, func() error {
				hits = idx.SearchRow(q, topK)
				return nil
			})
			if err != nil {
				return 0, nil, err
			}
			us = append(us, float64(took)/1e3)
			ids := make([]int, len(hits))
			for i, h := range hits {
				ids[i] = h.ID
			}
			got = append(got, ids)
		}
		return median(us), got, nil
	}

	if !spec.hnsw {
		took, err := e.timed("vecstore.DotF64", func() error {
			q := fixture.row(0)
			for i := 0; i < fixture.n; i++ {
				dotSink += vecstore.DotF64(q, fixture.row(i))
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.set("vecstore.dot_ns_per_row", float64(took)/float64(fixture.n))
		us, _, err := search("vecstore.Exact.SearchRow")
		if err != nil {
			return err
		}
		res.set("vecstore.exact_search_us", us)
		return nil
	}

	span, metric := "vecstore.HNSW.SearchRow", "vecstore.hnsw_search_us"
	if cfg.Shards > 1 {
		span, metric = "vecstore.Sharded.SearchRow", "vecstore.sharded_search_us"
	}
	us, got, err := search(span)
	if err != nil {
		return err
	}
	res.set(metric, us)
	oracle := newCosineOracle(fixture.data, fixture.dim)
	var recall float64
	checked := min(len(queries), 100)
	for i := 0; i < checked; i++ {
		recall += overlap(oracle.topK(queries[i], topK), got[i])
	}
	res.set("vecstore.hnsw_recall_at_10", recall/float64(checked))

	took, err = e.timed("vecstore.Open", func() error {
		_, err := v2v.NewIndex(model, cfg)
		return err
	})
	if err != nil {
		return err
	}
	res.set("vecstore.hnsw_build_rows_per_s", float64(fixture.n)/took.Seconds())

	if !spec.wal {
		return nil
	}
	mut, ok := v2v.AsMutableIndex(idx)
	if !ok {
		return fmt.Errorf("%T is not mutable", idx)
	}
	r := newRNG(e.seed ^ 0x696e73657274)
	vec := make([]float32, fixture.dim)
	var inserts, appends []float64
	for i := 0; i < sz.layerQueries; i++ {
		fixture.point(r, vec)
		took, err := e.timed("vecstore.MutableIndex.Insert", func() error {
			_, err := mut.Insert(vec)
			return err
		})
		if err != nil {
			return err
		}
		inserts = append(inserts, float64(took)/1e3)
	}
	res.set("vecstore.hnsw_insert_us", median(inserts))

	log, err := wal.Open(filepath.Join(dir, "layer-wal"), wal.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < sz.layerQueries; i++ {
		fixture.point(r, vec)
		rec := wal.Record{Op: wal.OpUpsert, Token: fmt.Sprintf("layer-%d", i), Vector: vec}
		took, err := e.timed("wal.Log.Append", func() error {
			_, err := log.Append(rec)
			return err
		})
		if err != nil {
			log.Close()
			return err
		}
		appends = append(appends, float64(took)/1e3)
	}
	res.set("wal.append_sync_us", median(appends))
	return log.Close()
}
