package v2v_test

import (
	"fmt"
	"log"

	"v2v"
)

// Embed a planted-partition graph, read a vertex's nearest neighbours,
// and recover the communities with k-means. One worker keeps the
// printed numbers the same on every machine.
func ExampleEmbed() {
	// The paper's synthetic benchmark at alpha = 0.5: ten communities
	// of 100 vertices (Section III's "1000 vertices and 25000 edges").
	g, truth := v2v.CommunityBenchmark(v2v.DefaultBenchmarkConfig(0.5, 1))
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Embed each vertex as a 50-dimensional vector. DefaultOptions
	// uses a laptop-scale walk budget; the paper's defaults are
	// WalksPerVertex = WalkLength = 1000.
	opts := v2v.DefaultOptions(50)
	opts.Seed = 42
	opts.Workers = 1
	emb, err := v2v.Embed(g, opts)
	if err != nil {
		log.Fatal(err)
	}

	// The nearest neighbours of vertex 0 are other members of
	// community 0 (vertices 0-99).
	fmt.Println("nearest neighbours of vertex 0 (community 0):")
	for _, nb := range emb.Model.MostSimilar(0, 5) {
		fmt.Printf("  vertex %4d  community %d  cosine %.3f\n", nb.Word, truth[nb.Word], nb.Similarity)
	}

	// Cluster the embedding into 10 communities and score it against
	// the ground truth with the paper's pairwise precision and recall.
	res, err := emb.DetectCommunities(v2v.CommunityConfig{K: 10, Restarts: 100, Seed: 7, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	p, r, err := v2v.EvaluateCommunities(truth, res.Partition)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("community detection: precision %.3f, recall %.3f\n", p, r)
	// Output:
	// graph: 1000 vertices, 24950 edges
	// nearest neighbours of vertex 0 (community 0):
	//   vertex   43  community 0  cosine 0.961
	//   vertex   23  community 0  cosine 0.960
	//   vertex   83  community 0  cosine 0.953
	//   vertex   59  community 0  cosine 0.952
	//   vertex   56  community 0  cosine 0.951
	// community detection: precision 0.998, recall 0.998
}

// Temporal walks (the paper's Section II-A) on a timestamped
// three-tier service graph — clients, frontends, backends — where a
// walk may only follow edges forward in time. The tier of a node is
// recoverable from the embedding alone.
func ExampleEmbed_temporal() {
	const clients, frontends, backends = 20, 10, 5
	b := v2v.NewGraphBuilder(0)
	b.SetDirected(true)
	tier := make([]int, 0, clients+frontends+backends)
	for c := 0; c < clients; c++ {
		tier = append(tier, 0)
	}
	for f := 0; f < frontends; f++ {
		tier = append(tier, 1)
	}
	for k := 0; k < backends; k++ {
		tier = append(tier, 2)
	}
	frontend := func(i int) int { return clients + i }
	backend := func(i int) int { return clients + frontends + i }
	// Each client sends requests to a few frontends; each frontend
	// calls a backend, which answers, and then answers the client.
	var t int64
	for c := 0; c < clients; c++ {
		for rep := 0; rep < 3; rep++ {
			f, k := (c+rep*3)%frontends, (c+rep)%backends
			for _, e := range [][2]int{{c, frontend(f)}, {frontend(f), backend(k)}, {backend(k), frontend(f)}, {frontend(f), c}} {
				t++
				b.AddTemporalEdge(e[0], e[1], 1, t)
			}
		}
	}
	g := b.Build()
	fmt.Printf("request graph: %d nodes, %d timestamped edges\n", g.NumVertices(), g.NumEdges())

	// Each step moves strictly forward in time, within 40 ticks.
	opts := v2v.DefaultOptions(16)
	opts.Strategy = v2v.TemporalWalk
	opts.TemporalWindow = 40
	opts.WalksPerVertex = 40
	opts.WalkLength = 20
	opts.Epochs = 8
	opts.Seed = 5
	opts.Workers = 1
	for _, s := range []v2v.WalkStrategy{v2v.TemporalWalk, v2v.UniformWalk} {
		opts.Strategy = s
		emb, err := v2v.Embed(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		acc, err := emb.CrossValidateLabels(tier, 3, 5, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s walks: %d tokens, tier predicted with accuracy %.3f\n", s, emb.Tokens, acc)
	}
	// Output:
	// request graph: 35 nodes, 240 timestamped edges
	// temporal walks: 15040 tokens, tier predicted with accuracy 0.914
	// uniform walks: 28000 tokens, tier predicted with accuracy 0.857
}
