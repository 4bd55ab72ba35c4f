// Package walk implements the constrained random walks of the paper's
// Section II-A and turns them into a training corpus for the word2vec
// models in package word2vec.
//
// Supported constraints mirror the paper: edge direction (directed
// graphs terminate a walk at a vertex with no outgoing edge), edge
// weights (transition probability proportional to edge weight, via
// alias tables), vertex weights (probability proportional to target
// vertex weight), and timestamps (strictly time-increasing walks,
// optionally with a window threshold between consecutive edges). A
// node2vec-style second-order (p, q)-biased walk is included as an
// extension for ablation studies.
//
// Walks are never stored on the way to training: a Stream re-derives
// each one from its own RNG stream (seed, walkID) whenever it is read,
// so memory is bounded by a few buffers per reader instead of the
// corpus size, and the walks are bit-identical for any worker count.
// Materialize stores them as a Corpus when random access or a file is
// needed.
package walk

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"strconv"
	"strings"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

// Strategy selects the transition rule of the random walk.
type Strategy int

const (
	// Uniform moves to a uniformly random (out-)neighbour.
	Uniform Strategy = iota
	// EdgeWeighted moves with probability proportional to edge weight.
	EdgeWeighted
	// VertexWeighted moves with probability proportional to the
	// weight of the target vertex.
	VertexWeighted
	// Temporal requires strictly increasing edge timestamps, with an
	// optional maximum gap (Config.TemporalWindow) between
	// consecutive edges.
	Temporal
	// Node2Vec is the second-order biased walk of Grover & Leskovec,
	// parameterised by Config.ReturnParam (p) and Config.InOutParam
	// (q). Included as an extension; the paper's V2V uses Uniform.
	Node2Vec
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case EdgeWeighted:
		return "edge-weighted"
	case VertexWeighted:
		return "vertex-weighted"
	case Temporal:
		return "temporal"
	case Node2Vec:
		return "node2vec"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config controls corpus generation. The paper's defaults are
// WalksPerVertex = Length = 1000; tests and benchmarks use smaller
// budgets (see docs/EXPERIMENTS.md).
type Config struct {
	WalksPerVertex int      // t in the paper
	Length         int      // l in the paper (number of vertices per walk)
	Strategy       Strategy //
	TemporalWindow int64    // max gap between consecutive edge times; 0 = unbounded
	ReturnParam    float64  // node2vec p; <= 0 means 1
	InOutParam     float64  // node2vec q; <= 0 means 1
	Seed           uint64   //
	Workers        int      // 0 means GOMAXPROCS
}

// DefaultConfig returns the paper's default walk parameters.
func DefaultConfig() Config {
	return Config{WalksPerVertex: 1000, Length: 1000, Strategy: Uniform}
}

// Corpus is a set of vertex sequences stored in flat form: walk i is
// Tokens[Offsets[i]:Offsets[i+1]]. Vertex indices are stored as int32
// to halve memory, which matters at the paper's default walk budget.
type Corpus struct {
	Tokens  []int32
	Offsets []int
}

// NumWalks returns the number of walks in the corpus.
func (c *Corpus) NumWalks() int { return len(c.Offsets) - 1 }

// NumTokens returns the total number of vertex occurrences.
func (c *Corpus) NumTokens() int { return len(c.Tokens) }

// Walk returns the i-th walk. The slice aliases corpus storage.
func (c *Corpus) Walk(i int) []int32 {
	return c.Tokens[c.Offsets[i]:c.Offsets[i+1]]
}

// WalkSeq returns an iterator over walks [lo, hi), each a Walk view.
func (c *Corpus) WalkSeq(lo, hi int) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		for i := lo; i < hi; i++ {
			if !yield(c.Walk(i)) {
				return
			}
		}
	}
}

// Counts returns the number of occurrences of each vertex in [0, vocab),
// or an error naming a token outside that range.
func (c *Corpus) Counts(vocab int) ([]int, error) {
	counts := make([]int, vocab)
	for _, tok := range c.Tokens {
		if tok < 0 || int(tok) >= vocab {
			return nil, fmt.Errorf("walk: token %d out of vocab [0,%d)", tok, vocab)
		}
		counts[tok]++
	}
	return counts, nil
}

// Save writes the corpus as text: one walk per line, space-separated
// vertex indices.
func (c *Corpus) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# corpus: %d walks, %d tokens\n", c.NumWalks(), c.NumTokens())
	for i := 0; i < c.NumWalks(); i++ {
		for j, tok := range c.Walk(i) {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%d", tok)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// LoadCorpus reads a corpus written by Save. Blank lines and '#'
// comments are skipped; empty walks are not representable and are
// dropped.
func LoadCorpus(r io.Reader) (*Corpus, error) {
	c := &Corpus{Offsets: []int{0}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 256*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n := 0
		for _, field := range strings.Fields(line) {
			tok, err := strconv.ParseInt(field, 10, 32)
			if err != nil || tok < 0 {
				return nil, fmt.Errorf("walk: line %d: bad token %q", lineNo, field)
			}
			c.Tokens = append(c.Tokens, int32(tok))
			n++
		}
		c.Offsets = append(c.Offsets, c.Offsets[len(c.Offsets)-1]+n)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewStream validates cfg against g and returns the stream of its
// walks. Alias tables (weighted strategies) and time-sorted adjacency
// (temporal walks) are built here, once; no walk is generated until the
// stream is read.
func NewStream(g *graph.Graph, cfg Config) (*Stream, error) {
	if cfg.WalksPerVertex <= 0 {
		return nil, fmt.Errorf("walk: WalksPerVertex must be positive, got %d", cfg.WalksPerVertex)
	}
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("walk: Length must be positive, got %d", cfg.Length)
	}
	switch cfg.Strategy {
	case Uniform, Node2Vec:
	case EdgeWeighted:
		if !g.Weighted() {
			return nil, fmt.Errorf("walk: EdgeWeighted strategy on unweighted graph")
		}
	case VertexWeighted:
		if !g.HasVertexWeights() {
			return nil, fmt.Errorf("walk: VertexWeighted strategy without vertex weights")
		}
	case Temporal:
		if !g.Temporal() {
			return nil, fmt.Errorf("walk: Temporal strategy on graph without timestamps")
		}
	default:
		return nil, fmt.Errorf("walk: unknown strategy %v", cfg.Strategy)
	}
	s := &Stream{g: g, cfg: cfg, numWalks: g.NumVertices() * cfg.WalksPerVertex}
	switch cfg.Strategy {
	case EdgeWeighted, VertexWeighted:
		s.buildAliases()
	case Temporal:
		s.buildTemporal()
	}
	return s, nil
}

// buildAliases precomputes one alias table per vertex with positive
// out-degree, with weights taken from edges or target vertices.
func (s *Stream) buildAliases() {
	n := s.g.NumVertices()
	s.aliases = make([]*AliasTable, n)
	for v := 0; v < n; v++ {
		adj := s.g.Neighbors(v)
		if len(adj) == 0 {
			continue
		}
		w := make([]float64, len(adj))
		switch s.cfg.Strategy {
		case EdgeWeighted:
			copy(w, s.g.EdgeWeights(v))
		case VertexWeighted:
			for i, t := range adj {
				w[i] = s.g.VertexWeight(t)
			}
		}
		var total float64
		for _, x := range w {
			total += x
		}
		if total <= 0 {
			// Degenerate all-zero weights: fall back to uniform.
			for i := range w {
				w[i] = 1
			}
		}
		s.aliases[v] = NewAliasTable(w)
	}
}

// buildTemporal sorts every adjacency list by edge timestamp so that a
// temporal step can binary-search the earliest admissible edge.
func (s *Stream) buildTemporal() {
	n := s.g.NumVertices()
	s.tAdj = make([][]int, n)
	s.tTimes = make([][]int64, n)
	for v := 0; v < n; v++ {
		adj := s.g.Neighbors(v)
		times := s.g.EdgeTimes(v)
		idx := make([]int, len(adj))
		for i := range idx {
			idx[i] = i
		}
		// Insertion sort by time; adjacency lists are short relative
		// to n and mostly sorted after CSR construction.
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && times[idx[j]] < times[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		sa := make([]int, len(adj))
		st := make([]int64, len(adj))
		for i, k := range idx {
			sa[i] = adj[k]
			st[i] = times[k]
		}
		s.tAdj[v] = sa
		s.tTimes[v] = st
	}
}

// walkFrom writes one walk starting at start into scratch and returns
// its length (>= 1; the start vertex always appears).
func (s *Stream) walkFrom(start int, rng *xrand.RNG, scratch []int32) int {
	g := s.g
	cfg := s.cfg
	scratch[0] = int32(start)
	cur := start
	prev := -1
	var curTime int64 = -1 << 62 // temporal walks: minimum admissible previous time
	for step := 1; step < cfg.Length; step++ {
		var next int
		switch cfg.Strategy {
		case Uniform:
			adj := g.Neighbors(cur)
			if len(adj) == 0 {
				return step
			}
			next = adj[rng.Intn(len(adj))]
		case EdgeWeighted, VertexWeighted:
			at := s.aliases[cur]
			if at == nil {
				return step
			}
			next = g.Neighbors(cur)[at.Sample(rng)]
		case Temporal:
			nxt, t, ok := s.temporalStep(cur, curTime, rng)
			if !ok {
				return step
			}
			next = nxt
			curTime = t
		case Node2Vec:
			nxt, ok := s.node2vecStep(prev, cur, rng)
			if !ok {
				return step
			}
			next = nxt
		}
		scratch[step] = int32(next)
		prev = cur
		cur = next
	}
	return cfg.Length
}

// temporalStep picks a uniformly random outgoing edge of cur whose
// timestamp is strictly greater than after and, when a window is
// configured, at most after+window. Returns the chosen neighbour, the
// edge's timestamp and whether a step was possible.
func (s *Stream) temporalStep(cur int, after int64, rng *xrand.RNG) (int, int64, bool) {
	times := s.tTimes[cur]
	if len(times) == 0 {
		return 0, 0, false
	}
	// lo = first index with time > after.
	lo, hi := 0, len(times)
	for lo < hi {
		mid := (lo + hi) / 2
		if times[mid] > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	end := len(times)
	if s.cfg.TemporalWindow > 0 && after > -1<<61 {
		limit := after + s.cfg.TemporalWindow
		e, h := lo, len(times)
		for e < h {
			mid := (e + h) / 2
			if times[mid] > limit {
				h = mid
			} else {
				e = mid + 1
			}
		}
		end = e
	}
	if lo >= end {
		return 0, 0, false
	}
	i := lo + rng.Intn(end-lo)
	return s.tAdj[cur][i], times[i], true
}

// node2vecStep performs one second-order biased step: from cur, with
// previous vertex prev, candidate x is weighted 1/p if x == prev, 1 if
// x is adjacent to prev, and 1/q otherwise. Rejection sampling keeps
// the step O(1) expected without per-(prev, cur) alias tables.
func (s *Stream) node2vecStep(prev, cur int, rng *xrand.RNG) (int, bool) {
	g := s.g
	adj := g.Neighbors(cur)
	if len(adj) == 0 {
		return 0, false
	}
	if prev < 0 {
		return adj[rng.Intn(len(adj))], true
	}
	p := s.cfg.ReturnParam
	if p <= 0 {
		p = 1
	}
	q := s.cfg.InOutParam
	if q <= 0 {
		q = 1
	}
	maxW := 1.0
	if 1/p > maxW {
		maxW = 1 / p
	}
	if 1/q > maxW {
		maxW = 1 / q
	}
	for {
		x := adj[rng.Intn(len(adj))]
		var w float64
		switch {
		case x == prev:
			w = 1 / p
		case g.HasEdge(prev, x):
			w = 1
		default:
			w = 1 / q
		}
		if rng.Float64()*maxW < w {
			return x, true
		}
	}
}
