package word2vec

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"v2v/internal/vecstore"
)

// Model holds trained embeddings: one Dim-dimensional vector per
// vocabulary item (vertex). Vectors are stored row-major in a single
// 64-byte-aligned backing slice shared with the model's vector store,
// so similarity queries run on the trained weights without copying.
type Model struct {
	Dim     int
	Vocab   int
	Vectors []float32 // len Vocab*Dim, row-major

	// Lazily built query machinery over Vectors (see Store and
	// InvalidateIndex); mu guards the lazy initialisation so
	// concurrent queries on a fresh model are safe.
	mu    sync.Mutex
	store *vecstore.Store
	exact *vecstore.Exact
}

// NewModel allocates a zero model with aligned vector storage.
func NewModel(vocab, dim int) *Model {
	return &Model{Dim: dim, Vocab: vocab, Vectors: vecstore.AlignedSlice(vocab * dim)}
}

// Store returns the model's vector store: a zero-copy view of the
// trained weight matrix with cached L2 norms, the input for building
// search indexes. The store (and its norm cache) is built on first
// use, safely under concurrent queries; call InvalidateIndex after
// mutating Vectors directly.
func (m *Model) Store() *vecstore.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.storeLocked()
}

func (m *Model) storeLocked() *vecstore.Store {
	if m.store == nil {
		m.store = vecstore.Wrap(m.Vectors, m.Vocab, m.Dim)
	}
	return m.store
}

// exactIndex returns the model's cached exact cosine index.
func (m *Model) exactIndex() *vecstore.Exact {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.exact == nil {
		m.exact = vecstore.NewExact(m.storeLocked(), vecstore.Cosine, 0)
	}
	return m.exact
}

// InvalidateIndex drops the cached store, norms and index after the
// embedding matrix was mutated (e.g. continued training or
// normalisation). The next query rebuilds them. Invalidation must not
// run concurrently with queries (it is a mutation-side API, like
// writing Vectors).
func (m *Model) InvalidateIndex() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store != nil {
		m.store.InvalidateNorms()
	}
	m.store, m.exact = nil, nil
}

// Vector returns the embedding of vertex w. The slice aliases model
// storage; call InvalidateIndex before querying again if you mutate
// it.
func (m *Model) Vector(w int) []float32 {
	return m.Vectors[w*m.Dim : (w+1)*m.Dim]
}

// Rows returns all embeddings as a [Vocab][Dim] float64 matrix
// (newly allocated), the interchange format still used by clustering
// and PCA. Similarity consumers should use Store instead.
func (m *Model) Rows() [][]float64 {
	rows := make([][]float64, m.Vocab)
	flat := make([]float64, m.Vocab*m.Dim)
	for i, x := range m.Vectors {
		flat[i] = float64(x)
	}
	for w := 0; w < m.Vocab; w++ {
		rows[w] = flat[w*m.Dim : (w+1)*m.Dim]
	}
	return rows
}

// Cosine returns the cosine similarity between vertices a and b, or 0
// when either vector is zero.
func (m *Model) Cosine(a, b int) float64 {
	return m.Store().Cosine(a, b)
}

// Neighbor is a similarity search result.
type Neighbor struct {
	Word       int
	Similarity float64
}

// Neighbors returns the k vertices most cosine-similar to w,
// excluding w itself, in decreasing similarity order (ties toward the
// smaller vertex). It runs on the model's exact index: cached norms,
// int8 and float32 prefilters and bounded top-k selection instead of the
// historical sort-everything scan, with identical results.
func (m *Model) Neighbors(w, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return toNeighbors(m.exactIndex().SearchRow(w, k))
}

// MostSimilar is the historical name of Neighbors.
func (m *Model) MostSimilar(w, k int) []Neighbor { return m.Neighbors(w, k) }

// NeighborsIndex answers a neighbor query through a caller-supplied
// index (e.g. an HNSW index for approximate search); w is excluded
// from the results.
func NeighborsIndex(idx vecstore.Index, w, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return toNeighbors(idx.SearchRow(w, k))
}

func toNeighbors(res []vecstore.Result) []Neighbor {
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{Word: r.ID, Similarity: r.Score}
	}
	return out
}

// Normalize L2-normalises every vector in place and invalidates the
// cached index. Zero vectors are left untouched.
func (m *Model) Normalize() {
	for w := 0; w < m.Vocab; w++ {
		v := m.Vector(w)
		var n float64
		for _, x := range v {
			n += float64(x) * float64(x)
		}
		if n == 0 {
			continue
		}
		inv := float32(1 / math.Sqrt(n))
		for i := range v {
			v[i] *= inv
		}
	}
	m.InvalidateIndex()
}

// Save writes the model in the word2vec text format: a header line
// "vocab dim" followed by one line per vertex: "index x1 x2 ... xD".
// name maps a vertex index to its token; nil uses decimal indices.
func (m *Model) Save(w io.Writer, name func(int) string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", m.Vocab, m.Dim)
	for v := 0; v < m.Vocab; v++ {
		if name != nil {
			fmt.Fprint(bw, name(v))
		} else {
			fmt.Fprint(bw, v)
		}
		for _, x := range m.Vector(v) {
			fmt.Fprintf(bw, " %g", x)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Load reads a model in the word2vec text format written by Save.
// It returns the model and the token of every row (the first field of
// each line).
func Load(r io.Reader) (*Model, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("word2vec: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return nil, nil, fmt.Errorf("word2vec: bad header %q", sc.Text())
	}
	vocab, err := strconv.Atoi(header[0])
	if err != nil || vocab < 0 {
		return nil, nil, fmt.Errorf("word2vec: bad vocab size %q", header[0])
	}
	dim, err := strconv.Atoi(header[1])
	if err != nil || dim <= 0 {
		return nil, nil, fmt.Errorf("word2vec: bad dimension %q", header[1])
	}
	m := NewModel(vocab, dim)
	tokens := make([]string, vocab)
	for v := 0; v < vocab; v++ {
		if !sc.Scan() {
			return nil, nil, fmt.Errorf("word2vec: truncated input at row %d of %d", v, vocab)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != dim+1 {
			return nil, nil, fmt.Errorf("word2vec: row %d has %d fields, want %d", v, len(fields), dim+1)
		}
		tokens[v] = fields[0]
		vec := m.Vector(v)
		for i, f := range fields[1:] {
			x, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("word2vec: row %d field %d: %v", v, i, err)
			}
			vec[i] = float32(x)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return m, tokens, nil
}
