package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"

	"v2v"
)

// graphFixture is the paper's community benchmark (Section IV): comms
// communities of size vertices, each holding a share alpha of its
// possible edges, plus inter edges between communities. truth keeps
// the community of every vertex for the F1 oracle.
type graphFixture struct {
	edges [][2]int
	truth []int
}

func genGraph(seed uint64, comms, size int, alpha float64, inter int) graphFixture {
	r := newRNG(seed)
	n := comms * size
	g := graphFixture{truth: make([]int, n)}
	degree := make([]int, n)
	add := func(u, v int) {
		g.edges = append(g.edges, [2]int{u, v})
		degree[u]++
		degree[v]++
	}
	pairs := size * (size - 1) / 2
	want := int(alpha * float64(pairs))
	idx := make([]int, pairs)
	for c := 0; c < comms; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			g.truth[base+i] = c
		}
		// Partial Fisher-Yates over the pair indices: want distinct edges.
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < want; i++ {
			j := i + r.Intn(pairs-i)
			idx[i], idx[j] = idx[j], idx[i]
			u, v := unrank(idx[i])
			add(base+u, base+v)
		}
	}
	for i := 0; i < inter; i++ {
		u := r.Intn(n)
		v := r.Intn(n)
		for g.truth[u] == g.truth[v] {
			v = r.Intn(n)
		}
		add(u, v)
	}
	// A vertex without an edge would drop out of the walks and the
	// vocabulary; tie it to its community so every label has a vector.
	for u := 0; u < n; u++ {
		if degree[u] == 0 {
			add(u, g.truth[u]*size+(u+1)%size)
		}
	}
	return g
}

// unrank maps a pair index to (u, v) with u < v, rows of a strict
// upper triangle laid out by v.
func unrank(k int) (int, int) {
	v := 1
	for k >= v {
		k -= v
		v++
	}
	return k, v
}

func (g graphFixture) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range g.edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// vectorFixture is the served model: n points of dim floats, each an
// anchor ~ N(0, 5²) plus N(0, 0.5²) noise — the cmd/hnswrecall shape,
// drawn by the benchmark's own generator. Row i has token "v<i>".
type vectorFixture struct {
	n, dim  int
	data    []float32
	anchors []float32 // nAnchors × dim, kept so write payloads share the shape
	tokens  []string
}

const (
	anchorSigma = 5.0
	noiseSigma  = 0.5
)

func genVectors(seed uint64, n, dim, nAnchors int) *vectorFixture {
	r := newRNG(seed)
	v := &vectorFixture{
		n: n, dim: dim,
		data:    make([]float32, n*dim),
		anchors: make([]float32, nAnchors*dim),
		tokens:  make([]string, n),
	}
	for i := range v.anchors {
		v.anchors[i] = float32(anchorSigma * r.Norm())
	}
	for i := 0; i < n; i++ {
		v.tokens[i] = "v" + strconv.Itoa(i)
		v.point(r, v.data[i*dim:(i+1)*dim])
	}
	return v
}

// point fills dst with a fresh anchor-plus-noise vector.
func (v *vectorFixture) point(r *rng, dst []float32) {
	a := r.Intn(len(v.anchors)/v.dim) * v.dim
	for j := range dst {
		dst[j] = v.anchors[a+j] + float32(noiseSigma*r.Norm())
	}
}

func (v *vectorFixture) row(i int) []float32 { return v.data[i*v.dim : (i+1)*v.dim] }

// writeSnapshot stores the fixture in the binary snapshot format the
// server reads; the format belongs to the program, so its own writer
// is used.
func (v *vectorFixture) writeSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	m := &v2v.Model{Dim: v.dim, Vocab: v.n, Vectors: v.data}
	if err := v2v.SaveSnapshot(f, m, v.tokens); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
