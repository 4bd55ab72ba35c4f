// Package knn implements the k-nearest-neighbour classifier and the
// k-fold cross-validation harness used by the paper's feature
// prediction experiments (Section V): labels are predicted by a
// majority vote of the k nearest embeddings under cosine distance.
//
// Neighbour search runs on the shared vector subsystem
// (internal/vecstore): training points live in a contiguous float32
// store with cached norms, and queries use bounded top-k selection —
// O(n log k) per query instead of scoring plus sorting all n training
// points — through a pluggable index (exact by default, optionally
// HNSW for approximate prediction at scale). Distance evaluation
// accumulates in float64 in the same order as the historical
// [][]float64 code, so on float32-representable inputs — embeddings,
// which are born float32 — exact-index predictions are bit-for-bit
// identical to the seed's. Arbitrary float64 inputs passed through
// the [][]float64 shims are quantized to float32 at fit/query time;
// distances then differ from the historical float64 path by at most
// the rounding of the inputs (near-ties may resolve differently).
package knn

import (
	"fmt"
	"sort"

	"v2v/internal/vecstore"
	"v2v/internal/xrand"
)

// Distance selects the metric.
type Distance int

const (
	// Cosine distance (1 - cosine similarity); the paper's choice.
	Cosine Distance = iota
	// Euclidean distance.
	Euclidean
)

// String implements fmt.Stringer.
func (d Distance) String() string {
	switch d {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// metric maps the classifier distance onto the vecstore score
// convention (higher is better).
func (d Distance) metric() vecstore.Metric {
	if d == Euclidean {
		return vecstore.Euclidean
	}
	return vecstore.Cosine
}

// dist converts an index score back to the distance the seed
// implementation compared: 1 - similarity for cosine, the squared
// distance (monotone in Euclidean) for Euclidean. Both conversions
// are exact, so vote tie-breaking matches the seed bit-for-bit.
func (d Distance) dist(score float64) float64 {
	if d == Euclidean {
		return -score
	}
	return 1 - score
}

// Classifier is a fitted k-NN model: fitting stores the labelled
// training points in a vector store; prediction is a top-k index
// query plus a majority vote.
type Classifier struct {
	K        int
	Distance Distance

	store  *vecstore.Store
	labels []int
	index  vecstore.Index
}

// NewClassifier stores the labelled training points, converting the
// historical [][]float64 row format into the float32 store. It panics
// when the inputs disagree in length or k < 1.
func NewClassifier(k int, dist Distance, points [][]float64, labels []int) *Classifier {
	if len(points) != len(labels) {
		panic(fmt.Sprintf("knn: %d points but %d labels", len(points), len(labels)))
	}
	return NewClassifierStore(k, dist, vecstore.FromRows64(points), labels)
}

// NewClassifierStore is the allocation-free fast path: it fits the
// classifier directly over an existing vector store (e.g. trained
// embeddings), sharing storage. It panics when the store and labels
// disagree in length, the store is empty, or k < 1.
func NewClassifierStore(k int, dist Distance, s *vecstore.Store, labels []int) *Classifier {
	if s.Len() != len(labels) {
		panic(fmt.Sprintf("knn: %d points but %d labels", s.Len(), len(labels)))
	}
	if k < 1 {
		panic(fmt.Sprintf("knn: k must be >= 1, got %d", k))
	}
	if s.Len() == 0 {
		panic("knn: empty training set")
	}
	return &Classifier{
		K:        k,
		Distance: dist,
		store:    s,
		labels:   labels,
		index:    vecstore.NewExact(s, dist.metric(), 0),
	}
}

// UseIndex replaces the default exact index with the one described by
// cfg (the metric is forced to the classifier's distance). An HNSW
// index makes prediction approximate but sub-linear in the training
// set size; see docs/INDEXES.md. The training store is never empty
// and holds no tombstones, so every index answers each query with at
// least one row to vote.
func (c *Classifier) UseIndex(cfg vecstore.Config) error {
	cfg.Metric = c.Distance.metric()
	idx, err := vecstore.Open(c.store, cfg)
	if err != nil {
		return err
	}
	c.index = idx
	return nil
}

// Predict returns the majority label of x's k nearest training
// points. Vote ties are broken toward the smaller total distance,
// then toward the smaller label for determinism.
func (c *Classifier) Predict(x []float64) int {
	q := make([]float32, len(x))
	for i, v := range x {
		q[i] = float32(v)
	}
	return c.vote(c.index.Search(q, c.K))
}

// PredictAll classifies every query through the index's batch path.
func (c *Classifier) PredictAll(queries [][]float64) []int {
	qs := make([][]float32, len(queries))
	for i, x := range queries {
		qs[i] = make([]float32, len(x))
		for j, v := range x {
			qs[i][j] = float32(v)
		}
	}
	return c.predictBatch(qs)
}

// PredictStore classifies every row of qs, the zero-conversion fast
// path for embedding queries.
func (c *Classifier) PredictStore(qs *vecstore.Store) []int {
	rows := make([][]float32, qs.Len())
	for i := range rows {
		rows[i] = qs.Row(i)
	}
	return c.predictBatch(rows)
}

// PredictRows classifies float32 row views directly.
func (c *Classifier) PredictRows(qs [][]float32) []int { return c.predictBatch(qs) }

func (c *Classifier) predictBatch(qs [][]float32) []int {
	out := make([]int, len(qs))
	for i, res := range c.index.SearchBatch(qs, c.K) {
		out[i] = c.vote(res)
	}
	return out
}

// vote reproduces the seed's majority vote: ties toward the smaller
// summed distance, then toward the smaller label.
func (c *Classifier) vote(res []vecstore.Result) int {
	votes := make(map[int]int)
	distSum := make(map[int]float64)
	for _, r := range res {
		l := c.labels[r.ID]
		votes[l]++
		distSum[l] += c.Distance.dist(r.Score)
	}
	bestLabel, bestVotes, bestDist := -1, -1, 0.0
	labels := make([]int, 0, len(votes))
	for l := range votes {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	for _, l := range labels {
		v := votes[l]
		switch {
		case v > bestVotes:
			bestLabel, bestVotes, bestDist = l, v, distSum[l]
		case v == bestVotes && distSum[l] < bestDist:
			bestLabel, bestDist = l, distSum[l]
		}
	}
	return bestLabel
}

// CrossValidate runs folds-fold cross-validation of a k-NN classifier
// over the labelled points and returns the mean accuracy (fraction of
// correctly predicted held-out labels), mirroring the paper's 10-fold
// protocol. The fold split is a seeded uniform permutation.
func CrossValidate(points [][]float64, labels []int, k, folds int, dist Distance, seed uint64) (float64, error) {
	return CrossValidateStore(vecstore.FromRows64(points), labels, k, folds, dist, seed)
}

// CrossValidateStore is the fast path over an existing vector store:
// folds are gathered as float32 sub-stores (no float64 interchange
// copies) and every fold's queries run through the batch search.
func CrossValidateStore(s *vecstore.Store, labels []int, k, folds int, dist Distance, seed uint64) (float64, error) {
	n := s.Len()
	if n != len(labels) {
		return 0, fmt.Errorf("knn: %d points but %d labels", n, len(labels))
	}
	if folds < 2 || folds > n {
		return 0, fmt.Errorf("knn: folds=%d out of range [2,%d]", folds, n)
	}
	perm := xrand.New(seed).Perm(n)
	correct, total := 0, 0
	trainIdx := make([]int, 0, n)
	trainLbl := make([]int, 0, n)
	for f := 0; f < folds; f++ {
		lo := f * n / folds
		hi := (f + 1) * n / folds
		trainIdx, trainLbl = trainIdx[:0], trainLbl[:0]
		queries := make([][]float32, 0, hi-lo)
		testLbl := make([]int, 0, hi-lo)
		for i, idx := range perm {
			if i >= lo && i < hi {
				queries = append(queries, s.Row(idx))
				testLbl = append(testLbl, labels[idx])
			} else {
				trainIdx = append(trainIdx, idx)
				trainLbl = append(trainLbl, labels[idx])
			}
		}
		clf := NewClassifierStore(k, dist, s.Gather(trainIdx), append([]int(nil), trainLbl...))
		pred := clf.predictBatch(queries)
		for i, p := range pred {
			if p == testLbl[i] {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total), nil
}
