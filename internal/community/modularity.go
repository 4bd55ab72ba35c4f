// Package community implements the direct graph-based community
// detection algorithms the paper compares V2V against: the CNM greedy
// modularity algorithm (Clauset, Newman, Moore 2004) and the
// Girvan-Newman edge-betweenness algorithm (2002, with Brandes-style
// betweenness accumulation), and the modularity quality function
// itself.
package community

import (
	"fmt"

	"v2v/internal/graph"
)

// Modularity returns Newman's modularity Q of the given partition of
// g (undirected; edge weights honoured):
//
//	Q = sum_c [ w_c/W - (d_c / 2W)^2 ]
//
// where w_c is the weight of intra-community edges, d_c the total
// weighted degree of community c and W the total edge weight.
func Modularity(g *graph.Graph, partition []int) (float64, error) {
	n := g.NumVertices()
	if len(partition) != n {
		return 0, fmt.Errorf("community: partition has %d entries for %d vertices", len(partition), n)
	}
	if g.Directed() {
		return 0, fmt.Errorf("community: Modularity requires an undirected graph")
	}
	w := g.TotalEdgeWeight()
	if w == 0 {
		return 0, nil
	}
	intra := make(map[int]float64)  // community -> intra edge weight
	degree := make(map[int]float64) // community -> total weighted degree
	for u := 0; u < n; u++ {
		cu := partition[u]
		adj := g.Neighbors(u)
		ws := g.EdgeWeights(u)
		for i, v := range adj {
			ew := 1.0
			if ws != nil {
				ew = ws[i]
			}
			degree[cu] += ew
			if partition[v] == cu {
				if u == v {
					intra[cu] += ew // self loop counts once per orientation stored
				} else if u < v {
					intra[cu] += ew
				}
			}
		}
	}
	var q float64
	for c, wc := range intra {
		q += wc / w
		_ = c
	}
	for _, dc := range degree {
		frac := dc / (2 * w)
		q -= frac * frac
	}
	return q, nil
}

// CompressLabels renumbers arbitrary partition labels to the dense
// range [0, k) preserving first-appearance order, and returns the
// compressed labels and k.
func CompressLabels(partition []int) ([]int, int) {
	remap := make(map[int]int)
	out := make([]int, len(partition))
	for i, p := range partition {
		id, ok := remap[p]
		if !ok {
			id = len(remap)
			remap[p] = id
		}
		out[i] = id
	}
	return out, len(remap)
}
