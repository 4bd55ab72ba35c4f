package snapshot

import (
	"fmt"
	"strconv"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// ShardSlice is one shard's partition of a bundle: the rows
// vecstore.ShardOf routes to that shard, in ascending global-ID
// order — exactly the row order the in-process sharded coordinator
// appends to that shard's store, so a shard process built from a
// slice and an in-process coordinator built from the whole bundle
// hold bit-identical shard stores.
type ShardSlice struct {
	// Bundle is the slice as a one-shard bundle: local row i of its
	// model is global row Globals[i] of the source bundle, and its one
	// graph is the source bundle's graph for this shard — none when
	// the source was not built for this shard count.
	Bundle
	// Globals maps local row -> global row ID, ascending.
	Globals []int
}

// SliceShard extracts shard sid of an n-way partition from b. Tokens
// are carried over; a token-less bundle gets decimal global-ID names,
// matching what Save and the router synthesize, so names agree across
// the fleet. A shard may legitimately own zero rows when the
// partition is wider than the data; callers decide whether that is an
// error.
func SliceShard(b *Bundle, sid, n int) (*ShardSlice, error) {
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: invalid shard count %d", n)
	}
	if sid < 0 || sid >= n {
		return nil, fmt.Errorf("snapshot: shard %d out of range [0, %d)", sid, n)
	}
	if b.Tokens != nil && len(b.Tokens) != b.Model.Vocab {
		return nil, fmt.Errorf("snapshot: bundle has %d tokens for %d rows", len(b.Tokens), b.Model.Vocab)
	}
	dim := b.Model.Dim
	var globals []int
	for id := 0; id < b.Model.Vocab; id++ {
		if vecstore.ShardOf(id, n) == sid {
			globals = append(globals, id)
		}
	}
	m := word2vec.NewModel(len(globals), dim)
	tokens := make([]string, len(globals))
	for local, id := range globals {
		copy(m.Vectors[local*dim:(local+1)*dim], b.Model.Vectors[id*dim:(id+1)*dim])
		if b.Tokens != nil {
			tokens[local] = b.Tokens[id]
		} else {
			tokens[local] = strconv.Itoa(id)
		}
	}
	s := &ShardSlice{Bundle: Bundle{Model: m, Tokens: tokens}, Globals: globals}
	if len(b.Shards) == n {
		// A slice of its own: b.Shards[sid:sid+1] would keep every
		// other shard's graph reachable through the shared array.
		s.Shards = []*vecstore.HNSWGraph{b.Shards[sid]}
	}
	return s, nil
}
