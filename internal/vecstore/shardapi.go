package vecstore

// This file is the cross-process face of the sharding subsystem: the
// routing hash, the seed derivation, and the merge/kernel helpers a
// remote scatter-gather tier needs to reproduce the in-process
// coordinator's answers bit for bit. Everything here is a thin
// exported wrapper over the internals Sharded itself uses — a router
// and its shard processes calling these functions agree with a
// single-process `Sharded` by construction, not by coincidence.

// ShardOf routes a global row ID to its shard among n: the
// splitmix64-style finalizer the in-process coordinator uses, stable
// across processes and restarts. Every placement decision in the
// system — bundle slicing, router write routing, shard-process
// ownership checks — must go through this function; the golden test in
// shardapi_test.go pins its output so any change fails loudly.
func ShardOf(id, n int) int { return shardOf(id, n) }

// ShardSeed derives shard's build seed from the configured base seed —
// the same derivation OpenSharded applies — so a shard process
// building an index over its partition in isolation uses the exact
// per-shard randomness the in-process coordinator would.
func ShardSeed(seed uint64, shard int) uint64 { return shardSeed(seed, shard) }

// MergeTopK merges per-shard top-k result lists (each sorted
// best-first) into the global top-k with the coordinator's ordering:
// score descending, ID ascending on ties. A router merging remote
// shard answers through MergeTopK reproduces the in-process
// scatter-gather merge exactly.
func MergeTopK(perShard [][]Result, k int) []Result { return mergeTopK(perShard, k) }

// MergeRowTopK merges per-shard top-(k+1) lists of a search by row
// self into the top k excluding self — Sharded.SearchRows' merge, so a
// router stripping the query row reproduces the coordinator's answer.
func MergeRowTopK(perShard [][]Result, self, k int) []Result {
	return mergeRowTopK(perShard, self, k)
}

// DotF64 is the float64-accumulating dot product kernel (same
// accumulation order as Store.Dot), exported so a remote tier
// computing pair scores over fetched rows matches the in-process
// result bit for bit.
func DotF64(a, b []float32) float64 { return dotF64(a, b) }

// CosineFromDot finishes a cosine similarity from a precomputed dot
// product and the two squared norms, with the store-wide zero-vector
// convention: 0 when either norm is 0. Combined with DotF64 and the
// squared norms a shard reports for its rows, it reproduces
// Sharded.Cosine across a process boundary.
func CosineFromDot(dot, sqNormA, sqNormB float64) float64 {
	return cosineFromDot(dot, sqNormA, sqNormB)
}

// SqNormF64 accumulates v's squared L2 norm in float64, in row order —
// the norm convention Store caches and every cosine kernel consumes.
func SqNormF64(v []float32) float64 { return sqNorm(v) }
