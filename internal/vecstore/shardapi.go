package vecstore

// This file is the cross-process face of the sharding subsystem: the
// routing hash and the seed derivation a shard process needs to hold
// exactly the slice, built exactly as, the in-process coordinator
// would, plus the per-row score kernel. Everything here is a thin
// exported wrapper over the internals Sharded itself uses — a router
// (itself a Sharded, see OpenRemote) and its shard processes calling
// these functions agree with a single-process Sharded by construction,
// not by coincidence.

import "v2v/internal/f32"

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

// DotF64 is the float64-accumulating dot product kernel every index
// scores a row with (same accumulation order as Store.Dot), exported
// so a caller outside the package can time the per-row kernel on its
// own.
func DotF64(a, b []float32) float64 { return f32.DotF64(a, b) }
