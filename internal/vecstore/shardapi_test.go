package vecstore

import (
	"math"
	"testing"
)

// TestShardOfGolden pins the routing hash. The partition is recomputed
// independently at bundle load, at router startup, and inside every
// shard process — they agree only because ShardOf is the same pure
// function everywhere. A change to the hash silently strands every row
// of every deployed sharded bundle on the wrong shard, so any change
// must fail this test loudly and ship a migration story.
func TestShardOfGolden(t *testing.T) {
	ids := []int{0, 1, 2, 3, 7, 10, 63, 64, 100, 1000, 4095, 65536, 1 << 20, 123456789}
	golden := map[int][]int{
		2:  {0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0},
		3:  {0, 2, 0, 2, 1, 1, 1, 2, 0, 0, 0, 0, 1, 2},
		4:  {0, 0, 3, 2, 1, 1, 0, 2, 2, 1, 2, 0, 0, 2},
		8:  {0, 4, 7, 6, 5, 5, 4, 6, 2, 1, 2, 4, 4, 6},
		16: {0, 12, 7, 14, 13, 13, 12, 14, 2, 1, 10, 4, 4, 6},
	}
	for n, want := range golden {
		for i, id := range ids {
			if got := ShardOf(id, n); got != want[i] {
				t.Errorf("ShardOf(%d, %d) = %d, golden says %d — the routing hash changed; every deployed sharded bundle/partition depends on it",
					id, n, got, want[i])
			}
		}
	}
}

// TestShardOfRange checks every shard in [0, n) is reachable and the
// spread over a realistic ID range is roughly uniform — the property
// the splitmix64 finalizer was chosen for.
func TestShardOfRange(t *testing.T) {
	const n, rows = 4, 10000
	counts := make([]int, n)
	for id := 0; id < rows; id++ {
		s := ShardOf(id, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
		}
		counts[s]++
	}
	for sid, c := range counts {
		if c < rows/n*8/10 || c > rows/n*12/10 {
			t.Errorf("shard %d holds %d of %d rows — distribution is badly skewed: %v", sid, c, rows, counts)
		}
	}
}

// TestShardSeedMatchesCoordinator pins ShardSeed to the derivation
// OpenSharded uses for per-shard builds.
func TestShardSeedMatchesCoordinator(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		for shard := 0; shard < 8; shard++ {
			if got, want := ShardSeed(seed, shard), shardSeed(seed, shard); got != want {
				t.Fatalf("ShardSeed(%d, %d) = %d, coordinator derives %d", seed, shard, got, want)
			}
		}
	}
}

// TestMergeTopKMatchesSharded checks the coordinator's merge on ties
// and truncation.
func TestMergeTopKMatchesSharded(t *testing.T) {
	perShard := [][]Result{
		{{ID: 5, Score: 0.9}, {ID: 9, Score: 0.5}},
		{{ID: 2, Score: 0.9}, {ID: 7, Score: 0.5}},
		{{ID: 1, Score: 0.3}},
	}
	got := mergeTopK(perShard, 3)
	want := []Result{{ID: 2, Score: 0.9}, {ID: 5, Score: 0.9}, {ID: 7, Score: 0.5}}
	if len(got) != len(want) {
		t.Fatalf("mergeTopK returned %d results, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeTopK[%d] = %+v, want %+v (ties must break toward the smaller ID)", i, got[i], want[i])
		}
	}
}

// TestKernelWrappers checks the exported kernel is the internal
// kernel, not a lookalike: bit-identical output on a case with real
// rounding behavior.
func TestKernelWrappers(t *testing.T) {
	a := []float32{0.1, -0.7, 0.3, 0.0001}
	b := []float32{-0.2, 0.5, 0.9, 1000}
	if got, want := DotF64(a, b), dotF64(a, b); got != want {
		t.Fatalf("DotF64 = %v, internal kernel = %v", got, want)
	}
}
