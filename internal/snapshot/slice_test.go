package snapshot

import (
	"strconv"
	"testing"

	"v2v/internal/vecstore"
)

// TestSliceShard pins the slicing contract shard processes depend on:
// the slices partition the bundle exactly the way vecstore.ShardOf
// partitions it for the in-process coordinator, with ascending global
// IDs, bit-identical rows, carried-over tokens, and the bundled
// per-shard graph attached when (and only when) the bundle was built
// for the same shard count.
func TestSliceShard(t *testing.T) {
	const n, dim, shards = 80, 6, 4
	_, path := buildBundle(t, n, dim, shards)
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	m, tokens := b.Model, b.Tokens

	seen := make([]bool, m.Vocab)
	total := 0
	for sid := 0; sid < shards; sid++ {
		sl, err := SliceShard(b, sid, shards)
		if err != nil {
			t.Fatalf("SliceShard(%d): %v", sid, err)
		}
		if sl.Model.Vocab != len(sl.Globals) || len(sl.Tokens) != len(sl.Globals) {
			t.Fatalf("shard %d: %d rows, %d globals, %d tokens", sid, sl.Model.Vocab, len(sl.Globals), len(sl.Tokens))
		}
		if len(sl.Shards) != 1 {
			t.Fatalf("shard %d: bundled graph for matching shard count not attached", sid)
		}
		prev := -1
		for local, gid := range sl.Globals {
			if vecstore.ShardOf(gid, shards) != sid {
				t.Fatalf("shard %d owns global %d, which routes to shard %d", sid, gid, vecstore.ShardOf(gid, shards))
			}
			if gid <= prev {
				t.Fatalf("shard %d globals not ascending: %d after %d", sid, gid, prev)
			}
			prev = gid
			if seen[gid] {
				t.Fatalf("global %d sliced twice", gid)
			}
			seen[gid] = true
			got := sl.Model.Vectors[local*dim : (local+1)*dim]
			want := m.Vectors[gid*dim : (gid+1)*dim]
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shard %d row %d (global %d) differs at %d", sid, local, gid, i)
				}
			}
			if sl.Tokens[local] != tokens[gid] {
				t.Fatalf("shard %d row %d: token %q, want %q", sid, local, sl.Tokens[local], tokens[gid])
			}
		}
		total += len(sl.Globals)
	}
	if total != m.Vocab {
		t.Fatalf("slices cover %d of %d rows", total, m.Vocab)
	}

	// A different shard count gets no graph (the bundled graphs were
	// built for a 4-way partition).
	if sl, err := SliceShard(b, 0, 2); err != nil {
		t.Fatalf("SliceShard(0, 2): %v", err)
	} else if sl.Shards != nil {
		t.Fatal("graph attached for a mismatched shard count")
	}

	// A token-less bundle synthesizes decimal GLOBAL names, matching
	// what the router synthesizes for the full model.
	sl, err := SliceShard(&Bundle{Model: m}, 1, shards)
	if err != nil {
		t.Fatal(err)
	}
	for local, gid := range sl.Globals {
		if want := strconv.Itoa(gid); sl.Tokens[local] != want {
			t.Fatalf("synthesized token %q for global %d, want %q", sl.Tokens[local], gid, want)
		}
	}

	for _, bad := range [][2]int{{-1, shards}, {shards, shards}, {0, 0}, {0, -3}} {
		if _, err := SliceShard(b, bad[0], bad[1]); err == nil {
			t.Fatalf("SliceShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}
