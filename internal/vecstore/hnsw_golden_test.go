package vecstore

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// graphHash is FNV-1a over the whole topology: entry point, then per
// row its level count and per level the link count and every link, in
// order.
func graphHash(g *HNSWGraph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	put(int(g.Entry))
	for _, levels := range g.Friends {
		put(len(levels))
		for _, links := range levels {
			put(len(links))
			for _, e := range links {
				put(int(e))
			}
		}
	}
	return h.Sum64()
}

// TestHNSWGoldenGraphs pins the graph a seeded default-parameter build
// produces, per metric, to a recorded hash: an insert path optimisation
// may not move one link. The parity tests compare the filtered index
// with the unfiltered one; this one compares both with the past.
//
// The build's hashes were re-recorded once, when NewHNSW began to link
// rows in waves: from row 256 on, this store's rows go in waves of 16
// to 124, each searching the graph as it stood when the wave began. The
// hashes before that are what sequential insertion of every row still
// builds, the one-row waves of Insert, and are pinned as such.
func TestHNSWGoldenGraphs(t *testing.T) {
	s := clusteredStore(2000, 32, 20, 101)
	for metric, want := range map[Metric]struct{ build, insert uint64 }{
		Cosine:    {0x84685eea89554e38, 0x1f7c998d9b16783b},
		Dot:       {0x726af9140b04e18b, 0x45b1e186b67cebf9},
		Euclidean: {0xfa51aa89cc20baba, 0xb41a3009bdb74c62},
	} {
		h, err := NewHNSW(s, metric, HNSWConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := graphHash(h.Graph()); got != want.build {
			t.Errorf("%v: graph hash %#016x, want %#016x", metric, got, want.build)
		}
		h, err = NewHNSW(New(0, s.Dim()), metric, HNSWConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.Len(); i++ {
			if _, err := h.Insert(s.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := graphHash(h.Graph()); got != want.insert {
			t.Errorf("%v: graph hash %#016x after Insert of every row, want %#016x", metric, got, want.insert)
		}
	}
}
