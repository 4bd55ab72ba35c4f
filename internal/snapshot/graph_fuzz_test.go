package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"v2v/internal/vecstore"
)

// fuzzTrailer is a valid one-shard, four-row index trailer small
// enough to know by offset: a 29-byte header (shard count at 25), the
// shard's row count at 29 and entry at 33, then row 0 (levels 0-1:
// level byte at 37, count 3 at 38, links at 42/46/50, count 1 at 54,
// link at 58), rows 1-3 (one level each) and the checksum in the last
// four bytes.
func fuzzTrailer(t testing.TB) []byte {
	t.Helper()
	return trailer(t, 5, fuzzGraph())
}

// fuzzGraph is fuzzTrailer's graph.
func fuzzGraph() *vecstore.HNSWGraph {
	return &vecstore.HNSWGraph{Metric: vecstore.Dot, M: 2, EfSearch: 9, Entry: 0, Friends: [][][]int32{
		{{1, 2, 3}, {2}},
		{{0, 2}},
		{{0, 1}, {0}},
		{{}},
	}}
}

// resealed returns sect with the four bytes at off replaced by v and
// the checksum recomputed, so that only the loader's own checks stand
// between the value and the graph.
func resealed(sect []byte, off int, v uint32) []byte {
	out := append([]byte(nil), sect...)
	binary.LittleEndian.PutUint32(out[off:], v)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// loaderCases are the ways a trailer goes wrong, one per class, with
// the error the loader answers: a cut inside each kind of field and on
// each kind of boundary, a flipped checksum, a header no current writer
// produced, and counts no stream could back. Errors past the first of
// several shards name the shard.
func loaderCases(t testing.TB) map[string]struct {
	data []byte
	err  string
} {
	sect := fuzzTrailer(t)
	// Two shards, the second empty: its row count sits where the
	// one-shard trailer's checksum does, its entry 4 bytes on.
	two := trailer(t, 5, fuzzGraph(), &vecstore.HNSWGraph{Metric: vecstore.Dot, M: 2, EfSearch: 9, Entry: -1})
	emptyShard := two[len(sect)-4 : len(two)-4]
	type c = struct {
		data []byte
		err  string
	}
	flipped := append([]byte(nil), sect...)
	flipped[len(flipped)-1] ^= 0x40
	oldMagic := append([]byte("V2VHNSW1"), sect[8:]...)
	return map[string]c{
		"valid":                   {sect, ""},
		"two shards, one empty":   {two, ""},
		"empty":                   {nil, "snapshot: truncated index graph header: EOF"},
		"inside header":           {sect[:20], "snapshot: truncated index graph header: unexpected EOF"},
		"old magic":               {oldMagic, `snapshot: not an index graph (bad magic "V2VHNSW1")`},
		"old version":             {resealed(sect, 8, 1), "snapshot: unsupported index graph version 1 (supported: 2)"},
		"implausible header":      {resealed(sect, 13, 0), "snapshot: implausible index graph header (M=0 dim=5)"},
		"no shards":               {resealed(sect, 25, 0), "snapshot: implausible index graph shard count 0 (want 1..4096)"},
		"too many shards":         {resealed(sect, 25, maxShards+1), "snapshot: implausible index graph shard count 4097 (want 1..4096)"},
		"before a shard":          {sect[:29], "snapshot: truncated index graph row count and entry: EOF"},
		"inside a shard's header": {sect[:33], "snapshot: truncated index graph row count and entry: unexpected EOF"},
		"before a level byte":     {sect[:37], "snapshot: truncated index graph level byte at row 0: EOF"},
		"before a link count":     {sect[:38], "snapshot: truncated index graph link count at row 0 level 0: EOF"},
		"inside a link count":     {sect[:56], "snapshot: truncated index graph link count at row 0 level 1: unexpected EOF"},
		"before the links":        {sect[:42], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"between two links":       {sect[:46], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"inside a link":           {sect[:49], "snapshot: truncated index graph link at row 0 level 0: unexpected EOF"},
		"before the checksum":     {sect[:len(sect)-4], "snapshot: truncated index graph checksum: EOF"},
		"inside the checksum":     {sect[:len(sect)-1], "snapshot: truncated index graph checksum: unexpected EOF"},
		"flipped checksum":        {flipped, "snapshot: index graph checksum mismatch (stored "},
		"rows beyond stream":      {resealed(sect, 29, 1<<32-2)[:len(sect)-4], "snapshot: truncated index graph level byte at row 4: EOF"},
		"links beyond stream":     {resealed(sect, 38, maxLinks)[:42], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"shards beyond stream":    {resealed(sect, 25, maxShards)[:len(sect)-4], "snapshot: truncated index graph shard 1 row count and entry: EOF"},
		"many empty shards": {
			append(resealed(sect, 25, maxShards)[:len(sect)-4], bytes.Repeat(emptyShard, 64)...),
			"snapshot: truncated index graph shard 65 row count and entry: EOF",
		},
		"inside the second shard": {two[:len(sect)], "snapshot: truncated index graph shard 1 row count and entry: unexpected EOF"},
		"too many links":          {resealed(sect, 38, maxLinks+1), "snapshot: index graph row 0 level 0 claims 4097 links (max 4096)"},
		"too many levels":         {append(append([]byte(nil), sect[:37]...), 64), "snapshot: index graph row 0 claims level 64 (max 63)"},
		"link out of range":       {resealed(sect, 46, 4), "snapshot: index graph row 0 level 0 links to out-of-range row 4"},
		"bad link then a cut":     {resealed(sect, 46, 4)[:51], "snapshot: index graph row 0 level 0 links to out-of-range row 4"},
		"entry out of range":      {resealed(sect, 33, 4), "snapshot: index graph entry 4 out of range [0, 4)"},
		"second shard's entry":    {resealed(two, len(sect), 0), "snapshot: index graph shard 1 entry 0 out of range [0, 0)"},
	}
}

// TestLoadIndexErrors holds the decoder to its error texts, class by
// class.
func TestLoadIndexErrors(t *testing.T) {
	for name, c := range loaderCases(t) {
		_, _, err := loadTrailer(c.data)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.err != "" && (err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte(c.err))):
			t.Errorf("%s: error %v, want %q", name, err, c.err)
		}
	}
}

// FuzzLoadIndex feeds the index trailer decoder arbitrary bytes. It
// must not panic; it must not allocate by what the header claims, only
// by what the stream delivered — however many shards it claims, they
// read through one link buffer; and graphs it accepts have every link
// and entry point in range for their shard and save back to a prefix of
// the bytes they were read from.
func FuzzLoadIndex(f *testing.F) {
	for _, c := range loaderCases(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var graphs []*vecstore.HNSWGraph
		var dim int
		var err error
		// The reader's and the decoder's fixed buffers, then at most a
		// level table per byte (a level byte of 63), a row's headers per
		// five bytes or a shard's per eight.
		grew := allocated(func() { graphs, dim, err = loadTrailer(data) })
		if limit := uint64(256<<10 + 32*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		for s, g := range graphs {
			n := int32(len(g.Friends))
			if g.Entry < -1 || g.Entry >= n {
				t.Fatalf("shard %d: entry %d out of range [0, %d)", s, g.Entry, n)
			}
			for i, levels := range g.Friends {
				if len(levels) == 0 {
					t.Fatalf("shard %d row %d has no levels", s, i)
				}
				for l, links := range levels {
					for _, e := range links {
						if e < 0 || e >= n {
							t.Fatalf("shard %d row %d level %d links to %d, out of range [0, %d)", s, i, l, e, n)
						}
					}
				}
			}
		}
		var saved bytes.Buffer
		if err := saveIndex(&saved, dim, graphs); err != nil {
			t.Fatalf("saveIndex of loaded graphs: %v", err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("loaded graphs save to %d bytes that are not the input's first", saved.Len())
		}
	})
}

// BenchmarkLoadIndex decodes the one-shard index trailer of a
// 10 000-row index at the default M: MB/s of trailer read.
func BenchmarkLoadIndex(b *testing.B) {
	m, _ := testModel(10_000, 16, 17)
	h, err := vecstore.NewHNSW(m.Store(), vecstore.Cosine, vecstore.HNSWConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	sect := trailer(b, m.Dim, h.Graph())
	b.SetBytes(int64(len(sect)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := loadTrailer(sect); err != nil {
			b.Fatal(err)
		}
	}
}
