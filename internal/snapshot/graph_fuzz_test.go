package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"v2v/internal/vecstore"
)

// fuzzSection is a valid four-row index-graph section small enough to
// know by offset: a 33-byte header, then row 0 (levels 0-1: level byte
// at 33, count 3 at 34, links at 38/42/46, count 1 at 50, link at 54),
// rows 1-3 (one level each) and the checksum in the last four bytes.
func fuzzSection(t testing.TB) []byte {
	t.Helper()
	g := &vecstore.HNSWGraph{Metric: vecstore.Dot, M: 2, EfSearch: 9, Entry: 0, Friends: [][][]int32{
		{{1, 2, 3}, {2}},
		{{0, 2}},
		{{0, 1}, {0}},
		{{}},
	}}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, 5, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// loaderCases are the ways a section goes wrong, one per class, with
// the error the loader answers: a cut inside each kind of field and on
// each kind of boundary, a flipped checksum, and counts no stream could
// back. The texts are those of the link-by-link loader this one
// replaced.
func loaderCases(t testing.TB) map[string]struct {
	data []byte
	err  string
} {
	sect := fuzzSection(t)
	type c = struct {
		data []byte
		err  string
	}
	flipped := append([]byte(nil), sect...)
	flipped[len(flipped)-1] ^= 0x40
	return map[string]c{
		"valid":               {sect, ""},
		"empty":               {nil, "snapshot: truncated index graph header: EOF"},
		"inside header":       {sect[:20], "snapshot: truncated index graph header: unexpected EOF"},
		"before a level byte": {sect[:33], "snapshot: truncated index graph level byte at row 0: EOF"},
		"before a link count": {sect[:34], "snapshot: truncated index graph link count at row 0 level 0: EOF"},
		"inside a link count": {sect[:52], "snapshot: truncated index graph link count at row 0 level 1: unexpected EOF"},
		"before the links":    {sect[:38], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"between two links":   {sect[:42], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"inside a link":       {sect[:45], "snapshot: truncated index graph link at row 0 level 0: unexpected EOF"},
		"before the checksum": {sect[:len(sect)-4], "snapshot: truncated index graph checksum: EOF"},
		"inside the checksum": {sect[:len(sect)-1], "snapshot: truncated index graph checksum: unexpected EOF"},
		"flipped checksum":    {flipped, "snapshot: index graph checksum mismatch (stored "},
		"rows beyond stream":  {resealed(sect, 21, 1<<32-2)[:len(sect)-4], "snapshot: truncated index graph level byte at row 4: EOF"},
		"links beyond stream": {resealed(sect, 34, maxLinks)[:38], "snapshot: truncated index graph link at row 0 level 0: EOF"},
		"too many links":      {resealed(sect, 34, maxLinks+1), "snapshot: index graph row 0 level 0 claims 4097 links (max 4096)"},
		"too many levels":     {append(append([]byte(nil), sect[:33]...), 64), "snapshot: index graph row 0 claims level 64 (max 63)"},
		"link out of range":   {resealed(sect, 42, 4), "snapshot: index graph row 0 level 0 links to out-of-range row 4"},
		"bad link then a cut": {resealed(sect, 42, 4)[:47], "snapshot: index graph row 0 level 0 links to out-of-range row 4"},
		"entry out of range":  {resealed(sect, 29, 4), "snapshot: index graph entry 4 out of range [0, 4)"},
	}
}

// TestLoadIndexErrors holds the bulk decoder to the texts of the
// loader it replaced, class by class.
func TestLoadIndexErrors(t *testing.T) {
	for name, c := range loaderCases(t) {
		_, _, err := LoadIndex(bytes.NewReader(c.data))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.err != "" && (err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte(c.err))):
			t.Errorf("%s: error %v, want %q", name, err, c.err)
		}
	}
}

// FuzzLoadIndex feeds the graph-section decoder arbitrary bytes. It
// must not panic; it must not allocate by what the header claims, only
// by what the stream delivered; and a graph it accepts has every link
// and its entry point in range and saves back to the bytes it was read
// from.
func FuzzLoadIndex(f *testing.F) {
	for _, c := range loaderCases(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, dim, err := LoadIndex(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The reader's and the decoder's fixed buffers, then at most a
		// level table per byte (a level byte of 63) or a row's headers
		// per five bytes.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+32*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		n := int32(len(g.Friends))
		if g.Entry < -1 || g.Entry >= n {
			t.Fatalf("entry %d out of range [0, %d)", g.Entry, n)
		}
		for i, levels := range g.Friends {
			if len(levels) == 0 {
				t.Fatalf("row %d has no levels", i)
			}
			for l, links := range levels {
				for _, e := range links {
					if e < 0 || e >= n {
						t.Fatalf("row %d level %d links to %d, out of range [0, %d)", i, l, e, n)
					}
				}
			}
		}
		var saved bytes.Buffer
		if err := SaveIndex(&saved, dim, g); err != nil {
			t.Fatalf("SaveIndex of a loaded graph: %v", err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("a loaded graph saves to %d bytes that are not the input's first", saved.Len())
		}
	})
}

// BenchmarkLoadIndex decodes the graph section of a 10 000-row index
// at the default M: MB/s of section read.
func BenchmarkLoadIndex(b *testing.B) {
	m, _ := testModel(10_000, 16, 17)
	h, err := vecstore.NewHNSW(m.Store(), vecstore.Cosine, vecstore.HNSWConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	var sect bytes.Buffer
	if err := SaveIndex(&sect, m.Dim, h.Graph()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sect.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadIndex(bytes.NewReader(sect.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
