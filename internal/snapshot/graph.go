// Index-graph persistence: the optional second section of a snapshot
// file. A model snapshot stores the vectors; this section stores the
// topology of an HNSW index built over them (level per row, adjacency
// per level, entry point), so a server can bind a prebuilt graph to
// the loaded store instead of re-inserting every row at startup —
// seconds of build time at serving scale become a bounds-checked read.
//
// Layout (all integers little-endian), appended after the model
// section's trailing CRC or written standalone:
//
//	[8]  magic "V2VHNSW1"
//	[4]  format version (currently 1)
//	[1]  metric (vecstore.Metric)
//	[4]  M      (degree target, uint32 > 0)
//	[4]  efSearch default (uint32)
//	[4]  rows   (uint32; must match the model's vocab when bundled)
//	[4]  dim    (uint32; must match the model's dim when bundled)
//	[4]  entry point (uint32; ^0 encodes "none" for an empty graph)
//	per row: [1] top level L, then per level 0..L:
//	         [4] link count, then count*[4] uint32 row ids
//	[4]  CRC-32 (IEEE) of every preceding section byte
//
// Like the model section, every length field is bounds-checked and the
// trailing checksum turns silent corruption into a load error. See
// docs/INDEXES.md.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// IndexMagic identifies an index-graph section; IndexVersion is the
// current format.
const (
	IndexMagic   = "V2VHNSW1"
	IndexVersion = 1
)

// Index-graph bounds: no row links to more than maxLinks neighbors
// (the builder caps lists at 2*M with M <= 1024), and levels are
// capped by the builder's level-sampling limit. A claimed value above
// either means corruption.
const (
	maxLinks = 1 << 12
	maxLevel = 63
	noEntry  = ^uint32(0)
)

// IsIndexGraph reports whether head (the first >= 8 bytes of a
// stream) starts with the index-graph magic. Shorter prefixes report
// false; neither the model snapshot magic nor the text format
// matches.
func IsIndexGraph(head []byte) bool {
	return len(head) >= len(IndexMagic) && string(head[:len(IndexMagic)]) == IndexMagic
}

// SaveIndex writes g as an index-graph section. dim records the
// dimensionality of the store the graph was built over, so loading
// against a mismatched model fails cleanly.
func SaveIndex(w io.Writer, dim int, g *vecstore.HNSWGraph) error {
	if g.M <= 0 {
		return fmt.Errorf("snapshot: index graph has invalid M %d", g.M)
	}
	if dim <= 0 || dim > maxDim {
		return fmt.Errorf("snapshot: index graph has invalid dimension %d", dim)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var u32 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	if _, err := bw.WriteString(IndexMagic); err != nil {
		return err
	}
	if err := put(IndexVersion); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(g.Metric)); err != nil {
		return err
	}
	entry := noEntry
	if g.Entry >= 0 {
		entry = uint32(g.Entry)
	}
	for _, v := range []uint32{uint32(g.M), uint32(g.EfSearch), uint32(len(g.Friends)), uint32(dim), entry} {
		if err := put(v); err != nil {
			return err
		}
	}
	for i, levels := range g.Friends {
		if len(levels) == 0 || len(levels)-1 > maxLevel {
			return fmt.Errorf("snapshot: index graph row %d has %d levels (want 1..%d)", i, len(levels), maxLevel+1)
		}
		if err := bw.WriteByte(byte(len(levels) - 1)); err != nil {
			return err
		}
		for l, links := range levels {
			if len(links) > maxLinks {
				return fmt.Errorf("snapshot: index graph row %d level %d has %d links (max %d)", i, l, len(links), maxLinks)
			}
			if err := put(uint32(len(links))); err != nil {
				return err
			}
			for _, id := range links {
				if err := put(uint32(id)); err != nil {
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err := w.Write(u32[:])
	return err
}

// LoadIndex reads an index-graph section written by SaveIndex,
// verifying the magic, version and trailing checksum, and returns the
// topology plus the dimensionality it was built for. Feeding it a
// model-only snapshot (or any other stream) fails cleanly on the
// magic check. Bind the result to its store with
// vecstore.HNSWFromGraph.
func LoadIndex(r io.Reader) (*vecstore.HNSWGraph, int, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return loadIndex(br, nil)
}

// loadIndex implements LoadIndex over an existing buffered reader so
// bundle loading can continue mid-stream after the model section. buf
// is the 4*maxLinks-byte read buffer, nil to allocate one: the shards
// of a sharded section share one.
//
// A level's links are one read and one checksum update, and an error's
// text is formatted when it is returned: at one read and one formatted
// position per link, loading a bundle's graph ran at a fifth of the
// speed of loading its vectors. Nothing is allocated for bytes the
// stream has not delivered: rows are appended as they are read, a
// level's links are copied out of the fixed read buffer, and the counts
// a corrupt header can claim (64 levels, maxLinks links) bound the
// rest.
func loadIndex(br *bufio.Reader, buf []byte) (*vecstore.HNSWGraph, int, error) {
	crc := crc32.NewIEEE()
	// readFull fills buf and checksums it; n is what a failed read
	// delivered.
	readFull := func(buf []byte) (n int, err error) {
		if n, err = io.ReadFull(br, buf); err == nil {
			crc.Write(buf)
		}
		return n, err
	}
	truncated := func(err error, format string, args ...any) error {
		return fmt.Errorf("snapshot: truncated index graph %s: %w", fmt.Sprintf(format, args...), err)
	}

	head := make([]byte, len(IndexMagic)+4+1+20)
	if _, err := readFull(head); err != nil {
		return nil, 0, truncated(err, "header")
	}
	if !IsIndexGraph(head) {
		what := "bad magic"
		if IsSnapshot(head) {
			what = "model snapshot magic"
		}
		return nil, 0, fmt.Errorf("snapshot: not an index graph (%s %q)", what, head[:len(IndexMagic)])
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != IndexVersion {
		return nil, 0, fmt.Errorf("snapshot: unsupported index graph version %d (supported: %d)", v, IndexVersion)
	}
	metric := vecstore.Metric(head[12])
	m := binary.LittleEndian.Uint32(head[13:])
	efSearch := binary.LittleEndian.Uint32(head[17:])
	rows := binary.LittleEndian.Uint32(head[21:])
	dim := binary.LittleEndian.Uint32(head[25:])
	entry := binary.LittleEndian.Uint32(head[29:])
	if m == 0 || m > maxLinks/2 || dim == 0 || dim > maxDim {
		return nil, 0, fmt.Errorf("snapshot: implausible index graph header (M=%d dim=%d)", m, dim)
	}

	g := &vecstore.HNSWGraph{
		Metric:   metric,
		M:        int(m),
		EfSearch: int(efSearch),
		Entry:    -1,
		// Grown with append so a truncated stream fails before the
		// claimed row count balloons the allocation.
		Friends: make([][][]int32, 0, min(int(rows), 16)),
	}
	if entry != noEntry {
		if entry >= rows {
			return nil, 0, fmt.Errorf("snapshot: index graph entry %d out of range [0, %d)", entry, rows)
		}
		g.Entry = int32(entry)
	}
	var u8 [1]byte
	var u32 [4]byte
	if buf == nil {
		buf = make([]byte, 4*maxLinks)
	}
	for i := 0; i < int(rows); i++ {
		if _, err := readFull(u8[:]); err != nil {
			return nil, 0, truncated(err, "level byte at row %d", i)
		}
		if u8[0] > maxLevel {
			return nil, 0, fmt.Errorf("snapshot: index graph row %d claims level %d (max %d)", i, u8[0], maxLevel)
		}
		levels := make([][]int32, int(u8[0])+1)
		for l := range levels {
			if _, err := readFull(u32[:]); err != nil {
				return nil, 0, truncated(err, "link count at row %d level %d", i, l)
			}
			count := binary.LittleEndian.Uint32(u32[:])
			if count > maxLinks {
				return nil, 0, fmt.Errorf("snapshot: index graph row %d level %d claims %d links (max %d)", i, l, count, maxLinks)
			}
			n, err := readFull(buf[:4*count])
			links := make([]int32, n/4)
			for j := range links {
				id := binary.LittleEndian.Uint32(buf[4*j:])
				if id >= rows {
					return nil, 0, fmt.Errorf("snapshot: index graph row %d level %d links to out-of-range row %d", i, l, id)
				}
				links[j] = int32(id)
			}
			if err != nil {
				// The stream ended inside this level: between two links
				// that is a clean EOF for the next one, as reading link by
				// link reported it.
				if err == io.ErrUnexpectedEOF && n%4 == 0 {
					err = io.EOF
				}
				return nil, 0, truncated(err, "link at row %d level %d", i, l)
			}
			levels[l] = links
		}
		g.Friends = append(g.Friends, levels)
	}

	want := crc.Sum32()
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, 0, fmt.Errorf("snapshot: truncated index graph checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(u32[:]); stored != want {
		return nil, 0, fmt.Errorf("snapshot: index graph checksum mismatch (stored %08x, computed %08x): file is corrupt", stored, want)
	}
	return g, int(dim), nil
}

// SaveBundle writes a model snapshot followed by its index-graph
// section: one file that restarts a server without an index rebuild.
// tokens follows the Save convention (nil = decimal indices).
func SaveBundle(w io.Writer, m *word2vec.Model, tokens []string, g *vecstore.HNSWGraph) error {
	if len(g.Friends) != m.Vocab {
		return fmt.Errorf("snapshot: index graph covers %d rows but the model has %d", len(g.Friends), m.Vocab)
	}
	if err := Save(w, m, tokens); err != nil {
		return err
	}
	return SaveIndex(w, m.Dim, g)
}

// SaveBundleFile writes a bundle to path atomically (same-directory
// temp file and rename), like SaveFile.
func SaveBundleFile(path string, m *word2vec.Model, tokens []string, g *vecstore.HNSWGraph) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := SaveBundle(f, m, tokens, g); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadBundleFile loads a model in any persistence format (bundle,
// model-only snapshot, word2vec text — auto-sniffed like LoadFile)
// plus the index graph when the file carries one (nil otherwise). A
// graph whose shape disagrees with the model is corruption, not a
// soft miss.
func LoadBundleFile(path string) (*word2vec.Model, []string, *vecstore.HNSWGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, nil, nil, err
	}
	if !IsSnapshot(head) {
		m, tokens, err := word2vec.Load(br)
		if err != nil {
			return nil, nil, nil, notModelError(head, err)
		}
		return m, tokens, nil, nil
	}
	m, tokens, err := load(br, size)
	if err != nil {
		return nil, nil, nil, err
	}
	trail, err := br.Peek(len(IndexMagic))
	if err == io.EOF && len(trail) == 0 {
		return m, tokens, nil, nil
	}
	if IsWALMeta(trail) {
		// A checkpoint used as a plain model: the handoff LSN only
		// matters to the WAL-aware startup path (LoadCheckpointFile);
		// here the folded model is the whole payload.
		if _, err := loadWALMeta(br); err != nil {
			return nil, nil, nil, err
		}
		return m, tokens, nil, nil
	}
	if IsShardedIndex(trail) {
		// A sharded bundle used through the single-graph API: verify
		// the section but only hand back the model — the per-shard
		// graphs bind through LoadBundle + OpenShardedFromGraphs.
		if _, _, err := loadShardedIndex(br); err != nil {
			return nil, nil, nil, err
		}
		return m, tokens, nil, nil
	}
	g, dim, err := loadIndex(br, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(g.Friends) != m.Vocab || dim != m.Dim {
		return nil, nil, nil, fmt.Errorf("snapshot: index graph is for a %dx%d store but the model is %dx%d",
			len(g.Friends), dim, m.Vocab, m.Dim)
	}
	return m, tokens, g, nil
}
