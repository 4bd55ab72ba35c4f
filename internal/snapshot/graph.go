// The index trailer: the optional section after a bundle's model
// section that stores the topology of the HNSW index built over it
// (level per row, adjacency per level, entry point), so a server binds
// the prebuilt graph to the loaded store instead of re-inserting every
// row at startup — seconds of build time at serving scale become a
// bounds-checked read. It holds one graph per shard of the index that
// was saved; a one-graph index is a one-shard trailer. The row→shard
// partition is not stored: it is a pure function of (vocab, shard
// count) that the coordinator recomputes at load time, binding graph i
// to shard i.
//
// Layout (all integers little-endian), appended after the model
// section's trailing CRC:
//
//	[8]  magic "V2VHNSW2"
//	[4]  format version (currently 2)
//	[1]  metric (vecstore.Metric)
//	[4]  M      (degree target, uint32 > 0)
//	[4]  efSearch default (uint32)
//	[4]  dim    (uint32; must match the model's dim)
//	[4]  shard count (uint32, 1..4096)
//	per shard, in shard order:
//	  [4]  rows  (uint32; the shards' rows sum to the model's vocab)
//	  [4]  entry point (uint32; ^0 encodes "none" for an empty graph)
//	  per row: [1] top level L, then per level 0..L:
//	           [4] link count, then count*[4] uint32 shard-local row ids
//	[4]  CRC-32 (IEEE) of every preceding trailer byte
//
// Metric, M, efSearch and dim are stated once: every shard of a
// coordinator is built from one configuration. Like the model section,
// every count is bounds-checked and the trailing checksum turns silent
// corruption into a load error. See docs/INDEXES.md.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// IndexMagic identifies an index trailer; IndexVersion is the current
// format.
const (
	IndexMagic   = "V2VHNSW2"
	IndexVersion = 2
)

// Index trailer bounds: no row links to more than maxLinks neighbors
// (the builder caps lists at 2*M with M <= 1024), levels are capped by
// the builder's level-sampling limit, and a shard count above maxShards
// means corruption, not a very wide deployment.
const (
	maxLinks  = 1 << 12
	maxLevel  = 63
	maxShards = 1 << 12
	noEntry   = ^uint32(0)
)

// indexHeaderLen is the trailer's fixed header: magic, version, metric,
// M, efSearch, dim and shard count.
const indexHeaderLen = len(IndexMagic) + 4 + 1 + 4*4

// isIndexGraph reports whether head (the first >= 8 bytes of a stream)
// starts with the index trailer magic.
func isIndexGraph(head []byte) bool {
	return len(head) >= len(IndexMagic) && string(head[:len(IndexMagic)]) == IndexMagic
}

// saveIndex writes graphs, one per shard in shard order, as an index
// trailer. dim records the dimensionality of the store they were built
// over, so loading against a mismatched model fails cleanly. Every
// graph must carry the first one's metric, M and efSearch.
func saveIndex(w io.Writer, dim int, graphs []*vecstore.HNSWGraph) error {
	if len(graphs) == 0 || len(graphs) > maxShards {
		return fmt.Errorf("snapshot: index trailer wants 1..%d shard graphs, got %d", maxShards, len(graphs))
	}
	g0 := graphs[0]
	if g0.M <= 0 {
		return fmt.Errorf("snapshot: index graph has invalid M %d", g0.M)
	}
	if dim <= 0 || dim > maxDim {
		return fmt.Errorf("snapshot: index graph has invalid dimension %d", dim)
	}
	for s, g := range graphs {
		if g.Metric != g0.Metric || g.M != g0.M || g.EfSearch != g0.EfSearch {
			return fmt.Errorf("snapshot: index graph shard %d (%s, M %d, efSearch %d) disagrees with shard 0 (%s, M %d, efSearch %d)",
				s, g.Metric, g.M, g.EfSearch, g0.Metric, g0.M, g0.EfSearch)
		}
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
	if err := bw.WriteByte(byte(g0.Metric)); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(g0.M), uint32(g0.EfSearch), uint32(dim), uint32(len(graphs))} {
		if err := put(v); err != nil {
			return err
		}
	}
	for s, g := range graphs {
		entry := noEntry
		if g.Entry >= 0 {
			entry = uint32(g.Entry)
		}
		if err := put(uint32(len(g.Friends))); err != nil {
			return err
		}
		if err := put(entry); err != nil {
			return err
		}
		for i, levels := range g.Friends {
			if len(levels) == 0 || len(levels)-1 > maxLevel {
				return fmt.Errorf("snapshot: index graph shard %d row %d has %d levels (want 1..%d)", s, i, len(levels), maxLevel+1)
			}
			if err := bw.WriteByte(byte(len(levels) - 1)); err != nil {
				return err
			}
			for l, links := range levels {
				if len(links) > maxLinks {
					return fmt.Errorf("snapshot: index graph shard %d row %d level %d has %d links (max %d)", s, i, l, len(links), maxLinks)
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
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err := w.Write(u32[:])
	return err
}

// loadIndex reads an index trailer written by saveIndex, verifying the
// magic, version, every count and link, and the trailing checksum, and
// returns the per-shard graphs plus the dimensionality they were built
// for. Feeding it a model snapshot (or any other stream) fails cleanly
// on the magic check.
//
// A level's links are one read and one checksum update, and an error's
// text is formatted when it is returned: at one read and one formatted
// position per link, loading a bundle's graph ran at a fifth of the
// speed of loading its vectors. Nothing is allocated for bytes the
// stream has not delivered: shards and rows are appended as they are
// read, a level's links are copied out of one fixed read buffer that
// serves every shard, and the counts a corrupt header can claim (64
// levels, maxLinks links) bound the rest.
func loadIndex(br *bufio.Reader) ([]*vecstore.HNSWGraph, int, error) {
	crc := crc32.NewIEEE()
	// readFull fills buf and checksums it; n is what a failed read
	// delivered.
	readFull := func(buf []byte) (n int, err error) {
		if n, err = io.ReadFull(br, buf); err == nil {
			crc.Write(buf)
		}
		return n, err
	}
	// graph names what is being read in error texts: the shard too when
	// there is more than one. It is formatted only for an error.
	shard, shards := 0, uint32(1)
	graph := func() string {
		if shards == 1 {
			return "index graph"
		}
		return fmt.Sprintf("index graph shard %d", shard)
	}
	truncated := func(err error, format string, args ...any) error {
		return fmt.Errorf("snapshot: truncated %s %s: %w", graph(), fmt.Sprintf(format, args...), err)
	}

	// One buffer holds the header, then each shard's row count and
	// entry, then a level's links at a time.
	buf := make([]byte, 4*maxLinks)
	head := buf[:indexHeaderLen]
	if _, err := readFull(head); err != nil {
		return nil, 0, truncated(err, "header")
	}
	if !isIndexGraph(head) {
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
	dim := binary.LittleEndian.Uint32(head[21:])
	shards = binary.LittleEndian.Uint32(head[25:])
	if m == 0 || m > maxLinks/2 || dim == 0 || dim > maxDim {
		return nil, 0, fmt.Errorf("snapshot: implausible index graph header (M=%d dim=%d)", m, dim)
	}
	if shards == 0 || shards > maxShards {
		return nil, 0, fmt.Errorf("snapshot: implausible index graph shard count %d (want 1..%d)", shards, maxShards)
	}

	// Grown with append so a truncated stream fails before the claimed
	// shard count balloons the allocation.
	graphs := make([]*vecstore.HNSWGraph, 0, min(int(shards), 16))
	var u8 [1]byte
	var u32 [4]byte
	for ; shard < int(shards); shard++ {
		if _, err := readFull(buf[:8]); err != nil {
			return nil, 0, truncated(err, "row count and entry")
		}
		rows := binary.LittleEndian.Uint32(buf)
		entry := binary.LittleEndian.Uint32(buf[4:])
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
				return nil, 0, fmt.Errorf("snapshot: %s entry %d out of range [0, %d)", graph(), entry, rows)
			}
			g.Entry = int32(entry)
		}
		for i := 0; i < int(rows); i++ {
			if _, err := readFull(u8[:]); err != nil {
				return nil, 0, truncated(err, "level byte at row %d", i)
			}
			if u8[0] > maxLevel {
				return nil, 0, fmt.Errorf("snapshot: %s row %d claims level %d (max %d)", graph(), i, u8[0], maxLevel)
			}
			levels := make([][]int32, int(u8[0])+1)
			for l := range levels {
				if _, err := readFull(u32[:]); err != nil {
					return nil, 0, truncated(err, "link count at row %d level %d", i, l)
				}
				count := binary.LittleEndian.Uint32(u32[:])
				if count > maxLinks {
					return nil, 0, fmt.Errorf("snapshot: %s row %d level %d claims %d links (max %d)", graph(), i, l, count, maxLinks)
				}
				n, err := readFull(buf[:4*count])
				links := make([]int32, n/4)
				for j := range links {
					id := binary.LittleEndian.Uint32(buf[4*j:])
					if id >= rows {
						return nil, 0, fmt.Errorf("snapshot: %s row %d level %d links to out-of-range row %d", graph(), i, l, id)
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
		graphs = append(graphs, g)
	}

	want := crc.Sum32()
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, 0, fmt.Errorf("snapshot: truncated index graph checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(u32[:]); stored != want {
		return nil, 0, fmt.Errorf("snapshot: index graph checksum mismatch (stored %08x, computed %08x): file is corrupt", stored, want)
	}
	return graphs, int(dim), nil
}

// graphRows is the number of rows graphs cover together.
func graphRows(graphs []*vecstore.HNSWGraph) int {
	rows := 0
	for _, g := range graphs {
		rows += len(g.Friends)
	}
	return rows
}

// Bundle is everything one model file can carry: the model, its token
// table and, when the file ends in an index trailer, the prebuilt HNSW
// graph of every shard of the index that was saved (one for an
// unsharded index).
type Bundle struct {
	Model  *word2vec.Model
	Tokens []string
	Shards []*vecstore.HNSWGraph // nil without an index trailer
}

// SaveBundle writes a model snapshot followed by an index trailer
// holding graphs, one per shard in shard order: one file that restarts
// a server without an index rebuild. With no graphs it writes a plain
// snapshot. tokens follows the Save convention (nil = decimal indices).
func SaveBundle(w io.Writer, m *word2vec.Model, tokens []string, graphs []*vecstore.HNSWGraph) error {
	if rows := graphRows(graphs); len(graphs) > 0 && rows != m.Vocab {
		return fmt.Errorf("snapshot: index graphs cover %d rows but the model has %d", rows, m.Vocab)
	}
	if err := Save(w, m, tokens); err != nil {
		return err
	}
	if len(graphs) == 0 {
		return nil
	}
	return saveIndex(w, m.Dim, graphs)
}

// SaveBundleFile writes a bundle to path atomically (see writeAtomic).
func SaveBundleFile(path string, m *word2vec.Model, tokens []string, graphs []*vecstore.HNSWGraph) error {
	return writeAtomic(path, false, func(w io.Writer) error { return SaveBundle(w, m, tokens, graphs) })
}

// LoadBundle loads a model in any persistence format (bundle,
// checkpoint, model-only snapshot, word2vec text — auto-sniffed like
// LoadFile) and the index graphs when the file carries them. Graphs
// whose shape disagrees with the model are corruption, not a soft miss.
func LoadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if !IsSnapshot(head) {
		m, tokens, err := word2vec.Load(br)
		if err != nil {
			return nil, notModelError(head, err)
		}
		return &Bundle{Model: m, Tokens: tokens}, nil
	}
	m, tokens, err := load(br, size)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Model: m, Tokens: tokens}
	// load admits only an index trailer or a WAL handoff section here.
	trail, err := br.Peek(len(IndexMagic))
	if err == io.EOF && len(trail) == 0 {
		return b, nil
	}
	if IsWALMeta(trail) {
		// A checkpoint used as a plain model: the handoff LSN only
		// matters to the WAL-aware startup path (LoadCheckpointFile);
		// here the folded model is the whole payload.
		if _, err := loadWALMeta(br); err != nil {
			return nil, err
		}
		return b, nil
	}
	graphs, dim, err := loadIndex(br)
	if err != nil {
		return nil, err
	}
	if rows := graphRows(graphs); rows != m.Vocab || dim != m.Dim {
		return nil, fmt.Errorf("snapshot: index graph is for a %dx%d store but the model is %dx%d",
			rows, dim, m.Vocab, m.Dim)
	}
	b.Shards = graphs
	return b, nil
}
