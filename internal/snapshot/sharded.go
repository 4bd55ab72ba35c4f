// Sharded-index persistence: the bundle section that carries one HNSW
// graph per shard of a vecstore.Sharded, so a sharded server restarts
// without rebuilding any shard. The row partition itself is not
// stored — it is a pure function of (vocab, shard count) recomputed at
// load time by the coordinator — so the section is just a small
// CRC-guarded header followed by the per-shard graphs, each a standard
// index-graph section (graph.go) with its own magic and checksum.
//
// Layout (all integers little-endian), appended after the model
// section's trailing CRC:
//
//	[8]  magic "V2VSHRD1"
//	[4]  format version (currently 1)
//	[4]  shard count (uint32 >= 2)
//	[4]  CRC-32 (IEEE) of the preceding header bytes
//	then shard count index-graph sections, in shard order
//
// See docs/INDEXES.md ("Sharding").
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

// ShardMagic identifies a sharded index section; ShardVersion is the
// current format.
const (
	ShardMagic   = "V2VSHRD1"
	ShardVersion = 1
)

// maxShards bounds the claimed shard count; anything above it means
// corruption, not a very wide deployment.
const maxShards = 1 << 12

// IsShardedIndex reports whether head (the first >= 8 bytes of a
// stream) starts with the sharded index magic.
func IsShardedIndex(head []byte) bool {
	return len(head) >= len(ShardMagic) && string(head[:len(ShardMagic)]) == ShardMagic
}

// SaveShardedIndex writes graphs as a sharded index section. dim
// records the dimensionality of the store the graphs were built over.
func SaveShardedIndex(w io.Writer, dim int, graphs []*vecstore.HNSWGraph) error {
	if len(graphs) < 2 || len(graphs) > maxShards {
		return fmt.Errorf("snapshot: sharded index wants 2..%d shards, got %d", maxShards, len(graphs))
	}
	header := make([]byte, 0, len(ShardMagic)+8)
	header = append(header, ShardMagic...)
	header = binary.LittleEndian.AppendUint32(header, ShardVersion)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(graphs)))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(header))
	if _, err := w.Write(header); err != nil {
		return err
	}
	for i, g := range graphs {
		if err := SaveIndex(w, dim, g); err != nil {
			return fmt.Errorf("snapshot: sharded index shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadShardedIndex reads a sharded index section written by
// SaveShardedIndex and returns the per-shard graphs plus the
// dimensionality they were built for. Bind the result to its store
// with vecstore.OpenShardedFromGraphs.
func LoadShardedIndex(r io.Reader) ([]*vecstore.HNSWGraph, int, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return loadShardedIndex(br)
}

// loadShardedIndex implements LoadShardedIndex over an existing
// buffered reader so bundle loading can continue mid-stream after the
// model section.
func loadShardedIndex(br *bufio.Reader) ([]*vecstore.HNSWGraph, int, error) {
	header := make([]byte, len(ShardMagic)+12)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, 0, fmt.Errorf("snapshot: truncated sharded index header: %w", err)
	}
	if !IsShardedIndex(header) {
		return nil, 0, fmt.Errorf("snapshot: not a sharded index (bad magic %q)", header[:len(ShardMagic)])
	}
	if v := binary.LittleEndian.Uint32(header[8:]); v != ShardVersion {
		return nil, 0, fmt.Errorf("snapshot: unsupported sharded index version %d (supported: %d)", v, ShardVersion)
	}
	shards := binary.LittleEndian.Uint32(header[12:])
	want := crc32.ChecksumIEEE(header[:len(header)-4])
	if stored := binary.LittleEndian.Uint32(header[16:]); stored != want {
		return nil, 0, fmt.Errorf("snapshot: sharded index header checksum mismatch (stored %08x, computed %08x): file is corrupt", stored, want)
	}
	if shards < 2 || shards > maxShards {
		return nil, 0, fmt.Errorf("snapshot: implausible shard count %d (want 2..%d)", shards, maxShards)
	}
	graphs := make([]*vecstore.HNSWGraph, 0, shards)
	links := make([]byte, 4*maxLinks)
	dim := 0
	for i := 0; i < int(shards); i++ {
		g, d, err := loadIndex(br, links)
		if err != nil {
			return nil, 0, fmt.Errorf("snapshot: sharded index shard %d of %d: %w", i, shards, err)
		}
		if dim == 0 {
			dim = d
		} else if d != dim {
			return nil, 0, fmt.Errorf("snapshot: sharded index shard %d has dim %d, shard 0 has %d", i, d, dim)
		}
		graphs = append(graphs, g)
	}
	return graphs, dim, nil
}

// SaveShardedBundle writes a model snapshot followed by its sharded
// index section: one file that restarts a sharded server without any
// per-shard index rebuild. tokens follows the Save convention (nil =
// decimal indices).
func SaveShardedBundle(w io.Writer, m *word2vec.Model, tokens []string, graphs []*vecstore.HNSWGraph) error {
	rows := 0
	for _, g := range graphs {
		rows += len(g.Friends)
	}
	if rows != m.Vocab {
		return fmt.Errorf("snapshot: sharded index covers %d rows but the model has %d", rows, m.Vocab)
	}
	if err := Save(w, m, tokens); err != nil {
		return err
	}
	return SaveShardedIndex(w, m.Dim, graphs)
}

// SaveShardedBundleFile writes a sharded bundle to path atomically
// (same-directory temp file and rename), like SaveFile.
func SaveShardedBundleFile(path string, m *word2vec.Model, tokens []string, graphs []*vecstore.HNSWGraph) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := SaveShardedBundle(f, m, tokens, graphs); err != nil {
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

// Bundle is everything one model file can carry: the model, its token
// table, and at most one of a single prebuilt index graph or the
// per-shard graphs of a sharded bundle.
type Bundle struct {
	Model  *word2vec.Model
	Tokens []string
	Graph  *vecstore.HNSWGraph   // single-index bundle, else nil
	Shards []*vecstore.HNSWGraph // sharded bundle, else nil
}

// LoadBundle loads a model in any persistence format (sharded bundle,
// single-index bundle, checkpoint, model-only snapshot, word2vec text
// — auto-sniffed like LoadBundleFile) and returns whatever index
// sections the file carries. A section whose shape disagrees with the
// model is corruption, not a soft miss.
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
	trail, err := br.Peek(len(IndexMagic))
	if err == io.EOF && len(trail) == 0 {
		return b, nil
	}
	switch {
	case IsWALMeta(trail):
		// A checkpoint used as a plain model: the handoff LSN only
		// matters to the WAL-aware startup path (LoadCheckpointFile);
		// here the folded model is the whole payload.
		if _, err := loadWALMeta(br); err != nil {
			return nil, err
		}
		return b, nil
	case IsShardedIndex(trail):
		graphs, dim, err := loadShardedIndex(br)
		if err != nil {
			return nil, err
		}
		rows := 0
		for _, g := range graphs {
			rows += len(g.Friends)
		}
		if rows != m.Vocab || dim != m.Dim {
			return nil, fmt.Errorf("snapshot: sharded index is for a %dx%d store but the model is %dx%d",
				rows, dim, m.Vocab, m.Dim)
		}
		b.Shards = graphs
		return b, nil
	default:
		g, dim, err := loadIndex(br, nil)
		if err != nil {
			return nil, err
		}
		if len(g.Friends) != m.Vocab || dim != m.Dim {
			return nil, fmt.Errorf("snapshot: index graph is for a %dx%d store but the model is %dx%d",
				len(g.Friends), dim, m.Vocab, m.Dim)
		}
		b.Graph = g
		return b, nil
	}
}
