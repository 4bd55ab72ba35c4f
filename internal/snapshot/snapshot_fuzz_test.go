package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
)

// allocated returns what fn allocated, in bytes.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// snapshotHeader is a model section's 24-byte header claiming a
// vocab x dim matrix.
func snapshotHeader(vocab, dim uint32) []byte {
	h := append([]byte(Magic), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint32(h[12:], dim)
	binary.LittleEndian.PutUint32(h[16:], vocab)
	return h
}

// FuzzLoadSnapshot feeds the model-section decoder arbitrary bytes
// through Load, the path that does not know the stream's length (it is
// what v2v.LoadModel and v2v.LoadSnapshot reach). It must not panic; it
// must not allocate by the shape the header claims, only by what the
// stream delivered; and a model it accepts saves back to a prefix of
// its input (an index section may follow).
func FuzzLoadSnapshot(f *testing.F) {
	m, _ := testModel(3, 2, 9)
	var snap bytes.Buffer
	if err := Save(&snap, m, []string{"a", "bc", ""}); err != nil {
		f.Fatal(err)
	}
	valid := snap.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	for _, seed := range [][]byte{
		valid,
		append(append([]byte(nil), valid...), fuzzSection(f)...), // a bundle
		valid[:len(valid)-1],
		valid[:30],
		flipped,
		resealed(valid, 20, 1),                // reserved flags set
		append(snapshotHeader(0, 1<<20), '0'), // no rows, a 4 MiB row buffer
		append(snapshotHeader(1, 1<<20), 0, 0, 0, 0),             // 28 bytes claiming a 4 MiB row
		append(snapshotHeader(200, 1<<20), make([]byte, 800)...), // 824 bytes claiming 800 MiB
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *word2vec.Model
		var tokens []string
		var err error
		// The reader's buffer, a token table pre-sized to at most 2^16
		// entries and one token's buffer of at most maxTokenLen, then per
		// delivered byte: the token strings, the matrix buffer grown by
		// doubling and the model it fills.
		grew := allocated(func() { got, tokens, err = Load(bytes.NewReader(data)) })
		if limit := uint64(1<<16 + 2*maxTokenLen + 256<<10 + 32*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := Save(&saved, got, tokens); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("a loaded model saves to %d bytes that are not the input's first", saved.Len())
		}
	})
}

// shardedHeader is a sharded section's 20-byte header for count shards,
// checksum included.
func shardedHeader(count uint32) []byte {
	h := append([]byte(ShardMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(h[8:], ShardVersion)
	binary.LittleEndian.PutUint32(h[12:], count)
	return binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
}

// FuzzLoadShardedIndex feeds the sharded-section decoder arbitrary
// bytes, with FuzzLoadIndex's properties: no panic, no allocation by a
// count the stream has not backed — however many shards it claims, they
// read through one link buffer — and accepted graphs save back to a
// prefix of the input.
func FuzzLoadShardedIndex(f *testing.F) {
	var valid bytes.Buffer
	g0 := &vecstore.HNSWGraph{Metric: vecstore.Cosine, M: 2, EfSearch: 4, Entry: 1, Friends: [][][]int32{{{1}}, {{0}, {}}}}
	g1 := &vecstore.HNSWGraph{Metric: vecstore.Cosine, M: 2, EfSearch: 4, Entry: -1}
	if err := SaveShardedIndex(&valid, 5, []*vecstore.HNSWGraph{g0, g1}); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer // a 37-byte section: the smallest a shard can be
	if err := SaveIndex(&empty, 5, g1); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	for _, seed := range [][]byte{
		v,
		v[:19],
		v[:20],
		v[:len(v)-1],
		append(shardedHeader(maxShards), bytes.Repeat(empty.Bytes(), 64)...),
		append(shardedHeader(1), empty.Bytes()...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var graphs []*vecstore.HNSWGraph
		var dim int
		var err error
		grew := allocated(func() { graphs, dim, err = LoadShardedIndex(bytes.NewReader(data)) })
		// The reader's and the link buffer, the shard table, then
		// FuzzLoadIndex's bound per delivered byte.
		if limit := uint64(256<<10 + 32*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := SaveShardedIndex(&saved, dim, graphs); err != nil {
			t.Fatalf("SaveShardedIndex of loaded graphs: %v", err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("loaded graphs save to %d bytes that are not the input's first", saved.Len())
		}
	})
}
