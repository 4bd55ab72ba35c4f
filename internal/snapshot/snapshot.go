// Package snapshot is the fast-startup persistence layer of the
// serving stack: a versioned binary container for a trained model and
// its token table. The word2vec text format (Model.Save) is the
// interchange format — portable, diffable, slow: every load re-parses
// one decimal float per weight. A snapshot stores the same data as a
// raw little-endian float32 matrix behind a fixed header, so loading
// is a bounds-checked byte copy (~10x faster at paper scale) and the
// server can restart or hot-reload in milliseconds.
//
// Layout (all integers little-endian):
//
//	[8]  magic "V2VSNAP1"
//	[4]  format version (currently 1)
//	[4]  dim   (uint32 > 0)
//	[4]  vocab (uint32)
//	[4]  flags (reserved, 0)
//	per token, vocab times: [4] byte length, then the UTF-8 bytes
//	[vocab*dim*4] row-major float32 vectors
//	[4]  CRC-32 (IEEE) of every preceding byte
//
// The trailing checksum turns silent corruption (truncated copy,
// bit rot, partial write) into a load error; every length field is
// bounds-checked so damaged inputs fail cleanly instead of
// over-allocating. See docs/SERVING.md.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"v2v/internal/word2vec"
)

// Magic identifies a snapshot stream; Version is the current format.
const (
	Magic   = "V2VSNAP1"
	Version = 1
)

// maxTokenLen bounds a single token record; longer means corruption
// (no vertex name is a megabyte). maxDim likewise bounds the claimed
// dimensionality — the paper operates at 50-128 — so a corrupt header
// cannot demand a near-2^31-float matrix allocation up front.
const (
	maxTokenLen = 1 << 20
	maxDim      = 1 << 20
)

// IsSnapshot reports whether head (the first >= 8 bytes of a stream)
// starts with the snapshot magic. Shorter prefixes report false; no
// text-format model matches (its first line is "vocab dim").
func IsSnapshot(head []byte) bool {
	return len(head) >= len(Magic) && string(head[:len(Magic)]) == Magic
}

// Save writes m and its token table as a binary snapshot. tokens maps
// each row to its vertex name and must either be nil — rows are named
// by their decimal index, matching Model.Save's default — or have
// exactly m.Vocab entries.
func Save(w io.Writer, m *word2vec.Model, tokens []string) error {
	if tokens != nil && len(tokens) != m.Vocab {
		return fmt.Errorf("snapshot: %d tokens for %d rows", len(tokens), m.Vocab)
	}
	if m.Dim <= 0 {
		return fmt.Errorf("snapshot: invalid dimension %d", m.Dim)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var u32 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	for _, v := range []uint32{Version, uint32(m.Dim), uint32(m.Vocab), 0} {
		if err := put(v); err != nil {
			return err
		}
	}
	for i := 0; i < m.Vocab; i++ {
		tok := strconv.Itoa(i)
		if tokens != nil {
			tok = tokens[i]
		}
		if len(tok) > maxTokenLen {
			return fmt.Errorf("snapshot: token %d is %d bytes (max %d)", i, len(tok), maxTokenLen)
		}
		if err := put(uint32(len(tok))); err != nil {
			return err
		}
		if _, err := bw.WriteString(tok); err != nil {
			return err
		}
	}
	// Matrix: serialised in row-sized chunks so buffer memory stays
	// independent of model size.
	row := make([]byte, m.Dim*4)
	for i := 0; i < m.Vocab; i++ {
		for j, x := range m.Vector(i) {
			binary.LittleEndian.PutUint32(row[j*4:], math.Float32bits(x))
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	// Flush so the MultiWriter-backed CRC has seen every payload byte,
	// then append the checksum (not part of its own coverage).
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err := w.Write(u32[:])
	return err
}

// Load reads a snapshot written by Save, verifying the magic, version
// and trailing checksum. It returns the model and the token of every
// row, mirroring word2vec.Load.
func Load(r io.Reader) (*word2vec.Model, []string, error) {
	return load(bufio.NewReaderSize(r, 1<<16), -1)
}

// load implements Load over an existing buffered reader (so bundle
// loading can continue into an index trailer). size, when >= 0, is the
// total stream length (known on the file path): the header's claimed
// shape is checked against it before any shape-sized allocation, so a
// corrupt or crafted header on a small file fails instantly instead of
// attempting a multi-gigabyte make.
func load(br *bufio.Reader, size int64) (*word2vec.Model, []string, error) {
	// The CRC is updated on consumption (after each ReadFull), not via
	// an io.TeeReader around the raw stream: bufio read-ahead would
	// otherwise hash trailer bytes into the payload sum.
	crc := crc32.NewIEEE()
	var src io.Reader = br // the matrix may come from a buffer instead
	readFull := func(buf []byte, what string) error {
		if _, err := io.ReadFull(src, buf); err != nil {
			return fmt.Errorf("snapshot: truncated %s: %w", what, err)
		}
		crc.Write(buf)
		return nil
	}

	head := make([]byte, len(Magic)+16)
	if err := readFull(head, "header"); err != nil {
		return nil, nil, err
	}
	if !IsSnapshot(head) {
		return nil, nil, fmt.Errorf("snapshot: bad magic %q", head[:len(Magic)])
	}
	version := binary.LittleEndian.Uint32(head[8:])
	if version != Version {
		return nil, nil, fmt.Errorf("snapshot: unsupported version %d (supported: %d)", version, Version)
	}
	dim := binary.LittleEndian.Uint32(head[12:])
	vocab := binary.LittleEndian.Uint32(head[16:])
	if dim == 0 || dim > maxDim || int64(vocab)*int64(dim) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("snapshot: implausible shape %dx%d", vocab, dim)
	}
	if flags := binary.LittleEndian.Uint32(head[20:]); flags != 0 {
		return nil, nil, fmt.Errorf("snapshot: unsupported flags %#x (reserved, must be 0)", flags)
	}
	// Minimum stream length the claimed shape implies: header, one
	// 4-byte length per token, the matrix, the trailer.
	if need := int64(len(head)) + int64(vocab)*4 + int64(vocab)*int64(dim)*4 + 4; size >= 0 && size < need {
		return nil, nil, fmt.Errorf("snapshot: header claims %dx%d (>= %d bytes) but file is %d bytes: truncated or corrupt", vocab, dim, need, size)
	}

	// Tokens are grown with append rather than pre-allocated to the
	// claimed count, so on a truncated stream the read fails before
	// the allocation balloons.
	tokens := make([]string, 0, min(int(vocab), 1<<16))
	var u32 [4]byte
	for i := 0; i < int(vocab); i++ {
		if err := readFull(u32[:], fmt.Sprintf("token table at row %d", i)); err != nil {
			return nil, nil, err
		}
		n := binary.LittleEndian.Uint32(u32[:])
		if n > maxTokenLen {
			return nil, nil, fmt.Errorf("snapshot: token %d length %d exceeds %d (corrupt file?)", i, n, maxTokenLen)
		}
		buf := make([]byte, n)
		if err := readFull(buf, fmt.Sprintf("token %d", i)); err != nil {
			return nil, nil, err
		}
		tokens = append(tokens, string(buf))
	}

	// With the stream length known, the claimed shape was checked
	// against it above and the matrix is allocated once. A stream of
	// unknown length must deliver the matrix first, into a buffer that
	// grows with what arrives, so a header claiming gigabytes over a
	// short stream fails at the stream's end instead of at the claim.
	rowBytes := int64(dim) * 4
	if size < 0 {
		var buf bytes.Buffer
		n, err := buf.ReadFrom(io.LimitReader(br, int64(vocab)*rowBytes))
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: reading matrix: %w", err)
		}
		if n < int64(vocab)*rowBytes {
			return nil, nil, fmt.Errorf("snapshot: truncated matrix at row %d of %d: %w", n/rowBytes, vocab, io.ErrUnexpectedEOF)
		}
		src = &buf
	}
	m := word2vec.NewModel(int(vocab), int(dim))
	var row []byte
	if vocab > 0 { // no rows, no row buffer: dim alone is only a claim
		row = make([]byte, rowBytes)
	}
	for i := 0; i < int(vocab); i++ {
		if err := readFull(row, fmt.Sprintf("matrix at row %d of %d", i, vocab)); err != nil {
			return nil, nil, err
		}
		vec := m.Vector(i)
		for j := range vec {
			vec[j] = math.Float32frombits(binary.LittleEndian.Uint32(row[j*4:]))
		}
	}

	want := crc.Sum32() // payload checksum: everything consumed so far
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, nil, fmt.Errorf("snapshot: truncated checksum: %w", err)
	}
	if stored := binary.LittleEndian.Uint32(u32[:]); stored != want {
		return nil, nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): file is corrupt", stored, want)
	}
	// The only bytes allowed after the model section are an index
	// trailer (see graph.go) or a WAL handoff section (see walmeta.go);
	// anything else — an older bundle's trailer included — is named by
	// the bytes it starts with.
	if trail, err := br.Peek(len(IndexMagic)); len(trail) > 0 {
		if !isIndexGraph(trail) && !IsWALMeta(trail) {
			return nil, nil, fmt.Errorf("snapshot: trailing data after checksum starts %q, not the index trailer magic %q or the WAL handoff magic %q",
				trail, IndexMagic, WALMetaMagic)
		}
	} else if err != io.EOF {
		return nil, nil, err
	}
	if err := CheckFinite(m, tokens); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, tokens, nil
}

// CheckFinite refuses a model holding a NaN or an infinity, naming the
// first such row by its token (by its index when tokens is nil). Every
// loader here runs it on what it decodes, and no write accepts such a
// value either, so a served row is finite and so is every score over
// it: no search can fail on one, alone or in a router's shared frame.
func CheckFinite(m *word2vec.Model, tokens []string) error {
	for id := 0; id < m.Vocab; id++ {
		for i, x := range m.Vector(id) {
			if x-x != 0 {
				name := strconv.Itoa(id)
				if tokens != nil {
					name = tokens[id]
				}
				return fmt.Errorf("vector %q: component %d is not finite", name, i)
			}
		}
	}
	return nil
}

// loadText reads the word2vec text format, held to the binary
// decoder's finite check; head names the stream's first bytes when it
// is not text either.
func loadText(br *bufio.Reader, head []byte) (*word2vec.Model, []string, error) {
	m, tokens, err := word2vec.Load(br)
	if err != nil {
		return nil, nil, notModelError(head, err)
	}
	if err := CheckFinite(m, tokens); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return m, tokens, nil
}

// LoadAuto loads a model in either format, sniffing the snapshot
// magic and falling back to the word2vec text parser. This is what
// every model-consuming entry point (v2v.LoadModel, the query and
// serve CLIs) calls, so workflows pick up fast binary loading without
// a flag.
func LoadAuto(r io.Reader) (*word2vec.Model, []string, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if IsSnapshot(head) {
		return load(br, -1)
	}
	return loadText(br, head)
}

// notModelError names the magic bytes actually seen when a stream is
// neither a binary snapshot nor parseable word2vec text. Without it a
// wrong-format file (an index graph, a gzip, a stray binary) surfaces
// as a baffling text-parse error; with it the error says what the
// file starts with and what was expected.
func notModelError(head []byte, err error) error {
	return fmt.Errorf("snapshot: file starts with %q — not the snapshot magic %q and not word2vec text: %w", head, Magic, err)
}

// writeAtomic writes path through write into a same-directory temp
// file and a rename, so a crash mid-write never leaves a half-written
// file at the target — the invariant hot reload depends on. durable
// adds an fsync before the rename and a directory sync after it, for a
// file that must itself survive a crash once published.
func writeAtomic(path string, durable bool, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if durable {
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// LoadFile loads a model from path in either format (snapshot or
// word2vec text). The known file size lets the snapshot path reject a
// corrupt header's implausible shape before allocating for it.
func LoadFile(path string) (*word2vec.Model, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if IsSnapshot(head) {
		return load(br, size)
	}
	return loadText(br, head)
}
