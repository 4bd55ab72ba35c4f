package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v2v/internal/word2vec"
	"v2v/internal/xrand"
)

// testModel builds a deterministic pseudo-random model with
// non-trivial tokens (including empty and multi-byte names).
func testModel(vocab, dim int, seed uint64) (*word2vec.Model, []string) {
	m := word2vec.NewModel(vocab, dim)
	rng := xrand.New(seed)
	for i := range m.Vectors {
		m.Vectors[i] = float32(rng.Float64()*2 - 1)
	}
	tokens := make([]string, vocab)
	for i := range tokens {
		switch i % 4 {
		case 0:
			tokens[i] = fmt.Sprintf("v%d", i)
		case 1:
			tokens[i] = fmt.Sprintf("vertex-ü%d", i)
		case 2:
			tokens[i] = ""
		default:
			tokens[i] = fmt.Sprintf("%d", i)
		}
	}
	return m, tokens
}

func TestRoundTrip(t *testing.T) {
	m, tokens := testModel(137, 17, 42)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, gotTokens, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Vocab != m.Vocab || got.Dim != m.Dim {
		t.Fatalf("shape: got %dx%d, want %dx%d", got.Vocab, got.Dim, m.Vocab, m.Dim)
	}
	if !reflect.DeepEqual(gotTokens, tokens) {
		t.Fatalf("tokens differ")
	}
	// Bit-identical vectors, not approximately-equal ones.
	for i, x := range m.Vectors {
		if math.Float32bits(got.Vectors[i]) != math.Float32bits(x) {
			t.Fatalf("vector bits differ at %d: %x vs %x", i, got.Vectors[i], x)
		}
	}
}

// TestRoundTripNeighborsParity checks the property serving cares
// about: a reloaded snapshot answers exactly the same top-k queries.
func TestRoundTripNeighborsParity(t *testing.T) {
	m, tokens := testModel(300, 24, 7)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, _, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, w := range []int{0, 13, 299} {
		want := m.Neighbors(w, 10)
		have := got.Neighbors(w, 10)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("Neighbors(%d) differ:\n  memory:  %v\n  snapshot: %v", w, want, have)
		}
	}
}

func TestNilTokensMatchTextDefault(t *testing.T) {
	m, _ := testModel(9, 4, 3)
	var buf bytes.Buffer
	if err := Save(&buf, m, nil); err != nil {
		t.Fatalf("Save: %v", err)
	}
	_, tokens, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i, tok := range tokens {
		if tok != fmt.Sprint(i) {
			t.Fatalf("token %d = %q, want decimal index", i, tok)
		}
	}
}

func TestSaveTokenCountMismatch(t *testing.T) {
	m, _ := testModel(5, 3, 1)
	if err := Save(&bytes.Buffer{}, m, make([]string, 4)); err == nil {
		t.Fatal("Save accepted a short token table")
	}
}

func TestTruncation(t *testing.T) {
	m, tokens := testModel(40, 8, 11)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()
	// Every strictly-shorter prefix must fail loudly, never succeed
	// with partial data.
	for _, n := range []int{0, 4, len(Magic), 20, 24, 60, len(full) / 2, len(full) - 5, len(full) - 1} {
		if _, _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("Load accepted a %d/%d-byte truncation", n, len(full))
		}
	}
}

func TestCorruption(t *testing.T) {
	m, tokens := testModel(40, 8, 11)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()
	// Flip one byte at assorted offsets across header, token table,
	// matrix and trailer; the checksum (or a bounds check) must catch
	// every one.
	for _, off := range []int{0, 9, 13, 25, 40, len(full) / 2, len(full) - 2} {
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x40
		if _, _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Load accepted a corrupt byte at offset %d", off)
		}
	}
	// Trailing garbage after a valid snapshot is corruption too.
	if _, _, err := Load(bytes.NewReader(append(append([]byte(nil), full...), 0))); err == nil {
		t.Fatal("Load accepted trailing data")
	}
}

// TestImplausibleHeaderShapes checks that corrupt or crafted headers
// fail fast instead of triggering shape-sized allocations: a huge
// claimed vocab on a small file (caught by the size check on the file
// path, and by incremental token reads on the stream path) and an
// over-limit dim.
func TestImplausibleHeaderShapes(t *testing.T) {
	m, tokens := testModel(4, 2, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatal(err)
	}
	crafted := append([]byte(nil), buf.Bytes()...)

	// vocab = 2^31 - 1 with dim = 1.
	binary.LittleEndian.PutUint32(crafted[12:], 1)
	binary.LittleEndian.PutUint32(crafted[16:], math.MaxInt32)
	path := filepath.Join(t.TempDir(), "crafted.snap")
	if err := os.WriteFile(path, crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("LoadFile accepted an implausible vocab claim: %v", err)
	}
	if _, _, err := Load(bytes.NewReader(crafted)); err == nil {
		t.Fatal("Load accepted an implausible vocab claim")
	}

	// dim over the sanity cap.
	crafted = append(crafted[:0], buf.Bytes()...)
	binary.LittleEndian.PutUint32(crafted[12:], 1<<24)
	binary.LittleEndian.PutUint32(crafted[16:], 1)
	if _, _, err := Load(bytes.NewReader(crafted)); err == nil {
		t.Fatal("Load accepted an implausible dim claim")
	}
}

func TestBadVersion(t *testing.T) {
	m, tokens := testModel(4, 2, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	bad := buf.Bytes()
	bad[8] = 99 // version field
	_, _, err := Load(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestLoadAutoDetectsBothFormats(t *testing.T) {
	m, tokens := testModel(25, 6, 5)
	// The text format cannot represent empty tokens (the line would
	// lose a field); use whitespace-free non-empty names here. Binary
	// snapshots have no such restriction (TestRoundTrip covers it).
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok-%d", i)
	}

	var bin bytes.Buffer
	if err := Save(&bin, m, tokens); err != nil {
		t.Fatalf("Save: %v", err)
	}
	gotBin, binTokens, err := LoadAuto(&bin)
	if err != nil {
		t.Fatalf("LoadAuto(snapshot): %v", err)
	}

	var text bytes.Buffer
	if err := m.Save(&text, func(i int) string { return tokens[i] }); err != nil {
		t.Fatalf("text Save: %v", err)
	}
	gotText, textTokens, err := LoadAuto(&text)
	if err != nil {
		t.Fatalf("LoadAuto(text): %v", err)
	}

	if !reflect.DeepEqual(binTokens, tokens) || !reflect.DeepEqual(textTokens, tokens) {
		t.Fatal("tokens differ across formats")
	}
	if gotBin.Vocab != m.Vocab || gotText.Vocab != m.Vocab {
		t.Fatal("vocab differs across formats")
	}
	// The binary path is bit-exact; the text path goes through %g
	// which also round-trips float32 exactly.
	for i := range m.Vectors {
		if gotBin.Vectors[i] != m.Vectors[i] {
			t.Fatalf("binary vector %d differs", i)
		}
		if gotText.Vectors[i] != m.Vectors[i] {
			t.Fatalf("text vector %d differs", i)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	m, tokens := testModel(30, 5, 9)
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := SaveBundleFile(path, m, tokens, nil); err != nil {
		t.Fatalf("SaveBundleFile: %v", err)
	}
	got, gotTokens, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Vocab != m.Vocab || !reflect.DeepEqual(gotTokens, tokens) {
		t.Fatal("file round trip mismatch")
	}
	// No temp droppings left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the snapshot in tempdir, found %d entries", len(entries))
	}
}

// BenchmarkLoadSnapshot / BenchmarkLoadText quantify the startup win
// the binary format exists for (the ~10x claim in docs/SERVING.md).
func BenchmarkLoadSnapshot(b *testing.B) {
	m, tokens := testModel(10000, 64, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m, tokens); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadText(b *testing.B) {
	m, tokens := testModel(10000, 64, 1)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("v%d", i) // text format needs non-empty tokens
	}
	var buf bytes.Buffer
	if err := m.Save(&buf, func(i int) string { return tokens[i] }); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := word2vec.Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWrongFormatErrorNamesMagic pins the error every file-loading
// entry point produces for a wrong-format file: it must name the
// bytes the file actually starts with and the magic that was
// expected, instead of surfacing a baffling word2vec text-parse
// artifact. A bundle whose index trailer is of an older format (one
// graph, "V2VHNSW1", or a sharded section, "V2VSHRD1") fails the same
// way, naming the trailer's magic and the current one.
func TestWrongFormatErrorNamesMagic(t *testing.T) {
	m, tokens := testModel(4, 3, 5)
	var model bytes.Buffer
	if err := Save(&model, m, tokens); err != nil {
		t.Fatal(err)
	}
	// oldBundle is the model followed by a trailer of an older layout:
	// magic, version 1, then bytes no current loader reads.
	oldBundle := func(magic string) []byte {
		b := append(append([]byte(nil), model.Bytes()...), magic...)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return append(b, make([]byte, 24)...)
	}
	for _, c := range []struct {
		name, head, want string
		data             []byte
	}{
		{"elf", "\x89ELF\x01\x02\x03\x04", Magic, []byte("\x89ELF\x01\x02\x03\x04not a model in any format")},
		{"one-graph bundle v1", "V2VHNSW1", IndexMagic, oldBundle("V2VHNSW1")},
		{"sharded bundle v1", "V2VSHRD1", IndexMagic, oldBundle("V2VSHRD1")},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bogus.bin")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(name string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted a wrong-format file", name)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", c.head)) {
					t.Errorf("%s error does not name the observed head %q: %v", name, c.head, err)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s error does not name the expected magic %q: %v", name, c.want, err)
				}
			}
			_, _, err := LoadFile(path)
			check("LoadFile", err)

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, _, aerr := LoadAuto(f)
			f.Close()
			check("LoadAuto", aerr)

			_, berr := LoadBundle(path)
			check("LoadBundle", berr)
		})
	}
}
