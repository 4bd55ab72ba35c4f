package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	m, tokens := testModel(53, 9, 7)
	path := filepath.Join(t.TempDir(), "checkpoint.snap")
	const lsn = 123456789
	if err := SaveCheckpointFile(path, m, tokens, lsn); err != nil {
		t.Fatalf("SaveCheckpointFile: %v", err)
	}
	m2, tokens2, gotLSN, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("LoadCheckpointFile: %v", err)
	}
	if gotLSN != lsn {
		t.Fatalf("handoff LSN = %d, want %d", gotLSN, lsn)
	}
	if m2.Vocab != m.Vocab || m2.Dim != m.Dim || !reflect.DeepEqual(m2.Vectors, m.Vectors) {
		t.Fatal("checkpoint model does not round-trip")
	}
	if !reflect.DeepEqual(tokens2, tokens) {
		t.Fatal("checkpoint tokens do not round-trip")
	}
}

func TestCheckpointLoadableAsPlainModel(t *testing.T) {
	// Every model loader must tolerate the trailing handoff section, so
	// a checkpoint can also serve as an ordinary -model argument.
	m, tokens := testModel(20, 5, 3)
	path := filepath.Join(t.TempDir(), "checkpoint.snap")
	if err := SaveCheckpointFile(path, m, tokens, 42); err != nil {
		t.Fatal(err)
	}
	m2, tokens2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile on checkpoint: %v", err)
	}
	if m2.Vocab != m.Vocab || !reflect.DeepEqual(tokens2, tokens) {
		t.Fatal("LoadFile mangled the checkpoint model")
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatalf("LoadBundle on checkpoint: %v", err)
	}
	if b.Shards != nil {
		t.Fatal("LoadBundle invented an index graph")
	}
	if !reflect.DeepEqual(b.Model.Vectors, m.Vectors) {
		t.Fatal("LoadBundle mangled the checkpoint model")
	}
}

func TestCheckpointRejectsDamage(t *testing.T) {
	m, tokens := testModel(20, 5, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.snap")
	if err := SaveCheckpointFile(path, m, tokens, 42); err != nil {
		t.Fatal(err)
	}
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := func(name string, mutate func([]byte) []byte, wantErr string) {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".snap")
			if err := os.WriteFile(p, mutate(append([]byte(nil), healthy...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := LoadCheckpointFile(p)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("LoadCheckpointFile = %v, want error mentioning %q", err, wantErr)
			}
		})
	}
	metaStart := len(healthy) - (len(WALMetaMagic) + 16)
	damage("missing-handoff", func(b []byte) []byte {
		return b[:metaStart]
	}, "WAL handoff")
	damage("truncated-handoff", func(b []byte) []byte {
		return b[:len(b)-3]
	}, "truncated WAL handoff")
	damage("flipped-lsn", func(b []byte) []byte {
		b[metaStart+12] ^= 1 // LSN byte: the section CRC must catch it
		return b
	}, "checksum mismatch")
	damage("trailing-garbage", func(b []byte) []byte {
		return append(b, "junk"...)
	}, "trailing data")

	// A plain model (no handoff section) is not a checkpoint.
	plain := filepath.Join(dir, "plain.snap")
	if err := SaveBundleFile(plain, m, tokens, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpointFile(plain); err == nil {
		t.Fatal("LoadCheckpointFile accepted a model with no handoff section")
	}
}
