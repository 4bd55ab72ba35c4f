// WAL handoff metadata: the optional trailing section of a checkpoint
// snapshot. A checkpoint folds every write-ahead-log frame up to some
// LSN into a model snapshot; this section records that LSN, so a
// restarting server knows which prefix of the surviving log is already
// inside the snapshot and replays only the frames after it. Without
// the marker a snapshot and a log cannot be combined safely — replay
// would double-apply folded writes.
//
// Layout (all integers little-endian), appended after the model
// section's trailing CRC:
//
//	[8]  magic "V2VWMET1"
//	[4]  format version (currently 1)
//	[8]  applied LSN (uint64; every WAL frame with lsn <= this is
//	     already folded into the preceding model section)
//	[4]  CRC-32 (IEEE) of every preceding section byte
//
// See internal/wal for the log itself and docs/SERVING.md
// ("Durability") for the checkpoint lifecycle.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"v2v/internal/word2vec"
)

// WALMetaMagic identifies a WAL handoff section; WALMetaVersion is
// the current format.
const (
	WALMetaMagic   = "V2VWMET1"
	WALMetaVersion = 1
)

// IsWALMeta reports whether head (the first >= 8 bytes of a stream)
// starts with the WAL handoff magic.
func IsWALMeta(head []byte) bool {
	return len(head) >= len(WALMetaMagic) && string(head[:len(WALMetaMagic)]) == WALMetaMagic
}

// saveWALMeta writes the handoff section recording lsn.
func saveWALMeta(w io.Writer, lsn uint64) error {
	buf := make([]byte, 0, len(WALMetaMagic)+16)
	buf = append(buf, WALMetaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, WALMetaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// loadWALMeta reads a handoff section, verifying magic, version and
// checksum, and returns the applied LSN.
func loadWALMeta(br *bufio.Reader) (uint64, error) {
	buf := make([]byte, len(WALMetaMagic)+16)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, fmt.Errorf("snapshot: truncated WAL handoff section: %w", err)
	}
	if !IsWALMeta(buf) {
		return 0, fmt.Errorf("snapshot: not a WAL handoff section (magic %q)", buf[:len(WALMetaMagic)])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != WALMetaVersion {
		return 0, fmt.Errorf("snapshot: unsupported WAL handoff version %d (supported: %d)", v, WALMetaVersion)
	}
	body := buf[:len(buf)-4]
	if stored, want := binary.LittleEndian.Uint32(buf[len(buf)-4:]), crc32.ChecksumIEEE(body); stored != want {
		return 0, fmt.Errorf("snapshot: WAL handoff checksum mismatch (stored %08x, computed %08x): file is corrupt", stored, want)
	}
	return binary.LittleEndian.Uint64(buf[12:]), nil
}

// SaveCheckpointFile atomically writes a checkpoint: a model snapshot
// followed by a WAL handoff section recording that every log frame
// with lsn <= lsn is folded into it. A checkpoint exists to survive a
// crash, so it is synced before the rename publishes it: the replay cut
// it records is never ahead of the data it claims to hold.
func SaveCheckpointFile(path string, m *word2vec.Model, tokens []string, lsn uint64) error {
	return writeAtomic(path, true, func(w io.Writer) error {
		if err := Save(w, m, tokens); err != nil {
			return err
		}
		return saveWALMeta(w, lsn)
	})
}

// LoadCheckpointFile loads a checkpoint written by SaveCheckpointFile
// and returns the model, its tokens, and the LSN through which the
// write-ahead log is already folded in. A model without the handoff
// section is not a checkpoint and fails cleanly.
func LoadCheckpointFile(path string) (*word2vec.Model, []string, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	m, tokens, err := load(br, size)
	if err != nil {
		return nil, nil, 0, err
	}
	lsn, err := loadWALMeta(br)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := br.Peek(1); err != io.EOF {
		return nil, nil, 0, fmt.Errorf("snapshot: trailing data after WAL handoff section")
	}
	return m, tokens, lsn, nil
}
