package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"v2v/internal/snapshot"
)

// newWALServer builds a WAL-backed test server over the deterministic
// seed-42 model. Callers restart it by calling newWALServer again with
// the same dir: the base model closure rebuilds an identical model, so
// any state difference after a restart comes from the checkpoint and
// the log.
func newWALServer(t *testing.T, dir string, cfg Config, vocab, dim int) (*Server, *httptest.Server) {
	t.Helper()
	cfg.WAL.Dir = dir
	m, tokens := testModel(vocab, dim, 42)
	s, err := NewFromModel(cfg, m, tokens)
	if err != nil {
		t.Fatalf("NewFromModel: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func TestWALStartupReplay(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newWALServer(t, dir, Config{}, 40, 6)

	// A mix of every logged shape: single upsert, batch upsert
	// (including a replace), single delete, batch delete.
	if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: "solo", Vector: vec(6, 1)}, nil); code != 200 {
		t.Fatalf("upsert: status %d", code)
	}
	batch := UpsertBatchRequest{Items: []UpsertRequest{
		{Vertex: "b0", Vector: vec(6, 2)},
		{Vertex: "solo", Vector: vec(6, 3)}, // replace
		{Vertex: "b1", Vector: vec(6, 4)},
	}}
	if code := postJSON(t, hs1.URL+"/v1/upsert/batch", batch, nil); code != 200 {
		t.Fatalf("upsert batch: status %d", code)
	}
	if code := postJSON(t, hs1.URL+"/v1/delete", DeleteRequest{Vertex: "v3"}, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := postJSON(t, hs1.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"b0", "v7"}}, nil); code != 200 {
		t.Fatalf("delete batch: status %d", code)
	}
	var h1 map[string]any
	getJSON(t, hs1.URL+"/healthz", &h1)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the fresh base model plus the replayed log must
	// reproduce the acknowledged state exactly.
	_, hs2 := newWALServer(t, dir, Config{}, 40, 6)
	var h2 map[string]any
	getJSON(t, hs2.URL+"/healthz", &h2)
	if h1["vectors"] != h2["vectors"] {
		t.Fatalf("live vectors after restart = %v, want %v", h2["vectors"], h1["vectors"])
	}
	for _, tok := range []string{"solo", "b1", "v0"} {
		if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex="+tok, nil); code != 200 {
			t.Fatalf("replayed vertex %q: status %d", tok, code)
		}
	}
	for _, tok := range []string{"v3", "v7", "b0"} {
		if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex="+tok, nil); code != 404 {
			t.Fatalf("deleted vertex %q: status %d, want 404", tok, code)
		}
	}
	// The replaced vertex must carry its newest vector: its similarity
	// to itself is 1, and its neighbors come from vec(6, 3)'s position.
	var sim SimilarityResponse
	if code := getJSON(t, hs2.URL+"/v1/similarity?a=solo&b=b1", &sim); code != 200 {
		t.Fatalf("similarity: status %d", code)
	}
	var stats StatsResponse
	getJSON(t, hs2.URL+"/stats", &stats)
	if !stats.WAL.Enabled {
		t.Fatal("stats: WAL not reported enabled")
	}
	if stats.WAL.ReplayedRecords != 7 {
		t.Fatalf("stats: replayed %d records, want 7", stats.WAL.ReplayedRecords)
	}
}

func TestWALCheckpointFoldsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	// Tiny volume threshold: the first write crosses it, the follow-up
	// write's plan sees the folded state. Tiny segments so truncation
	// actually removes files.
	cfg := Config{WAL: WALConfig{CheckpointBytes: 1, SegmentBytes: 1}, CompactFraction: -1}
	s1, hs1 := newWALServer(t, dir, cfg, 30, 5)

	for i := 0; i < 8; i++ {
		if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: fmt.Sprintf("ck%d", i), Vector: vec(5, float32(i)+1)}, nil); code != 200 {
			t.Fatalf("upsert %d: status %d", i, code)
		}
	}
	// Wait for the last checkpoint, not the first: every write above
	// crossed the threshold, and one still in flight would replace the
	// file between the two reads of its LSN below. Handlers start a
	// checkpoint before they answer, so none starts after this.
	deadline := time.Now().Add(5 * time.Second)
	for s1.checkpoints.Load() == 0 || s1.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	ckLSN := s1.ckptLSN.Load()
	if ckLSN == 0 {
		t.Fatal("checkpoint LSN not recorded")
	}
	m, _, lsn, err := snapshot.LoadCheckpointFile(CheckpointPath(dir))
	if err != nil {
		t.Fatalf("LoadCheckpointFile: %v", err)
	}
	if lsn != ckLSN {
		t.Fatalf("checkpoint file lsn %d, want %d", lsn, ckLSN)
	}
	if m.Dim != 5 {
		t.Fatalf("checkpoint dim %d", m.Dim)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from a DIFFERENT base model: the checkpoint must win. If
	// the server fell back to the base closure, it would serve 3
	// vectors and know none of the ck* tokens.
	cfg2 := Config{WAL: WALConfig{Dir: dir}}
	m2, tokens2 := testModel(3, 5, 7)
	s2, err := NewFromModel(cfg2, m2, tokens2)
	if err != nil {
		t.Fatalf("restart from checkpoint: %v", err)
	}
	defer s2.Close()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	var h map[string]any
	getJSON(t, hs2.URL+"/healthz", &h)
	if v := int(h["vectors"].(float64)); v != 30+8 {
		t.Fatalf("restarted server serves %d vectors, want %d", v, 38)
	}
	for i := 0; i < 8; i++ {
		if code := getJSON(t, hs2.URL+fmt.Sprintf("/v1/neighbors?vertex=ck%d", i), nil); code != 200 {
			t.Fatalf("ck%d missing after checkpoint restart", i)
		}
	}
}

func TestWALReloadCheckpointsNewWorld(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newWALServer(t, dir, Config{}, 20, 4)
	if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: "preload", Vector: vec(4, 9)}, nil); code != 200 {
		t.Fatalf("upsert: status %d", code)
	}
	// Swap in a different world; with a WAL attached this must write a
	// forced checkpoint so a crash restarts into the reloaded model.
	m2, tokens2 := testModel(11, 4, 99)
	if _, err := s1.SwapModel(m2, tokens2, "mem://reloaded"); err != nil {
		t.Fatalf("SwapModel: %v", err)
	}
	if got := s1.checkpoints.Load(); got != 1 {
		t.Fatalf("reload wrote %d checkpoints, want 1", got)
	}
	if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: "postload", Vector: vec(4, 3)}, nil); code != 200 {
		t.Fatalf("post-reload upsert: status %d", code)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the original base: checkpoint + suffix replay
	// must reproduce the post-reload world, not the pre-reload one.
	_, hs2 := newWALServer(t, dir, Config{}, 20, 4)
	var h map[string]any
	getJSON(t, hs2.URL+"/healthz", &h)
	if v := int(h["vectors"].(float64)); v != 12 {
		t.Fatalf("restarted server serves %d vectors, want 12 (11 reloaded + 1 post-reload upsert)", v)
	}
	if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex=preload", nil); code != 404 {
		t.Fatalf("pre-reload vertex survived the reload checkpoint: status %d, want 404", code)
	}
	if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex=postload", nil); code != 200 {
		t.Fatalf("post-reload vertex lost: status %d", code)
	}
}

func TestWALAppendFailureIsNotAcked(t *testing.T) {
	dir := t.TempDir()
	s, hs := newWALServer(t, dir, Config{}, 25, 4)
	// Force every append to fail: a closed log rejects writes.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	upsertsBefore := s.upserts.Load()

	var errBody map[string]string
	if code := postJSON(t, hs.URL+"/v1/upsert", UpsertRequest{Vertex: "doomed", Vector: vec(4, 1)}, &errBody); code != 500 {
		t.Fatalf("upsert with dead WAL: status %d, want 500 (%v)", code, errBody)
	}
	if code := postJSON(t, hs.URL+"/v1/delete", DeleteRequest{Vertex: "v1"}, nil); code != 500 {
		t.Fatalf("delete with dead WAL: status %d, want 500", code)
	}
	if code := postJSON(t, hs.URL+"/v1/upsert/batch", UpsertBatchRequest{Items: []UpsertRequest{{Vertex: "d2", Vector: vec(4, 2)}}}, nil); code != 500 {
		t.Fatalf("upsert batch with dead WAL: status %d, want 500", code)
	}
	if code := postJSON(t, hs.URL+"/v1/delete/batch", DeleteBatchRequest{Vertices: []string{"v2"}}, nil); code != 500 {
		t.Fatalf("delete batch with dead WAL: status %d, want 500", code)
	}
	// Nothing may have been applied: the un-logged writes must be
	// invisible, or a restart would silently lose acknowledged state.
	if got := s.upserts.Load(); got != upsertsBefore {
		t.Fatalf("upserts counter moved %d -> %d despite failed appends", upsertsBefore, got)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=doomed", nil); code != 404 {
		t.Fatalf("failed upsert is visible: status %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1", nil); code != 200 {
		t.Fatalf("failed delete removed the vertex: status %d, want 200", code)
	}
}

func TestWALTornTailSurfacesInStats(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newWALServer(t, dir, Config{}, 10, 4)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, hs1.URL+"/v1/upsert", UpsertRequest{Vertex: fmt.Sprintf("t%d", i), Vector: vec(4, float32(i)+1)}, nil); code != 200 {
			t.Fatalf("upsert: status %d", code)
		}
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: chop a few bytes off the newest segment, as
	// a crash mid-append would.
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range segs {
		if name := e.Name(); len(name) == 24 && name[20:] == ".wal" {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no wal segment found")
	}
	path := dir + "/" + last
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, hs2 := newWALServer(t, dir, Config{}, 10, 4)
	var stats StatsResponse
	getJSON(t, hs2.URL+"/stats", &stats)
	if !stats.WAL.RecoveredTorn {
		t.Fatal("stats: torn-tail recovery not reported")
	}
	// Two intact frames replay; the torn third is (correctly) gone.
	if stats.WAL.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records after tear, want 2", stats.WAL.ReplayedRecords)
	}
	if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex=t1", nil); code != 200 {
		t.Fatalf("intact frame lost: status %d", code)
	}
	if code := getJSON(t, hs2.URL+"/v1/neighbors?vertex=t2", nil); code != 404 {
		t.Fatalf("torn frame replayed: status %d, want 404", code)
	}
}
