// Write-ahead logging for the online write path. With Config.WAL.Dir
// set, every accepted upsert/delete is appended (and, under the
// default sync policy, fsynced) to an internal/wal log *before* the
// in-memory store and index are mutated and the client sees a 2xx —
// so an acknowledged write survives a crash. Startup replays the log
// on top of the last checkpoint (or the base model) through the same
// applyUpsert/applyDelete path live writes take, and checkpointing
// folds the log back into a snapshot so neither the log nor replay
// time grows without bound:
//
//	write path:   validate -> WAL append (fsync) -> apply -> ack
//	startup:      load checkpoint.snap (or model) -> wal.Open (repair
//	              torn tail) -> replay frames > checkpoint LSN
//	checkpoint:   gather the live rows + LastLSN under the reader lock ->
//	              write checkpoint.snap off-lock -> truncate replayed
//	              segments
//
// Two things write a checkpoint: log volume (in the background, one at
// a time) and a hot reload (synchronously, so a crash after a reload
// restarts into the reloaded world, not the pre-reload one). Shard
// compaction does not: it changes neither the live set nor the log.
// See docs/SERVING.md ("Durability").
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
	"v2v/internal/wal"
	"v2v/internal/word2vec"
)

// WALConfig configures write-ahead logging (Config.WAL). The zero
// value disables it.
type WALConfig struct {
	// Dir is the log directory; non-empty enables the WAL. The
	// checkpoint bundle lives in the same directory as
	// "checkpoint.snap" and, when present, supersedes ModelPath at
	// startup (it is the model plus every checkpointed write).
	Dir string

	// Sync is the fsync policy: "always" (default; acknowledged
	// implies durable), "interval" (background fsync every
	// SyncInterval; bounded loss window), or "never" (OS-paced).
	Sync string

	// SyncInterval is the flush period under "interval" (default
	// 100ms).
	SyncInterval time.Duration

	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int64

	// CheckpointBytes triggers a background checkpoint once this many
	// log bytes accumulate since the last one (0 = 16 MiB default,
	// negative disables volume-triggered checkpoints — reloads still
	// write them).
	CheckpointBytes int64
}

// checkpointFile is the checkpoint bundle's name inside WAL.Dir.
const checkpointFile = "checkpoint.snap"

const defaultCheckpointBytes = 16 << 20

// CheckpointPath returns the checkpoint bundle path for a WAL
// directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointFile) }

// newDurable builds a WAL-backed server: the base model comes from
// the checkpoint when one exists (base, otherwise), then the log is
// opened (repairing any torn tail) and replayed on top.
func newDurable(cfg Config, base func() (*word2vec.Model, []string, *vecstore.Sharded, error)) (*Server, error) {
	var (
		s       *Server
		baseLSN uint64
		err     error
	)
	ckptPath := CheckpointPath(cfg.WAL.Dir)
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		m, tokens, lsn, err := snapshot.LoadCheckpointFile(ckptPath)
		if err != nil {
			return nil, fmt.Errorf("server: loading checkpoint: %w", err)
		}
		s, err = newFromModel(cfg, m, tokens, nil, ckptPath)
		if err != nil {
			return nil, err
		}
		baseLSN = lsn
	} else {
		m, tokens, prebuilt, err := base()
		if err != nil {
			return nil, fmt.Errorf("server: loading model: %w", err)
		}
		s, err = newFromModel(cfg, m, tokens, prebuilt, cfg.ModelPath)
		if err != nil {
			return nil, err
		}
	}
	if err = s.openWAL(baseLSN); err != nil {
		return nil, err
	}
	return s, nil
}

// openWAL opens (and repairs) the configured log and replays every
// frame past baseLSN onto the freshly loaded generation.
func (s *Server) openWAL(baseLSN uint64) error {
	policy, err := wal.ParseSyncPolicy(s.cfg.WAL.Sync)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	lg, err := wal.Open(s.cfg.WAL.Dir, wal.Options{
		Sync:         policy,
		SyncInterval: s.cfg.WAL.SyncInterval,
		SegmentBytes: s.cfg.WAL.SegmentBytes,
		Log:          s.logger,
	})
	if err != nil {
		return fmt.Errorf("server: opening wal: %w", err)
	}
	s.wal = lg
	s.walSync = policy
	s.ckptLSN.Store(baseLSN)
	stats, err := lg.Replay(baseLSN, s.applyWALFrame)
	if err != nil {
		lg.Close()
		s.wal = nil
		return fmt.Errorf("server: wal replay: %w", err)
	}
	s.walReplayed.Store(stats.Records - stats.SkippedRecords)
	s.walRecovered.Store(lg.Recovery().Truncated)
	if stats.Records > 0 || stats.Truncated {
		s.logger.Printf("server: wal replay from lsn %d: %s", baseLSN, stats)
	}
	return nil
}

// applyWALFrame replays one logged frame through the live write path.
// A dimension mismatch (or any other validation failure) is fatal:
// the log does not belong to this model. A delete of an already-absent
// vertex is tolerated — a crash between a batch frame's append and the
// full in-memory apply can leave a logged-but-unacknowledged suffix
// whose replay partially overlaps the checkpointed state.
func (s *Server) applyWALFrame(lsn uint64, recs []wal.Record) error {
	st := s.lockCurrent()
	defer st.mu.Unlock()
	for i := range recs {
		switch recs[i].Op {
		case wal.OpUpsert:
			if err := validateUpsert(st, &recs[i]); err != nil {
				return fmt.Errorf("frame %d upsert %q: %w", lsn, recs[i].Token, err)
			}
			if _, err := s.applyUpsert(context.Background(), st, &recs[i]); err != nil {
				return fmt.Errorf("frame %d upsert %q: %w", lsn, recs[i].Token, err)
			}
		case wal.OpDelete:
			if _, err := s.applyDelete(context.Background(), st, &recs[i]); err != nil {
				var he *httpError
				if errors.As(err, &he) && he.code == http.StatusNotFound {
					continue
				}
				return fmt.Errorf("frame %d delete %q: %w", lsn, recs[i].Token, err)
			}
		default:
			return fmt.Errorf("frame %d: unknown op %d", lsn, recs[i].Op)
		}
	}
	return nil
}

// walAppendNoSync logs recs as one frame (one atomicity unit — a
// batch appends all its records through a single call) without
// waiting for durability, and returns the frame's LSN (0 with no WAL
// configured). Callers hold the current generation's writer lock, so
// the log's frame order is the apply order; they follow up with
// walWaitDurable *after* releasing it, so concurrent writes queueing
// on the lock group-commit under one fsync instead of serialising an
// fsync each behind it.
func (s *Server) walAppendNoSync(recs ...wal.Record) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	lsn, err := s.wal.AppendNoSync(recs...)
	if err != nil {
		// The write was NOT applied and must not be acknowledged: with
		// the log unwritable, accepting it would hand out an ack that a
		// restart cannot honor.
		return 0, &httpError{code: http.StatusInternalServerError,
			msg: fmt.Sprintf("write-ahead log append failed: %v", err)}
	}
	return lsn, nil
}

// walWaitDurable blocks until the frame at lsn is on stable storage
// (a no-op outside SyncAlways, and with no WAL). The write is already
// applied and visible when this fails, but it has not been
// acknowledged — the client's 500 means "indeterminate", which a
// crash would have produced anyway.
func (s *Server) walWaitDurable(lsn uint64) error {
	if s.wal == nil || lsn == 0 {
		return nil
	}
	if err := s.wal.WaitDurable(lsn); err != nil {
		return &httpError{code: http.StatusInternalServerError,
			msg: fmt.Sprintf("write-ahead log fsync failed: %v", err)}
	}
	return nil
}

// walWaitDurableCtx is walWaitDurable bounded by the request
// deadline. Without a deadline on ctx it is exactly walWaitDurable —
// no goroutine is spawned, and client-disconnect cancellation does
// not abandon fsync waits. When the deadline expires mid-wait the
// call answers the 503 deadline error immediately: the write is
// already applied and logged but *not acknowledged* — the same
// indeterminate contract a crash before the ack produces (see
// docs/SERVING.md). The wait itself completes in the background; the
// abandoned waiter may even be the group-commit leader, in which
// case its goroutine runs the fsync to completion for the followers.
func (s *Server) walWaitDurableCtx(ctx context.Context, lsn uint64) error {
	if s.wal == nil || lsn == 0 {
		return nil
	}
	if _, ok := ctx.Deadline(); !ok {
		return s.walWaitDurable(lsn)
	}
	if err := ctxExpired(ctx); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.wal.WaitDurable(lsn) }()
	select {
	case err := <-done:
		if err != nil {
			return &httpError{code: http.StatusInternalServerError,
				msg: fmt.Sprintf("write-ahead log fsync failed: %v", err)}
		}
		return nil
	case <-ctx.Done():
		return errDeadlineExpired
	}
}

// maybeCheckpoint starts a background checkpoint of st when enough log
// volume has accumulated since the last one to fold the log into a
// fresh snapshot, and none is in flight. Write handlers call it after
// their write is durable.
func (s *Server) maybeCheckpoint(st *modelState) {
	if s.wal == nil || s.cfg.WAL.CheckpointBytes < 0 {
		return
	}
	threshold := s.cfg.WAL.CheckpointBytes
	if threshold == 0 {
		threshold = defaultCheckpointBytes
	}
	if s.wal.AppendedBytes()-s.lastCkptBytes.Load() < threshold {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // a checkpoint is already in flight
	}
	go s.finishCheckpoint(st)
}

// finishCheckpoint gathers st's live rows (readers keep flowing) and
// writes the checkpoint. GatherLive is one consistent cut across every
// shard, and the reader lock excludes writers — so LastLSN read here is
// exactly the state gathered (shard compactions may run concurrently,
// but they never change the live set). A generation a reload has
// replaced is not checkpointed: the reload wrote the new world's
// checkpoint itself, and LastLSN now runs ahead of anything st holds
// (publishing takes st's writer lock, so the check holds until the
// unlock). Router mode never gets here: it rejects the WAL.
func (s *Server) finishCheckpoint(st *modelState) {
	defer s.compacting.Store(false)
	st.mu.RLock()
	if s.state.Load() != st {
		st.mu.RUnlock()
		return
	}
	folded, ids := st.sharded.GatherLive()
	tokens := make([]string, len(ids))
	for i, id := range ids {
		tokens[i] = st.tokens[id]
	}
	lsn := s.wal.LastLSN()
	st.mu.RUnlock()
	s.writeCheckpoint(&word2vec.Model{Dim: folded.Dim(), Vocab: folded.Len(), Vectors: folded.Data()},
		tokens, lsn, false, "volume")
}

// writeCheckpoint persists m+tokens as the checkpoint for lsn and
// truncates the log segments it folds in. m must not be mutated
// concurrently (callers pass an unpublished gather or a pre-publish
// copy). Stale writes — an LSN at or below the current checkpoint —
// are skipped unless force (the reload path, which must win at an
// equal LSN because it *replaces* the state the old checkpoint
// described). Failure is logged and serving continues: durability
// degrades to a longer replay, never to a lost ack.
func (s *Server) writeCheckpoint(m *word2vec.Model, tokens []string, lsn uint64, force bool, why string) {
	if s.wal == nil {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	cur := s.ckptLSN.Load()
	if lsn < cur || (lsn == cur && !force && cur > 0) {
		return
	}
	start := time.Now()
	if err := snapshot.SaveCheckpointFile(CheckpointPath(s.cfg.WAL.Dir), m, tokens, lsn); err != nil {
		s.logger.Printf("server: %s checkpoint at lsn %d failed: %v", why, lsn, err)
		return
	}
	s.ckptLSN.Store(lsn)
	s.lastCkptBytes.Store(s.wal.AppendedBytes())
	s.checkpoints.Add(1)
	removed, err := s.wal.TruncateThrough(lsn)
	if err != nil {
		// The checkpoint itself is good; the log just keeps more
		// history than it needs to.
		s.logger.Printf("server: truncating wal after checkpoint: %v", err)
	}
	s.logger.Printf("server: %s checkpoint: %d rows through lsn %d in %v (%d segments truncated)",
		why, m.Vocab, lsn, time.Since(start).Round(time.Millisecond), removed)
}

// WALStats reports the durability state in /stats.
type WALStats struct {
	Enabled         bool   `json:"enabled"`
	Path            string `json:"path,omitempty"`
	SyncPolicy      string `json:"sync_policy,omitempty"`
	LastLSN         uint64 `json:"last_lsn,omitempty"`
	AppendedBytes   int64  `json:"appended_bytes,omitempty"`
	Fsyncs          uint64 `json:"fsyncs,omitempty"`
	Checkpoints     uint64 `json:"checkpoints,omitempty"`
	CheckpointLSN   uint64 `json:"checkpoint_lsn,omitempty"`
	ReplayedRecords uint64 `json:"replayed_records,omitempty"`
	RecoveredTorn   bool   `json:"recovered_torn,omitempty"`
}

// walStats snapshots the WAL counters for /stats.
func (s *Server) walStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	return WALStats{
		Enabled:         true,
		Path:            s.wal.Dir(),
		SyncPolicy:      s.walSync.String(),
		LastLSN:         s.wal.LastLSN(),
		AppendedBytes:   s.wal.AppendedBytes(),
		Fsyncs:          s.wal.Fsyncs(),
		Checkpoints:     s.checkpoints.Load(),
		CheckpointLSN:   s.ckptLSN.Load(),
		ReplayedRecords: s.walReplayed.Load(),
		RecoveredTorn:   s.walRecovered.Load(),
	}
}

// Close releases the server's durable resources (the write-ahead
// log), stops and joins the current generation's background
// compactions and, in router mode, closes its fleet (health-probe
// goroutines, search senders, idle remote connections). Serve calls it
// on shutdown; embedders that never call Serve (tests, in-process
// harnesses) should close explicitly. Idempotent.
func (s *Server) Close() error {
	s.fleet.Close()
	if st := s.state.Load(); st != nil {
		st.sharded.Close()
	}
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}
