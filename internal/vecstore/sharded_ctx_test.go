package vecstore

import (
	"context"
	"errors"
	"testing"
	"time"
)

// shard0Rows finds count query rows that live in shard 0; the tests
// stall shard 1 by holding its lock, which resolving a query row on
// shard 1 would wait for too.
func shard0Rows(t *testing.T, n, shards, count int) []int {
	t.Helper()
	var ids []int
	for id := 0; id < n && len(ids) < count; id++ {
		if shardOf(id, shards) == 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) < count {
		t.Fatalf("%d rows routed to shard 0 among %d, want %d", len(ids), n, count)
	}
	return ids
}

// TestSearchRowsAbortsOnExpiry pins the deadline-propagation contract
// of the sharded fan-out, for one row and for a batch: with one shard
// deterministically stalled (its writer lock held by the test), an
// expired context makes SearchRows return ctx.Err() immediately
// instead of joining, the stalled shard's search finishes later in the
// background without leaking any lock, and the coordinator keeps
// answering afterwards. No timing sleeps: the stall is a held lock,
// and the cancel is issued from the test's own goroutine.
func TestSearchRowsAbortsOnExpiry(t *testing.T) {
	const n, dim, k, shards = 200, 8, 5, 2
	sh, err := OpenSharded(randStore(n, dim, 11), Config{Shards: shards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := shard0Rows(t, n, shards, 4)
	for _, ids := range [][]int{rows[:1], rows} {
		// Baseline: an un-cancelled context answers what SearchRow does.
		got, err := sh.SearchRows(context.Background(), ids, k, nil)
		if err != nil {
			t.Fatalf("SearchRows(%v) with live ctx: %v", ids, err)
		}
		for j, id := range ids {
			sameResults(t, "live ctx", got[j], sh.SearchRow(id, k))
		}

		// Stall shard 1: its read-locking search closure cannot start
		// while the test holds the writer lock.
		sh.shards[1].mu.Lock()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := sh.SearchRows(ctx, ids, k, nil)
			done <- err
		}()
		// The call cannot complete while shard 1 is held; cancelling must
		// wake it. (If the abort path were broken this would deadlock, not
		// flake — the test would time out.)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("SearchRows(%v): aborted fan-out returned %v, want context.Canceled", ids, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("SearchRows(%v) did not return after cancel while a shard was stalled", ids)
		}

		// Release the stalled shard: the abandoned search drains in the
		// background, nothing is left locked, and the coordinator answers
		// the same queries correctly again.
		sh.shards[1].mu.Unlock()
		again, err := sh.SearchRows(context.Background(), ids, k, nil)
		if err != nil {
			t.Fatalf("SearchRows(%v) after abort: %v", ids, err)
		}
		for j := range ids {
			sameResults(t, "after abort", again[j], got[j])
		}
	}

	// Writes still work too — no shard lock leaked in read mode.
	if _, err := sh.Insert(make([]float32, dim)); err != nil {
		t.Fatalf("Insert after aborted fan-out: %v", err)
	}
}

// TestSearchRowsRecordsSpans checks the recorder contract: a completed
// ctx-aware search replays one span per shard and a merge span, and an
// aborted one replays none (the recorder may be backed by pooled
// per-request state that is reused immediately).
func TestSearchRowsRecordsSpans(t *testing.T) {
	const n, dim, k, shards = 120, 8, 4, 2
	sh, err := OpenSharded(randStore(n, dim, 13), Config{Shards: shards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := shard0Rows(t, n, shards, 1)[0]

	spans := map[string]int{}
	rec := func(name string, d time.Duration) { spans[name]++ }
	if _, err := sh.SearchRows(context.Background(), []int{q}, k, rec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard_wait/0", "shard_wait/1", "merge"} {
		if spans[want] != 1 {
			t.Errorf("span %q recorded %d times, want 1 (got %v)", want, spans[want], spans)
		}
	}

	sh.shards[1].mu.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := map[string]int{}
	_, err = sh.SearchRows(ctx, []int{q}, k, func(name string, d time.Duration) { aborted[name]++ })
	sh.shards[1].mu.Unlock()
	if err == nil {
		t.Fatal("expected an error from the pre-cancelled context")
	}
	if len(aborted) != 0 {
		t.Errorf("aborted fan-out replayed spans %v, want none", aborted)
	}
}
