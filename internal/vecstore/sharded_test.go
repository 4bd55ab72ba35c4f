package vecstore

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"v2v/internal/xrand"
)

// sameResults requires bit-identical IDs and scores.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestShardedExactParity pins the tentpole guarantee: a sharded Exact
// scatter-gather returns bit-identical IDs and scores to an unsharded
// Exact over the same rows — every metric, Search, SearchRow and
// SearchBatch, before and after deletes.
func TestShardedExactParity(t *testing.T) {
	const n, dim, k, shards = 600, 24, 12, 5
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		t.Run(metric.String(), func(t *testing.T) {
			s := randStore(n, dim, 42)
			flat := randStore(n, dim, 42) // identical rows, private store for the sharded side
			exact := NewExact(s, metric, 2)
			sh, err := OpenSharded(flat, Config{Metric: metric, Shards: shards, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if sh.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", sh.NumShards(), shards)
			}

			rng := xrand.New(7)
			queries := make([][]float32, 30)
			for qi := range queries {
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				queries[qi] = q
			}
			check := func(stage string) {
				t.Helper()
				for qi, q := range queries {
					sameResults(t, fmt.Sprintf("%s Search q%d", stage, qi),
						sh.Search(q, k), exact.Search(q, k))
				}
				for _, id := range []int{0, 1, n/2 + 1, n - 1} {
					if s.Deleted(id) {
						continue
					}
					sameResults(t, fmt.Sprintf("%s SearchRow %d", stage, id),
						sh.SearchRow(id, k), exact.SearchRow(id, k))
				}
				gotB := sh.SearchBatch(queries, k)
				wantB := exact.SearchBatch(queries, k)
				for qi := range queries {
					sameResults(t, fmt.Sprintf("%s SearchBatch q%d", stage, qi), gotB[qi], wantB[qi])
				}
				// k > live rows must degrade identically.
				sameResults(t, stage+" k>n", sh.Search(queries[0], n+50), exact.Search(queries[0], n+50))
			}
			check("clean")

			// Tombstone a third of the rows through both sides.
			for id := 0; id < n; id += 3 {
				if err := exact.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := sh.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if sh.Live() != s.Live() || sh.Dead() != s.Dead() {
				t.Fatalf("sharded live/dead = %d/%d, store %d/%d", sh.Live(), sh.Dead(), s.Live(), s.Dead())
			}
			check("tombstoned")
		})
	}
}

// TestOneShardParity pins the premise the serving tier stands on — an
// unsharded server is a one-shard coordinator: for every kind it
// returns the bare Open index's IDs and score bits from SearchRow (one
// row and a batch through SearchRows), Search, SearchBatch, Cosine and
// an exact scan, across an interleaved
// insert/delete sequence and at every k (past EfSearch, where HNSW
// sizes its beam from k, and past the row count). It also serves the
// base store itself, not a copy of it.
func TestOneShardParity(t *testing.T) {
	// Big and sparsely linked enough that an HNSW beam of k+1 and one
	// of k+2 find different rows: the one-shard SearchRow must be the
	// index's own, not the fan-out's k+1-then-strip.
	const n, dim = 3000, 16
	for _, cfg := range []Config{
		{Kind: KindExact, Workers: 2},
		{Kind: KindHNSW, M: 4, EfConstruction: 20, Seed: 5},
	} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			base := randStore(n, dim, 17)
			sh, err := OpenSharded(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sh.NumShards() != 1 || &sh.shards[0].store.Data()[0] != &base.Data()[0] {
				t.Fatalf("%d shards; the identity partition must adopt the base store, not copy it", sh.NumShards())
			}
			bare, err := OpenMutable(randStore(n, dim, 17), cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := bare.Store()

			rng := xrand.New(29)
			q := make([]float32, dim)
			for j := range q {
				q[j] = float32(rng.NormFloat64())
			}
			check := func(stage string) {
				t.Helper()
				live := s.LiveIDs()
				ids := []int{live[0], live[1], live[len(live)/4], live[len(live)/2], live[len(live)-2], live[len(live)-1]}
				qs := [][]float32{q, s.Row(ids[0]), s.Row(ids[1])}
				for _, k := range []int{1, 10, 200, s.Len()} {
					batch, err := sh.SearchRows(context.Background(), ids, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					for j, id := range ids {
						want := bare.SearchRow(id, k)
						sameResults(t, fmt.Sprintf("%s SearchRow(%d, %d)", stage, id, k), sh.SearchRow(id, k), want)
						sameResults(t, fmt.Sprintf("%s SearchRows[%d] (%d, %d)", stage, j, id, k), batch[j], want)
					}
					sameResults(t, fmt.Sprintf("%s Search k=%d", stage, k), sh.Search(q, k), bare.Search(q, k))
					got, want := sh.SearchBatch(qs, k), bare.SearchBatch(qs, k)
					for qi := range qs {
						sameResults(t, fmt.Sprintf("%s SearchBatch q%d k=%d", stage, qi, k), got[qi], want[qi])
					}
				}
				if got, want := sh.Cosine(ids[0], ids[5]), s.Cosine(ids[0], ids[5]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s Cosine = %v, bare store %v", stage, got, want)
				}
				if sh.Live() != s.Live() || sh.Dead() != s.Dead() {
					t.Fatalf("%s live/dead = %d/%d, bare store %d/%d", stage, sh.Live(), sh.Dead(), s.Live(), s.Dead())
				}
			}
			check("clean")

			v := make([]float32, dim)
			for step := 0; step < 150; step++ {
				if step%3 == 2 {
					live := s.LiveIDs()
					id := live[rng.Intn(len(live))]
					if err := bare.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := sh.Delete(id); err != nil {
						t.Fatal(err)
					}
				} else {
					for j := range v {
						v[j] = float32(rng.NormFloat64())
					}
					want, err := bare.Insert(v)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := sh.Insert(v); err != nil || got != want {
						t.Fatalf("step %d: Insert = %d, %v; bare index assigned %d", step, got, err, want)
					}
				}
				if step%50 == 49 {
					check(fmt.Sprintf("step %d", step))
				}
			}
		})
	}
}

// TestShardedInsertDelete: inserts assign sequential global IDs,
// route stably, and are immediately visible; deletes hide rows;
// accessors (Row, Cosine, Deleted) agree with an unsharded store fed
// the same operations.
func TestShardedInsertDelete(t *testing.T) {
	const dim = 8
	s := randStore(40, dim, 11)
	sh, err := OpenSharded(randStore(40, dim, 11), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(19)
	for i := 0; i < 60; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		id, err := sh.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.AppendRow(v); id != want {
			t.Fatalf("insert %d got global ID %d, want %d", i, id, want)
		}
	}
	if sh.Rows() != s.Len() || sh.Live() != s.Live() {
		t.Fatalf("rows/live = %d/%d, want %d/%d", sh.Rows(), sh.Live(), s.Len(), s.Live())
	}
	for id := 0; id < s.Len(); id++ {
		row := sh.Row(id)
		want := s.Row(id)
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("Row(%d)[%d] = %v, want %v", id, j, row[j], want[j])
			}
		}
	}
	if got, want := sh.Cosine(3, 57), s.Cosine(3, 57); got != want {
		t.Fatalf("Cosine = %v, want %v", got, want)
	}
	if err := sh.Delete(57); err != nil {
		t.Fatal(err)
	}
	if !sh.Deleted(57) || sh.Deleted(56) {
		t.Fatal("Deleted flags wrong after Delete")
	}
	if err := sh.Delete(57); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := sh.Delete(9999); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	for _, r := range sh.Search(s.Row(57), 10) {
		if r.ID == 57 {
			t.Fatal("deleted row still in results")
		}
	}
}

// TestShardedCompaction: a tombstone-threshold delete triggers a
// background rebuild of just that shard; global IDs survive, the
// reclaimed IDs report deleted, and queries stay exact.
func TestShardedCompaction(t *testing.T) {
	for _, shards := range []int{3, 1} { // 1: what an unsharded server runs
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testShardedCompaction(t, shards) })
	}
}

func testShardedCompaction(t *testing.T, shards int) {
	const n, dim = 300, 8
	src := randStore(n, dim, 23)
	sh, err := OpenSharded(randStore(n, dim, 23), Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	const frac = 0.25
	sh.SetCompactFraction(frac)
	deleted := make(map[int]bool)
	for id := 0; id < n; id += 2 {
		if err := sh.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id] = true
	}
	// Compactions are async: wait until every shard has swapped (or
	// give up and fail with the stats we saw). A rebuild that fires
	// mid-way through the delete loop leaves the later tombstones in
	// place until the threshold is crossed again, so a shard is done
	// when it is back under the threshold, not when it is empty of
	// tombstones.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, st := range sh.ShardStats() {
			if st.Compactions > 0 && float64(st.Deleted) < frac*float64(st.Rows) {
				done++
			}
		}
		if done == sh.NumShards() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never compacted: %+v", sh.ShardStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sh.Rows() != n || sh.Live() != n-len(deleted) {
		t.Fatalf("rows/live = %d/%d, want %d/%d", sh.Rows(), sh.Live(), n, n-len(deleted))
	}
	exact := NewExact(src, Cosine, 1)
	for id := range deleted {
		if !sh.Deleted(id) {
			t.Fatalf("compacted row %d not reported deleted", id)
		}
		if err := src.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Surviving rows kept their IDs and vectors.
	for id := 1; id < n; id += 2 {
		row, want := sh.Row(id), src.Row(id)
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("post-compaction Row(%d) changed", id)
			}
		}
	}
	q := src.Row(1)
	sameResults(t, "post-compaction Search", sh.Search(q, 15), exact.Search(q, 15))

	// Inserts keep working after the remap (locals were renumbered).
	id, err := sh.Insert(make([]float32, dim))
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("post-compaction insert got ID %d, want %d", id, n)
	}
}

// TestShardedCompactionStaleRebuild drives the compactor's
// abandon-if-stale path deterministically, on one goroutine: a write
// that lands while the rebuild is building must make the rebuild
// stale — swapping it in would silently drop the write — the loop must
// then pause in proportion to what the doomed attempt cost before it
// gathers again, and the retry, with writes quiet, must complete on
// its own and keep the late write.
func TestShardedCompactionStaleRebuild(t *testing.T) {
	const n, dim = 30, 4
	sh, err := OpenSharded(randStore(n, dim, 41), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Compaction stays off while the tombstones accumulate, so the test
	// owns the one run of the loop below.
	for id := 0; id < 8; id++ {
		if err := sh.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	sh.SetCompactFraction(0.2)

	late := []float32{9, 0, 0, 0}
	lateID := -1
	var buildCost time.Duration
	var pauses []time.Duration
	open := func(st *Store, cfg Config) (MutableIndex, error) {
		start := time.Now()
		if lateID < 0 {
			// The first rebuild is in flight — no lock is held while it
			// builds — and a write lands.
			if st.Len() != n-8 {
				t.Errorf("rebuild gathered %d rows, want the %d live ones", st.Len(), n-8)
			}
			id, err := sh.Insert(late)
			if err != nil {
				t.Fatal(err)
			}
			lateID = id
		}
		idx, err := OpenMutable(st, cfg)
		if len(pauses) == 0 {
			buildCost = time.Since(start)
		}
		return idx, err
	}
	pause := func(d time.Duration) {
		// Called between the stale attempt and the retry: nothing was
		// swapped in, and the late write is where it was.
		if st := sh.ShardStats()[0]; st.Compactions != 0 || st.Deleted != 8 || st.Live != n-8+1 {
			t.Errorf("stale rebuild was swapped in over a write that landed mid-build: %+v", st)
		}
		if sh.Deleted(lateID) || sh.Row(lateID)[0] != 9 {
			t.Errorf("mid-rebuild write lost when the rebuild was abandoned")
		}
		pauses = append(pauses, d)
	}
	if err := sh.compactLoop(0, open, pause); err != nil {
		t.Fatal(err)
	}

	if len(pauses) != 1 {
		t.Fatalf("compactor paused %d times, want once (one stale attempt, then a clean one)", len(pauses))
	}
	if pauses[0] < compactBackoff*buildCost {
		t.Fatalf("back-off %v after an attempt whose build alone took %v, want at least %d times that", pauses[0], buildCost, compactBackoff)
	}
	if st := sh.ShardStats()[0]; st.Compactions != 1 || st.Deleted != 0 || st.Rows != n-8+1 || st.Live != n-8+1 {
		t.Fatalf("post-compaction shard: %+v, want %d live rows, no tombstones, one compaction", st, n-8+1)
	}
	if sh.Dead() != 0 || sh.Live() != n-8+1 || sh.Rows() != n+1 {
		t.Fatalf("rows/live/dead = %d/%d/%d, want %d/%d/0", sh.Rows(), sh.Live(), sh.Dead(), n+1, n-8+1)
	}
	if res := sh.Search(late, 1); len(res) != 1 || res[0].ID != lateID {
		t.Fatalf("late write lost in the successful compaction: nearest to it is %+v, want row %d", res, lateID)
	}
	for id := 0; id < 8; id++ {
		if !sh.Deleted(id) {
			t.Fatalf("row %d resolvable after it was compacted away", id)
		}
	}
}

// TestShardedHNSWAndIVF: the coordinator hosts approximate per-shard
// indexes too — results are well-formed, exclude deletes, and inserts
// are visible (recall quality is pinned by TestHNSWRecallAtLeast95).
// The name predates the removal of the IVF kind; the hnsw leg is the
// one that remains.
func TestShardedHNSWAndIVF(t *testing.T) {
	const n, dim = 400, 16
	for _, cfg := range []Config{
		{Kind: KindHNSW, Shards: 4, M: 8, EfConstruction: 40, Seed: 5},
	} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			s := randStore(n, dim, 31)
			sh, err := OpenSharded(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := sh.Search(s.Row(10), 5)
			if len(res) != 5 {
				t.Fatalf("got %d results", len(res))
			}
			if res[0].ID != 10 {
				t.Fatalf("self row not top hit: %+v", res[0])
			}
			v := make([]float32, dim)
			copy(v, s.Row(10))
			id, err := sh.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range sh.Search(v, 4) {
				found = found || r.ID == id
			}
			if !found {
				t.Fatalf("inserted row %d invisible to %s search", id, cfg.Kind)
			}
			if err := sh.Delete(10); err != nil {
				t.Fatal(err)
			}
			for _, r := range sh.Search(v, 10) {
				if r.ID == 10 {
					t.Fatal("deleted row still returned")
				}
			}
		})
	}
}

// TestShardedConcurrent hammers the coordinator with concurrent
// inserts, deletes, queries and threshold compactions; run under
// -race via `make race`. Correctness here is "no race, no panic, no
// lost insert" — exactness is pinned by the parity tests.
func TestShardedConcurrent(t *testing.T) {
	const dim = 8
	sh, err := OpenSharded(randStore(64, dim, 77), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sh.SetCompactFraction(0.2)

	var wg, writers sync.WaitGroup
	stop := make(chan struct{})
	ids := make(chan int, 1024)

	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := xrand.New(seed)
			for i := 0; i < 150; i++ {
				v := make([]float32, dim)
				for j := range v {
					v[j] = float32(rng.NormFloat64())
				}
				id, err := sh.Insert(v)
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				select {
				case ids <- id:
				default:
				}
			}
		}(uint64(100 + w))
	}
	wg.Add(1)
	go func() { // deleter: eats some inserted IDs
		defer wg.Done()
		for id := range ids {
			if id%3 == 0 {
				if err := sh.Delete(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) { // readers
			defer wg.Done()
			rng := xrand.New(seed)
			q := make([]float32, dim)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				sh.Search(q, 5)
				sh.SearchBatch([][]float32{q, q}, 3)
				if id := int(rng.Intn(64)); !sh.Deleted(id) {
					// Row may legitimately race a delete+compaction of
					// this ID; only live rows are dereferenced, and a
					// lost race surfaces as the documented panic, which
					// the serving layer avoids by checking under its
					// own synchronisation. Here we query a stable ID
					// range instead: rows 1..63 can only be deleted by
					// the deleter goroutine, which never touches them
					// (it only sees inserted IDs >= 64).
					if id != 0 && id%3 != 0 {
						sh.SearchRow(id, 4)
					}
				}
			}
		}(uint64(200 + w))
	}

	// Wait for writers, then stop the deleter and readers.
	writers.Wait()
	close(ids)
	close(stop)
	wg.Wait()

	if sh.Rows() != 64+450 {
		t.Fatalf("Rows = %d, want %d", sh.Rows(), 64+450)
	}
	total := 0
	for _, st := range sh.ShardStats() {
		total += st.Live
	}
	if total != sh.Live() {
		t.Fatalf("shard stats live %d != Live() %d", total, sh.Live())
	}
}

// TestShardedSearchSpans: a traced SearchRows returns results
// bit-identical to the untraced SearchRow, one row or a batch, and the
// recorder sees exactly one shard_wait span per shard followed by one
// merge span, replayed sequentially after the fan-out joins.
func TestShardedSearchSpans(t *testing.T) {
	const n, dim, k, shards = 300, 16, 8, 4
	sh, err := OpenSharded(randStore(n, dim, 3), Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	type span struct {
		name string
		d    time.Duration
	}
	var spans []span
	rec := func(name string, d time.Duration) { spans = append(spans, span{name, d}) }

	checkSpans := func(what string) {
		t.Helper()
		if len(spans) != shards+1 {
			t.Fatalf("%s: recorded %d spans, want %d: %v", what, len(spans), shards+1, spans)
		}
		for sid := 0; sid < shards; sid++ {
			want := fmt.Sprintf("shard_wait/%d", sid)
			if spans[sid].name != want {
				t.Fatalf("%s: span %d = %q, want %q", what, sid, spans[sid].name, want)
			}
			if spans[sid].d < 0 {
				t.Fatalf("%s: negative duration for %s", what, want)
			}
		}
		if spans[shards].name != "merge" {
			t.Fatalf("%s: last span = %q, want merge", what, spans[shards].name)
		}
	}

	for _, ids := range [][]int{{7}, {7, 0, 151, 299, 7}} {
		spans = nil
		got, err := sh.SearchRows(context.Background(), ids, k, rec)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range ids {
			sameResults(t, fmt.Sprintf("SearchRows(%v)[%d]", ids, j), got[j], sh.SearchRow(id, k))
		}
		checkSpans(fmt.Sprintf("SearchRows(%v)", ids))
	}

	// A nil recorder must be accepted and record nothing (it is the
	// untraced hot path).
	spans = nil
	if got := sh.SearchRow(7, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if len(spans) != 0 {
		t.Fatal("nil recorder leaked spans")
	}
}
