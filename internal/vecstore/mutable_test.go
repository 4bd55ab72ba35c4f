package vecstore

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"v2v/internal/xrand"
)

// openKind builds one index of each kind over s with small, fast
// parameters.
func openKind(t *testing.T, s *Store, kind Kind) MutableIndex {
	t.Helper()
	cfg := Config{Kind: kind, Seed: 1}
	if kind == KindHNSW {
		cfg.M = 8
		cfg.EfConstruction = 60
	}
	idx, err := OpenMutable(s, cfg)
	if err != nil {
		t.Fatalf("OpenMutable(%v): %v", kind, err)
	}
	return idx
}

func TestStoreAppendGrowsAligned(t *testing.T) {
	s := New(2, 5)
	s.SetRow(0, []float32{1, 2, 3, 4, 5})
	s.SqNorms() // materialise the cache so appends must maintain it
	rng := xrand.New(9)
	for i := 0; i < 200; i++ {
		v := make([]float32, 5)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		id := s.AppendRow(v)
		if id != 2+i {
			t.Fatalf("AppendRow returned id %d, want %d", id, 2+i)
		}
		if !rowAligned(s.Row(0)) {
			t.Fatalf("store base misaligned after %d appends", i+1)
		}
	}
	if s.Len() != 202 {
		t.Fatalf("Len = %d", s.Len())
	}
	// The incrementally-maintained norms must equal a fresh computation.
	got := s.SqNorms()
	for i := 0; i < s.Len(); i++ {
		if want := sqNorm(s.Row(i)); got[i] != want {
			t.Fatalf("row %d cached sqnorm %v, recomputed %v", i, got[i], want)
		}
	}
	// Bulk append: two rows at once.
	first := s.Append([]float32{1, 0, 0, 0, 0, 0, 2, 0, 0, 0})
	if first != 202 || s.Len() != 204 {
		t.Fatalf("bulk append: first %d len %d", first, s.Len())
	}
	if s.SqNorms()[203] != 4 {
		t.Fatalf("bulk append norm: %v", s.SqNorms()[203])
	}
}

func TestStoreDeleteTombstones(t *testing.T) {
	s := randStore(10, 4, 3)
	if s.Live() != 10 || s.Dead() != 0 || s.DeadFraction() != 0 {
		t.Fatal("fresh store reports tombstones")
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := s.Delete(10); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if !s.Deleted(3) || s.Deleted(4) || s.Live() != 9 || s.Dead() != 1 {
		t.Fatalf("tombstone state: live %d dead %d", s.Live(), s.Dead())
	}
	ids := s.LiveIDs()
	if len(ids) != 9 {
		t.Fatalf("LiveIDs: %v", ids)
	}
	for _, id := range ids {
		if id == 3 {
			t.Fatal("LiveIDs includes the tombstoned row")
		}
	}
	// Appends after a delete keep the tombstone bookkeeping in step.
	s.AppendRow(make([]float32, 4))
	if s.Deleted(10) || s.Live() != 10 {
		t.Fatalf("append after delete: live %d", s.Live())
	}
	// Gather drops tombstones (a compacted store starts clean).
	g := s.Gather(s.LiveIDs())
	if g.Len() != 10 || g.Dead() != 0 {
		t.Fatalf("gathered store: len %d dead %d", g.Len(), g.Dead())
	}
}

// TestMutableInsertDelete drives every index kind through the full
// write cycle: inserts become immediately searchable, deletes vanish
// from results, and the error paths are descriptive.
func TestMutableInsertDelete(t *testing.T) {
	for _, kind := range []Kind{KindExact, KindHNSW} {
		t.Run(kind.String(), func(t *testing.T) {
			s := clusteredStore(400, 16, 10, 5)
			idx := openKind(t, s, kind)

			// Insert a distinctive vector and search for it: it must be
			// the top hit for its own direction.
			probe := make([]float32, 16)
			probe[0] = 42 // far outside the anchor cloud's scale
			id, err := idx.Insert(probe)
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if id != 400 {
				t.Fatalf("Insert returned id %d, want 400", id)
			}
			res := idx.Search(probe, 1)
			if len(res) != 1 || res[0].ID != id {
				t.Fatalf("inserted row not found: %+v", res)
			}
			// SearchRow excludes the row itself.
			for _, r := range idx.SearchRow(id, 5) {
				if r.ID == id {
					t.Fatal("SearchRow returned the query row")
				}
			}

			// Delete it: gone from results (searching its own vector).
			if err := idx.Delete(id); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			for _, r := range idx.Search(probe, 10) {
				if r.ID == id {
					t.Fatal("deleted row still in results")
				}
			}
			// Batch queries filter tombstones too.
			for _, rs := range idx.SearchBatch([][]float32{probe, probe}, 10) {
				for _, r := range rs {
					if r.ID == id {
						t.Fatal("deleted row in batch results")
					}
				}
			}

			// Error paths.
			if _, err := idx.Insert(make([]float32, 3)); err == nil {
				t.Fatal("dim-mismatched insert accepted")
			}
			if err := idx.Delete(id); err == nil {
				t.Fatal("double delete accepted")
			}
			if err := idx.Delete(-1); err == nil {
				t.Fatal("negative delete accepted")
			}
		})
	}
}

// TestExactTombstoneParity checks that an exact search over a
// tombstoned store equals a brute-force scan over the live rows only.
func TestExactTombstoneParity(t *testing.T) {
	s := randStore(500, 12, 11)
	e := NewExact(s, Cosine, 0)
	rng := xrand.New(13)
	for i := 0; i < 120; i++ {
		id := rng.Intn(500)
		if !s.Deleted(id) {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := s.Row(7) // may itself be deleted; fine as a query vector
	got := e.Search(q, 20)
	// Reference: gather live rows into a fresh store and search there.
	live := s.LiveIDs()
	ref := NewExact(s.Gather(live), Cosine, 1).Search(q, 20)
	if len(got) != len(ref) {
		t.Fatalf("%d results vs %d reference", len(got), len(ref))
	}
	for i := range got {
		if got[i].ID != live[ref[i].ID] || got[i].Score != ref[i].Score {
			t.Fatalf("rank %d: got (%d, %v), want (%d, %v)",
				i, got[i].ID, got[i].Score, live[ref[i].ID], ref[i].Score)
		}
	}
}

// recallAt10 measures recall of idx against exact ground truth over
// nq sampled stored rows.
func recallAt10(t *testing.T, truthIdx, idx Index, s *Store, nq int, seed uint64) float64 {
	t.Helper()
	rng := xrand.New(seed)
	hits, total := 0, 0
	for q := 0; q < nq; q++ {
		row := s.Row(rng.Intn(s.Len()))
		truth := truthIdx.Search(row, 10)
		got := idx.Search(row, 10)
		in := make(map[int]bool, len(got))
		for _, r := range got {
			in[r.ID] = true
		}
		for _, r := range truth {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(total)
}

// TestIncrementalHNSWRecallParity is the incremental-insert quality
// gate: a graph built half by batch insertion and half by incremental
// Insert must reach recall@10 within 0.02 of the all-batch build over
// the same clustered store.
func TestIncrementalHNSWRecallParity(t *testing.T) {
	n, dim := 4000, 32
	if testing.Short() {
		n = 1200
	}
	full := clusteredStore(n, dim, 60, 7)
	exact := NewExact(full, Cosine, 1)
	cfg := HNSWConfig{M: 8, EfConstruction: 80, EfSearch: 64, Seed: 3}

	batch, err := NewHNSW(full, Cosine, cfg)
	if err != nil {
		t.Fatal(err)
	}

	half := n / 2
	prefixIDs := make([]int, half)
	for i := range prefixIDs {
		prefixIDs[i] = i
	}
	grown := full.Gather(prefixIDs)
	incr, err := NewHNSW(grown, Cosine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < n; i++ {
		if _, err := incr.Insert(full.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if grown.Len() != n {
		t.Fatalf("incremental store holds %d rows, want %d", grown.Len(), n)
	}

	rBatch := recallAt10(t, exact, batch, full, 150, 17)
	rIncr := recallAt10(t, exact, incr, full, 150, 17)
	t.Logf("recall@10: batch %.4f, incremental %.4f", rBatch, rIncr)
	if diff := math.Abs(rBatch - rIncr); diff > 0.02 {
		t.Fatalf("incremental recall %.4f diverges from batch %.4f by %.4f (> 0.02)", rIncr, rBatch, diff)
	}
	if rIncr < 0.9 {
		t.Fatalf("incremental recall %.4f is implausibly low", rIncr)
	}
}

// TestStaleIndexDetected is the mutation-safety satellite: an
// in-place SetRow (or a bypassing append) after an HNSW graph was
// built must fail loudly at the next query, not return silently
// wrong neighbors.
func TestStaleIndexDetected(t *testing.T) {
	mustPanic := func(t *testing.T, substr string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("stale query did not panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
				t.Fatalf("panic %q does not mention %q", msg, substr)
			}
		}()
		fn()
	}
	t.Run("hnsw/setrow", func(t *testing.T) {
		s := clusteredStore(300, 8, 5, 2)
		idx := openKind(t, s, KindHNSW)
		s.SetRow(5, make([]float32, 8))
		mustPanic(t, "SetRow", func() { idx.Search(s.Row(0), 3) })
	})
	t.Run("hnsw/bypass-append", func(t *testing.T) {
		s := clusteredStore(300, 8, 5, 2)
		idx := openKind(t, s, KindHNSW)
		s.AppendRow(make([]float32, 8))
		mustPanic(t, "without MutableIndex.Insert", func() { idx.Search(s.Row(0), 3) })
	})
	// Exact tolerates SetRow (the scan reads current data and SetRow
	// maintains the norm cache): no panic, fresh results.
	s := clusteredStore(300, 8, 5, 2)
	e := NewExact(s, Cosine, 1)
	v := make([]float32, 8)
	v[0] = 100
	s.SetRow(5, v)
	res := e.Search(v, 1)
	if len(res) != 1 || res[0].ID != 5 {
		t.Fatalf("exact after SetRow: %+v", res)
	}
}

// TestConcurrentMutationAndQuery hammers every index kind with
// concurrent inserts, deletes and queries — the -race acceptance test
// for the MutableIndex locking contract.
func TestConcurrentMutationAndQuery(t *testing.T) {
	for _, kind := range []Kind{KindExact, KindHNSW} {
		t.Run(kind.String(), func(t *testing.T) {
			const base = 300
			s := clusteredStore(base, 8, 6, 9)
			idx := openKind(t, s, kind)
			// Copy the query vectors up front: Store.Row aliases store
			// memory, and reading it outside the index lock would race
			// the growth reallocation in Insert.
			queries := make([][]float32, base)
			for i := range queries {
				queries[i] = append([]float32(nil), s.Row(i)...)
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Writer: interleaved inserts and deletes of its own rows.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := xrand.New(77)
				var mine []int
				for i := 0; i < 200; i++ {
					v := make([]float32, 8)
					for j := range v {
						v[j] = float32(rng.NormFloat64())
					}
					id, err := idx.Insert(v)
					if err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					mine = append(mine, id)
					if i%3 == 2 {
						pick := mine[0]
						mine = mine[1:]
						if err := idx.Delete(pick); err != nil {
							t.Errorf("Delete(%d): %v", pick, err)
							return
						}
					}
				}
				close(stop)
			}()
			// Readers: single, row and batch queries over the stable
			// prefix while the store grows and shrinks underneath.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := xrand.New(uint64(r) + 1)
					for {
						select {
						case <-stop:
							return
						default:
						}
						row := rng.Intn(base)
						switch r % 3 {
						case 0:
							idx.Search(queries[row], 5)
						case 1:
							idx.SearchRow(row, 5)
						default:
							idx.SearchBatch([][]float32{queries[row], queries[(row+1)%base]}, 5)
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestHNSWTombstones pins what a tombstone costs an HNSW query: only
// the nodes it routes through, never a result slot. Per metric, on a
// seeded clustered store whose rows die in a fixed random order:
// (a) with nine rows in ten dead, a k = 50 query returns min(k, live)
// results, all of them live; (b) at 0.5%, 2%, 10% and 25% dead,
// recall@10 against the exact answer over the live rows is within 0.01
// of the tombstone-free index's; (c) at 2% dead the beam considers at
// most 5% more candidates per query than it did with none.
func TestHNSWTombstones(t *testing.T) {
	const n, dim, nq, k = 2000, 32, 200, 50
	for _, metric := range []Metric{Cosine, Dot, Euclidean} {
		s := clusteredStore(n, dim, 40, 227)
		h, err := NewHNSW(s, metric, HNSWConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		exact := NewExact(s, metric, 1)
		rng := xrand.New(229)
		qs := make([][]float32, nq)
		for i := range qs {
			qs[i] = s.Row(rng.Intn(n))
		}
		sc := h.newScratch()
		// measure returns the candidates the beam considered per query
		// and recall@10 over the live rows.
		measure := func() (float64, float64) {
			sc.evals = 0
			recall := beamRecall(h, exact, qs, sc)
			return float64(sc.evals) / nq, recall
		}
		order := rng.Perm(n)
		dead := 0
		kill := func(upTo int) {
			for ; dead < upTo; dead++ {
				if err := h.Delete(order[dead]); err != nil {
					t.Fatal(err)
				}
			}
		}

		evals0, recall0 := measure()
		t.Logf("%v: no tombstones: %.1f evals/query, recall@10 %.4f", metric, evals0, recall0)
		for _, per1000 := range []int{5, 20, 100, 250} {
			kill(n * per1000 / 1000)
			evals, recall := measure()
			t.Logf("%v: %d dead: %.1f evals/query, recall@10 %.4f", metric, dead, evals, recall)
			if recall < recall0-0.01 {
				t.Errorf("%v, %d of %d rows dead: recall@10 %.4f, want at least %.4f (tombstone-free %.4f less 0.01)",
					metric, dead, n, recall, recall0-0.01, recall0)
			}
			if per1000 == 20 && evals > 1.05*evals0 {
				t.Errorf("%v, %d of %d rows dead: %.1f evals per query, want at most 1.05 x the tombstone-free %.1f",
					metric, dead, n, evals, evals0)
			}
		}

		kill(n * 9 / 10)
		want := min(k, n-dead)
		for i, q := range qs {
			res := h.Search(q, k)
			if len(res) != want {
				t.Fatalf("%v, %d of %d rows dead, query %d: %d results, want %d", metric, dead, n, i, len(res), want)
			}
			for _, r := range res {
				if s.Deleted(r.ID) {
					t.Fatalf("%v, %d of %d rows dead, query %d: dead row %d returned", metric, dead, n, i, r.ID)
				}
			}
		}
	}
}
