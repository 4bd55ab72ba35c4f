package server

// The coordinator's fan-out rule over fake shards: a table of faults —
// a slow shard, a failed one, one that holds until the caller gives
// up — with no HTTP and no timing to race, against the in-process
// coordinator's answers. deadline_test.go parks a server's index
// search on the same fake.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"v2v/internal/vecstore"
)

// fakeShard is a shard's search seam (vecstore.ShardSearcher) with
// scripted faults. It answers as a shard process would — its slice of
// the rows, searched by vector at k+1 for a search by row, in global
// IDs — after delay, unless it fails with err or holds until the
// search's context ends; answered, when set, then hears its shard ID.
// With entered set it is a slow index instead: it parks the caller,
// signals entered, and once release is closed answers in full,
// whatever became of the deadline.
type fakeShard struct {
	sid     int
	rows    *vecstore.Sharded // the shard's slice, one shard wide
	globals []int             // slice row -> global ID

	delay    time.Duration
	err      error
	hold     bool
	answered chan int
	entered  chan struct{}
	release  chan struct{}
}

// cut gives f shard sid's slice of an n-way partition of store, as
// snapshot.SliceShard gives a shard process its slice of a bundle.
func (f *fakeShard) cut(t *testing.T, store *vecstore.Store, sid, n int) {
	t.Helper()
	f.sid, f.globals = sid, nil
	for id := 0; id < store.Len(); id++ {
		if vecstore.ShardOf(id, n) == sid {
			f.globals = append(f.globals, id)
		}
	}
	rows, err := vecstore.OpenSharded(store.Gather(f.globals), vecstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.rows = rows
}

func (f *fakeShard) answer(ids []int, qs [][]float32, k int) [][]vecstore.Result {
	if ids != nil {
		k++
	}
	lists := f.rows.SearchBatch(qs, k)
	for _, list := range lists {
		for i := range list {
			list[i].ID = f.globals[list[i].ID]
		}
	}
	return lists
}

func (f *fakeShard) Search(ctx context.Context, ids []int, qs [][]float32, k int, reply chan<- vecstore.ShardReply) {
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.release
		reply <- vecstore.ShardReply{Shard: f.sid, Lists: f.answer(ids, qs, k)}
		return
	}
	go func() {
		time.Sleep(f.delay)
		switch {
		case f.hold:
			<-ctx.Done()
			reply <- vecstore.ShardReply{Shard: f.sid, Err: ctx.Err()}
		case f.err != nil:
			reply <- vecstore.ShardReply{Shard: f.sid, Err: f.err}
		default:
			reply <- vecstore.ShardReply{Shard: f.sid, Lists: f.answer(ids, qs, k)}
		}
		if f.answered != nil {
			f.answered <- f.sid
		}
	}()
}

// TestShardedFanOutFaults: a shard whose seam fails is skipped only
// under AllowPartial, and never when it owns a query row; the answer
// then covers the shards that answered, and says how many did. The end
// of the context is ctx.Err() at once, with spans only for shards that
// had answered. Faults that are not failures — a slow shard — change
// nothing: every complete answer is the in-process coordinator's, bit
// for bit.
func TestShardedFanOutFaults(t *testing.T) {
	const n, dim, shards, k = 150, 8, 3, 6
	m, _ := testModel(n, dim, 42)
	store := m.Store()
	ref, err := vecstore.OpenSharded(store, vecstore.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// Every query row lives on shard 0: shards 1 and 2 own none.
	var ids []int
	for id := 0; len(ids) < 4; id++ {
		if vecstore.ShardOf(id, shards) == 0 {
			ids = append(ids, id)
		}
	}
	want, err := ref.SearchRows(context.Background(), ids, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	// without1 is the answer over shards 0 and 2 alone: the exact
	// ranking with shard 1's rows left out.
	without1 := make([][]vecstore.Result, len(ids))
	for j, id := range ids {
		for _, r := range ref.SearchRow(id, n) {
			if vecstore.ShardOf(r.ID, shards) != 1 && len(without1[j]) < k {
				without1[j] = append(without1[j], r)
			}
		}
	}
	failed := errors.New("shard failed")

	for _, tc := range []struct {
		name     string
		partial  bool
		fault    func(fs []*fakeShard) // scripts the fleet
		expire   bool                  // cancel once every unheld shard answered
		want     [][]vecstore.Result
		answered int
		err      error
		spans    []int // shards with a shard_wait span, where that is known
	}{
		{name: "complete", want: want, answered: 3, spans: []int{0, 1, 2}},
		{name: "slow shard", fault: func(fs []*fakeShard) { fs[2].delay = 20 * time.Millisecond },
			want: want, answered: 3, spans: []int{0, 1, 2}},
		{name: "owner fails, strict", fault: func(fs []*fakeShard) { fs[0].err = failed },
			err: failed},
		{name: "owner fails, partial", partial: true, fault: func(fs []*fakeShard) { fs[0].err = failed },
			err: failed},
		{name: "non-owner fails, strict", fault: func(fs []*fakeShard) { fs[1].err = failed },
			err: failed},
		{name: "non-owner fails, partial", partial: true, fault: func(fs []*fakeShard) { fs[1].err = failed },
			want: without1, answered: 2, spans: []int{0, 2}},
		{name: "expiry, every shard held", partial: true, expire: true,
			fault: func(fs []*fakeShard) { fs[0].hold, fs[1].hold, fs[2].hold = true, true, true },
			err:   context.Canceled},
		{name: "expiry, non-owners held", partial: true, expire: true,
			fault: func(fs []*fakeShard) { fs[1].hold, fs[2].hold = true, true },
			err:   context.Canceled, spans: []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fakes := make([]*fakeShard, shards)
			seams := make([]vecstore.ShardSearcher, shards)
			for sid := range fakes {
				fakes[sid] = &fakeShard{answered: make(chan int, 1)}
				fakes[sid].cut(t, store, sid, shards)
				seams[sid] = fakes[sid]
			}
			if tc.fault != nil {
				tc.fault(fakes)
			}
			sh, err := vecstore.OpenRemote(store, seams, tc.partial)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.expire {
				go func() {
					for _, f := range fakes {
						if !f.hold {
							<-f.answered
						}
					}
					cancel()
				}()
			}
			var spans []string
			rec := func(name string, d time.Duration) { spans = append(spans, name) }
			got, answered, err := sh.SearchRowsPartial(ctx, ids, k, rec)
			if !errors.Is(err, tc.err) {
				t.Fatalf("error %v, want %v", err, tc.err)
			}
			if answered != tc.answered || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%d shards answered %v, want %d answering %v", answered, got, tc.answered, tc.want)
			}
			// Which shards answer before another's failure is a race;
			// an answer or an expiry leaves no doubt.
			if err != nil && !tc.expire {
				return
			}
			var wantSpans []string
			for _, sid := range tc.spans {
				wantSpans = append(wantSpans, fmt.Sprintf("shard_wait/%d", sid))
			}
			if err == nil {
				wantSpans = append(wantSpans, "merge")
			}
			if !slices.Equal(spans, wantSpans) {
				t.Fatalf("spans %v, want %v", spans, wantSpans)
			}
		})
	}
}
