// Deterministic overload tests. The admitter's split API —
// synchronous tryAdmit (the admit/queue/shed decision) vs blocking
// wait — is the test seam: tests fill a class's concurrency budget
// and wait queue with parked requests by calling tryAdmit directly,
// then assert shedding, FIFO drain, class isolation and
// observability exemption against the real HTTP surface, with no
// timing sleeps anywhere.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// fillClass consumes every concurrency slot and queue slot of a
// class's admitter synchronously, returning a drain function that
// releases everything it took.
func fillClass(t *testing.T, a *admitter) (drain func()) {
	t.Helper()
	// Each tryAdmit either takes a slot outright or parks a waiter;
	// the waiter is granted (slot transfer) as drain releases, so the
	// total number of releases is admits + parks.
	slots := 0
	for {
		if _, err := a.tryAdmit(); err != nil {
			break // budget and queue both full
		}
		slots++
	}
	return func() {
		for i := 0; i < slots; i++ {
			a.release()
		}
	}
}

func TestAdmitterShedsAtCapacity(t *testing.T) {
	a := newAdmitter(classRead, ClassLimit{Concurrency: 2, Queue: 1})
	// First two admitted outright.
	for i := 0; i < 2; i++ {
		w, err := a.tryAdmit()
		if err != nil || w != nil {
			t.Fatalf("admit %d: waiter=%v err=%v, want immediate admit", i, w, err)
		}
	}
	// Third parks in the queue.
	w, err := a.tryAdmit()
	if err != nil || w == nil {
		t.Fatalf("third request: waiter=%v err=%v, want queued", w, err)
	}
	// Fourth is shed.
	if _, err := a.tryAdmit(); err != errShed {
		t.Fatalf("fourth request: err=%v, want errShed", err)
	}
	if got := a.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	inflight, queued := a.snapshot()
	if inflight != 2 || queued != 1 {
		t.Fatalf("snapshot = (%d inflight, %d queued), want (2, 1)", inflight, queued)
	}
	// A release grants the parked waiter (slot transfer: inflight
	// unchanged) before shrinking the budget.
	a.release()
	select {
	case <-w.ready:
	default:
		t.Fatal("release did not grant the queued waiter")
	}
	if err := a.wait(context.Background(), w); err != nil {
		t.Fatalf("granted waiter's wait: %v", err)
	}
	inflight, queued = a.snapshot()
	if inflight != 2 || queued != 0 {
		t.Fatalf("after grant: (%d inflight, %d queued), want (2, 0)", inflight, queued)
	}
}

func TestAdmitterQueueDrainsFIFO(t *testing.T) {
	a := newAdmitter(classRead, ClassLimit{Concurrency: 1, Queue: 3})
	if w, err := a.tryAdmit(); err != nil || w != nil {
		t.Fatalf("first admit: waiter=%v err=%v", w, err)
	}
	var ws []*admitWaiter
	for i := 0; i < 3; i++ {
		w, err := a.tryAdmit()
		if err != nil || w == nil {
			t.Fatalf("enqueue %d: waiter=%v err=%v", i, w, err)
		}
		ws = append(ws, w)
	}
	granted := func(w *admitWaiter) bool {
		select {
		case <-w.ready:
			return true
		default:
			return false
		}
	}
	// Three releases grant the three waiters strictly in arrival
	// order, one per release.
	for i := 0; i < 3; i++ {
		a.release()
		for j, w := range ws {
			want := j <= i
			if granted(w) != want {
				t.Fatalf("after release %d: waiter %d granted=%v, want %v", i, j, granted(w), want)
			}
		}
	}
}

func TestAdmitterWaitExpiresInQueue(t *testing.T) {
	a := newAdmitter(classRead, ClassLimit{Concurrency: 1, Queue: 2})
	a.tryAdmit() // take the only slot
	w, err := a.tryAdmit()
	if err != nil || w == nil {
		t.Fatalf("enqueue: waiter=%v err=%v", w, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.wait(ctx, w); err != errDeadlineExpired {
		t.Fatalf("wait on expired ctx: %v, want errDeadlineExpired", err)
	}
	if got := a.expired.Load(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if _, queued := a.snapshot(); queued != 0 {
		t.Fatalf("expired waiter still queued (%d)", queued)
	}
	// The queue is whole again: a new request parks and is granted
	// normally.
	w2, err := a.tryAdmit()
	if err != nil || w2 == nil {
		t.Fatalf("re-enqueue after expiry: waiter=%v err=%v", w2, err)
	}
	a.release()
	if err := a.wait(context.Background(), w2); err != nil {
		t.Fatalf("wait after grant: %v", err)
	}
}

// TestAdmitterGrantExpiryRaceLeaksNoSlot drives the race where a
// waiter is granted a slot at the same moment its context expires.
// Whichever branch wait takes (the select order is not deterministic,
// and both outcomes are legal), the invariant is that no slot leaks:
// after the caller honors the contract (release on success), the
// admitter is back to empty and a fresh request is admitted
// immediately.
func TestAdmitterGrantExpiryRaceLeaksNoSlot(t *testing.T) {
	for i := 0; i < 100; i++ {
		a := newAdmitter(classRead, ClassLimit{Concurrency: 1, Queue: 1})
		a.tryAdmit()
		w, err := a.tryAdmit()
		if err != nil || w == nil {
			t.Fatalf("enqueue: waiter=%v err=%v", w, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a.release() // grants w — racing the already-expired ctx
		if err := a.wait(ctx, w); err == nil {
			a.release() // admitted: caller must release
		}
		inflight, queued := a.snapshot()
		if inflight != 0 || queued != 0 {
			t.Fatalf("iteration %d: slot leaked: (%d inflight, %d queued)", i, inflight, queued)
		}
		if w2, err := a.tryAdmit(); err != nil || w2 != nil {
			t.Fatalf("iteration %d: fresh admit after race: waiter=%v err=%v", i, w2, err)
		}
	}
}

// TestOverloadShedsWith429 fills the read class through the test seam
// and asserts the real HTTP surface sheds the next read with 429 +
// Retry-After while the shed counter and /stats block record it.
func TestOverloadShedsWith429(t *testing.T) {
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{
			Read:              ClassLimit{Concurrency: 2, Queue: 1},
			RetryAfterSeconds: 7,
		},
	}
	s, hs := newTestServer(t, cfg, 50, 8)
	drain := fillClass(t, s.classes[classRead].adm)

	resp, err := http.Get(hs.URL + "/v1/neighbors?vertex=v1&k=3")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q", got, "7")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if !strings.Contains(body["error"], "overloaded") {
		t.Fatalf("429 body = %v, want an overload explanation", body)
	}

	// The shed shows up in /stats (admission block and the endpoint's
	// 4xx class) — and /stats itself must answer during the overload.
	var st StatsResponse
	if code := getJSON(t, hs.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats during overload: %d", code)
	}
	// Two sheds: fillClass's terminating probe plus the HTTP request.
	if st.Admission[classRead].Shed != 2 {
		t.Fatalf("stats admission.read.shed = %d, want 2", st.Admission[classRead].Shed)
	}
	if st.Admission[classRead].Concurrency != 2 || st.Admission[classRead].Queue != 1 {
		t.Fatalf("stats admission.read limits = %+v, want concurrency 2 queue 1", st.Admission[classRead])
	}

	// Draining the filled slots restores service with no residue.
	drain()
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusOK {
		t.Fatalf("after drain: %d, want 200", code)
	}
}

// TestWriteClassNeverStarvedByReads pins class isolation: a read
// class at hard capacity (every slot and queue position full) must
// not affect write admission, and vice versa.
func TestWriteClassNeverStarvedByReads(t *testing.T) {
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{
			Read:  ClassLimit{Concurrency: 1, Queue: -1},
			Write: ClassLimit{Concurrency: 1, Queue: -1},
		},
	}
	s, hs := newTestServer(t, cfg, 50, 8)
	drainRead := fillClass(t, s.classes[classRead].adm)

	// Reads shed...
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusTooManyRequests {
		t.Fatalf("read during read overload: %d, want 429", code)
	}
	// ...writes sail through.
	upsert := UpsertRequest{Vertex: "w0", Vector: make([]float32, 8)}
	code := postJSON(t, hs.URL+"/v1/upsert", upsert, nil)
	if code != http.StatusOK {
		t.Fatalf("write during read overload: %d, want 200", code)
	}

	// Now the other direction.
	drainRead()
	drainWrite := fillClass(t, s.classes[classWrite].adm)
	defer drainWrite()
	if code := postJSON(t, hs.URL+"/v1/upsert", upsert, nil); code != http.StatusTooManyRequests {
		t.Fatalf("write during write overload: %d, want 429", code)
	}
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusOK {
		t.Fatalf("read during write overload: %d, want 200", code)
	}
}

// TestObservabilityExemptFromAdmission: /healthz, /stats and /metrics
// must answer exactly when the serving classes are saturated —
// observability has to survive the overload it exists to explain.
func TestObservabilityExemptFromAdmission(t *testing.T) {
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{
			Read:  ClassLimit{Concurrency: 1, Queue: -1},
			Write: ClassLimit{Concurrency: 1, Queue: -1},
			Admin: ClassLimit{Concurrency: 1, Queue: -1},
		},
	}
	s, hs := newTestServer(t, cfg, 50, 8)
	for _, class := range []string{classRead, classWrite, classAdmin} {
		drain := fillClass(t, s.classes[class].adm)
		defer drain()
	}
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s during total overload: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during total overload: %d, want 200", path, resp.StatusCode)
		}
	}
	// And the serving endpoints really are saturated.
	if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusTooManyRequests {
		t.Fatalf("read during total overload: %d, want 429", code)
	}
}

// TestAdmissionDisabled: Disabled turns every class unbounded — no
// admitters exist, requests flow, and /stats reports -1 budgets.
func TestAdmissionDisabled(t *testing.T) {
	cfg := Config{
		CacheSize: -1,
		Admission: AdmissionConfig{
			Disabled: true,
			Read:     ClassLimit{Concurrency: 1, Queue: -1},
		},
	}
	s, hs := newTestServer(t, cfg, 50, 8)
	if s.classes[classRead].adm != nil {
		t.Fatal("read admitter exists despite Disabled")
	}
	for i := 0; i < 5; i++ {
		if code := getJSON(t, hs.URL+"/v1/neighbors?vertex=v1&k=3", nil); code != http.StatusOK {
			t.Fatalf("request %d with admission disabled: %d", i, code)
		}
	}
	var st StatsResponse
	getJSON(t, hs.URL+"/stats", &st)
	if st.Admission[classRead].Concurrency != -1 {
		t.Fatalf("disabled read class reports concurrency %d, want -1", st.Admission[classRead].Concurrency)
	}
}

// TestClassLimitResolution pins the default table and the zero/
// negative conventions of ClassLimit.
func TestClassLimitResolution(t *testing.T) {
	cases := []struct {
		class    string
		in       ClassLimit
		wantConc func(int) bool // predicate over resolved concurrency
		wantQ    func(ClassLimit) int
	}{
		{classRead, ClassLimit{}, func(c int) bool { return c >= 64 }, func(cl ClassLimit) int { return 2 * cl.Concurrency }},
		{classWrite, ClassLimit{}, func(c int) bool { return c >= 16 }, func(cl ClassLimit) int { return 2 * cl.Concurrency }},
		{classAdmin, ClassLimit{}, func(c int) bool { return c == 2 }, func(ClassLimit) int { return 4 }},
		{classRead, ClassLimit{Concurrency: 10}, func(c int) bool { return c == 10 }, func(ClassLimit) int { return 20 }},
		{classRead, ClassLimit{Concurrency: 10, Queue: 3}, func(c int) bool { return c == 10 }, func(ClassLimit) int { return 3 }},
		{classRead, ClassLimit{Concurrency: 10, Queue: -1}, func(c int) bool { return c == 10 }, func(ClassLimit) int { return 0 }},
	}
	for i, tc := range cases {
		got := resolveClassLimit(tc.class, tc.in)
		if !tc.wantConc(got.Concurrency) {
			t.Errorf("case %d (%s %+v): resolved concurrency %d fails predicate", i, tc.class, tc.in, got.Concurrency)
		}
		if want := tc.wantQ(got); got.Queue != want {
			t.Errorf("case %d (%s %+v): resolved queue %d, want %d", i, tc.class, tc.in, got.Queue, want)
		}
	}
	// Negative concurrency disables the class entirely.
	if a := newAdmitter(classRead, resolveClassLimit(classRead, ClassLimit{Concurrency: -1})); a != nil {
		t.Fatal("negative concurrency built an admitter")
	}
}

// TestEndpointClassMapping pins every endpoint to its admission
// class; a new endpoint landing in the wrong class is an overload
// bug waiting to happen.
func TestEndpointClassMapping(t *testing.T) {
	want := map[string]string{
		"neighbors": classRead, "neighbors_batch": classRead,
		"similarity": classRead, "similarity_batch": classRead,
		"analogy": classRead, "predict": classRead,
		"predict_batch": classRead, "vocab": classRead,
		"upsert": classWrite, "upsert_batch": classWrite,
		"delete": classWrite, "delete_batch": classWrite,
		"reload":  classAdmin,
		"healthz": classSystem, "stats": classSystem, "metrics": classSystem,
		// The shard fan-out API: reads admit as reads (a router-side
		// deadline must be honored under shard overload too), writes as
		// writes.
		"shard_search": classRead, "shard_scan": classRead,
		"shard_rows":   classRead,
		"shard_insert": classWrite, "shard_delete": classWrite,
	}
	for _, name := range endpointNames {
		if got := endpointClass(name); got != want[name] {
			t.Errorf("endpointClass(%q) = %q, want %q", name, got, want[name])
		}
	}
}
