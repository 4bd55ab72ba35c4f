// Admission control: the server-side half of overload handling (the
// measurement half — histograms, /metrics, the slow-query log — landed
// first; see metrics.go). Without admission, offered load past the
// latency knee queues unboundedly inside net/http and the kernel
// accept queue: every request eventually answers, seconds late, and
// the system collapses rather than degrades. With it, each endpoint
// class owns a bounded concurrency budget plus a small bounded FIFO
// wait queue; a request that finds both full is shed immediately with
// 429 Too Many Requests and a Retry-After hint, so the requests the
// server does admit keep their low-load latency.
//
// Classes, not endpoints, are the admission unit:
//
//   - read:  the query endpoints (neighbors, similarity, analogy,
//     predict, vocab, and their batch variants)
//   - write: upsert/delete (+ batch) — a separate budget, so a read
//     storm can never starve writes of slots (and vice versa)
//   - admin: reload — heavy, rare, and serialised anyway (swapMu),
//     so a tiny budget keeps a reload storm from piling up
//   - /healthz, /stats, /metrics and /debug/pprof are exempt:
//     observability must survive exactly the overload it exists to
//     explain
//
// Deadlines ride the same per-class configuration: with a deadline
// set, the request context expires after DeadlineMs and the handler
// answers 503 at the next stage boundary (queue wait, index search,
// sharded fan-out, WAL fsync wait), incrementing the per-class
// expired counter. See docs/SERVING.md ("Overload and backpressure").
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Class names the admission unit an endpoint belongs to.
const (
	classRead   = "read"
	classWrite  = "write"
	classAdmin  = "admin"
	classSystem = "system" // exempt from admission; inflight still tracked
)

// admissionClasses fixes the reporting order of per-class series in
// /stats and /metrics.
var admissionClasses = []string{classRead, classWrite, classAdmin, classSystem}

// endpointClass maps an instrumented endpoint name to its admission
// class.
func endpointClass(name string) string {
	switch name {
	case "healthz", "stats", "metrics":
		return classSystem
	case "reload":
		return classAdmin
	case "upsert", "upsert_batch", "delete", "delete_batch",
		"shard_insert", "shard_delete":
		return classWrite
	default:
		return classRead
	}
}

// ClassLimit bounds one admission class.
type ClassLimit struct {
	// Concurrency is the number of requests of this class allowed to
	// execute at once. 0 picks the class default; negative disables
	// admission for the class entirely (unbounded, the pre-admission
	// behavior).
	Concurrency int

	// Queue is the bounded FIFO wait queue behind the concurrency
	// budget: a request that finds every slot busy parks here until a
	// slot frees or its deadline expires. 0 picks 2x Concurrency;
	// negative means no queue (shed immediately at the budget).
	Queue int

	// DeadlineMs is the per-request deadline for this class in
	// milliseconds: the request context expires after this long
	// (queue wait included) and the handler answers 503 at the next
	// stage boundary. 0 disables the deadline.
	DeadlineMs float64
}

// AdmissionConfig configures the per-class admission layer
// (Config.Admission). The zero value enables admission with the
// class defaults below — bounded degradation is the default posture,
// not an opt-in.
type AdmissionConfig struct {
	// Disabled turns the whole admission layer off (every class
	// unbounded, no deadlines). Equivalent to setting every class's
	// Concurrency negative.
	Disabled bool

	// Read, Write and Admin bound their classes. Defaults
	// (Concurrency 0): read max(64, 16*GOMAXPROCS), write
	// max(16, 4*GOMAXPROCS), admin 2; Queue 0 = 2x the concurrency
	// (admin: 4).
	Read  ClassLimit
	Write ClassLimit
	Admin ClassLimit

	// RetryAfterSeconds is the Retry-After hint on 429 responses
	// (0 = 1 second).
	RetryAfterSeconds int
}

// Class defaults. The read budget is deliberately generous: admission
// exists to cut off the unbounded tail, not to throttle a healthy
// server — the knee should come from the hardware, read off the
// benchmark's client percentiles, and the budget tuned down from there.
func defaultClassLimit(class string) ClassLimit {
	procs := runtime.GOMAXPROCS(0)
	switch class {
	case classRead:
		c := 16 * procs
		if c < 64 {
			c = 64
		}
		return ClassLimit{Concurrency: c, Queue: 2 * c}
	case classWrite:
		c := 4 * procs
		if c < 16 {
			c = 16
		}
		return ClassLimit{Concurrency: c, Queue: 2 * c}
	case classAdmin:
		return ClassLimit{Concurrency: 2, Queue: 4}
	}
	return ClassLimit{Concurrency: -1}
}

// resolve fills a ClassLimit's zero values with the class defaults.
func resolveClassLimit(class string, cl ClassLimit) ClassLimit {
	def := defaultClassLimit(class)
	if cl.Concurrency == 0 {
		cl.Concurrency = def.Concurrency
	}
	if cl.Queue == 0 {
		if cl.Concurrency > 0 {
			cl.Queue = 2 * cl.Concurrency
			if class == classAdmin {
				cl.Queue = def.Queue
			}
		}
	} else if cl.Queue < 0 {
		cl.Queue = 0
	}
	return cl
}

// classLimit returns the configured (resolved) limit for a class.
func (s *Server) classLimit(class string) ClassLimit {
	var cl ClassLimit
	switch class {
	case classRead:
		cl = s.cfg.Admission.Read
	case classWrite:
		cl = s.cfg.Admission.Write
	case classAdmin:
		cl = s.cfg.Admission.Admin
	default:
		return ClassLimit{Concurrency: -1}
	}
	if s.cfg.Admission.Disabled {
		cl.Concurrency = -1
	}
	return resolveClassLimit(class, cl)
}

// retryAfterSeconds returns the Retry-After hint for shed responses.
func (s *Server) retryAfterSeconds() int {
	if s.cfg.Admission.RetryAfterSeconds > 0 {
		return s.cfg.Admission.RetryAfterSeconds
	}
	return 1
}

// Shed and deadline errors carry their status through the handler
// error path; instrument adds the Retry-After header and counts them.
var (
	errShed = &httpError{code: http.StatusTooManyRequests,
		msg: "server overloaded: concurrency budget and wait queue are full; retry with backoff"}
	errDeadlineExpired = &httpError{code: http.StatusServiceUnavailable,
		msg: "deadline exceeded before the request completed"}
)

// ctxExpired converts an expired request context into the 503
// deadline error; nil while the deadline still has budget. Handlers
// call it at stage boundaries so an exhausted request aborts before
// starting the next expensive stage.
func ctxExpired(ctx context.Context) error {
	if ctx.Err() != nil {
		return errDeadlineExpired
	}
	return nil
}

// admitWaiter is one parked request in an admitter's wait queue.
type admitWaiter struct {
	// ready is closed when the waiter is granted a slot (granted is
	// set first, under the admitter's mutex).
	ready   chan struct{}
	granted bool
}

// admitter is one class's bounded admission semaphore: up to limit
// requests run concurrently, up to maxQueue more park in arrival
// order, and the rest are shed. It is the deterministic test seam for
// the overload suite — tests drive tryAdmit/release directly to fill
// the budget with parked requests and assert shedding, FIFO drain and
// class isolation without any timing sleeps.
type admitter struct {
	class    string
	limit    int
	maxQueue int

	mu       sync.Mutex
	inflight int
	queue    []*admitWaiter // FIFO: append at tail, grant from head

	// Counters for /stats and /metrics. queueWait is observed by the
	// caller into the queue_wait stage histogram (the admitter itself
	// stays clock-free so tests are deterministic).
	admitted atomic.Uint64 // granted a slot (immediately or after queueing)
	shed     atomic.Uint64 // rejected: budget and queue both full
	expired  atomic.Uint64 // gave up waiting: context done while queued
}

// newAdmitter builds an admitter from a resolved class limit; a
// disabled class (negative concurrency) returns nil, and callers
// treat a nil admitter as "always admit".
func newAdmitter(class string, cl ClassLimit) *admitter {
	if cl.Concurrency < 0 {
		return nil
	}
	return &admitter{class: class, limit: cl.Concurrency, maxQueue: cl.Queue}
}

// tryAdmit is the synchronous admission decision: it either grants a
// slot now (nil waiter, nil error), parks the caller in the FIFO
// queue (non-nil waiter), or sheds (errShed). It never blocks — the
// blocking half is wait — so tests can drive admission order
// deterministically.
func (a *admitter) tryAdmit() (*admitWaiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight < a.limit {
		a.inflight++
		a.admitted.Add(1)
		return nil, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.shed.Add(1)
		return nil, errShed
	}
	w := &admitWaiter{ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	return w, nil
}

// wait blocks until w is granted a slot or ctx is done. On expiry the
// waiter is removed from the queue; if the grant raced the expiry,
// the already-granted slot is released (handed to the next waiter)
// so it cannot leak.
func (a *admitter) wait(ctx context.Context, w *admitWaiter) error {
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	if w.granted {
		// Granted between ctx.Done and the lock: the slot is ours and
		// must be passed on, not abandoned.
		a.mu.Unlock()
		a.release()
		a.expired.Add(1)
		return errDeadlineExpired
	}
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
	a.expired.Add(1)
	return errDeadlineExpired
}

// acquire admits the caller (possibly after queueing) or fails with
// errShed / errDeadlineExpired. A nil admitter admits everything.
func (a *admitter) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	w, err := a.tryAdmit()
	if err != nil || w == nil {
		return err
	}
	return a.wait(ctx, w)
}

// release returns a slot: the queue head (if any) is granted in FIFO
// order — the slot transfers, so inflight is unchanged — otherwise
// the budget shrinks by one.
func (a *admitter) release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		w.granted = true
		close(w.ready)
		a.admitted.Add(1)
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// snapshot reads the admitter's instantaneous occupancy.
func (a *admitter) snapshot() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.queue)
}

// classState is the per-class telemetry the server keeps regardless
// of whether the class's admitter is enabled.
type classState struct {
	adm      *admitter // nil = admission disabled for the class
	limit    ClassLimit
	deadline time.Duration // resolved from limit.DeadlineMs; 0 = none
	inflight atomic.Int64  // requests currently executing (admitted or exempt)
	expired  atomic.Uint64 // 503 deadline responses (queue-wait expiries included)
}

// initAdmission builds the per-class admission state from the
// configuration. Called once from newFromModel, before the mux.
func (s *Server) initAdmission() {
	s.classes = make(map[string]*classState, len(admissionClasses))
	for _, class := range admissionClasses {
		cl := s.classLimit(class)
		cs := &classState{adm: newAdmitter(class, cl), limit: cl}
		if cl.DeadlineMs > 0 && !s.cfg.Admission.Disabled && class != classSystem {
			cs.deadline = time.Duration(cl.DeadlineMs * float64(time.Millisecond))
		}
		s.classes[class] = cs
	}
}

// AdmissionClassStats is one class's /stats block.
type AdmissionClassStats struct {
	Concurrency int     `json:"concurrency"` // -1 = unbounded (admission off)
	Queue       int     `json:"queue"`
	DeadlineMs  float64 `json:"deadline_ms,omitempty"`
	Inflight    int64   `json:"inflight"`
	Queued      int     `json:"queued"`
	Admitted    uint64  `json:"admitted"`
	Shed        uint64  `json:"shed"`
	Expired     uint64  `json:"expired"`
}

// admissionStats snapshots every class for /stats.
func (s *Server) admissionStats() map[string]AdmissionClassStats {
	out := make(map[string]AdmissionClassStats, len(s.classes))
	for class, cs := range s.classes {
		st := AdmissionClassStats{
			Concurrency: cs.limit.Concurrency,
			Queue:       cs.limit.Queue,
			DeadlineMs:  cs.limit.DeadlineMs,
			Inflight:    cs.inflight.Load(),
			Expired:     cs.expired.Load(),
		}
		if cs.adm != nil {
			_, st.Queued = cs.adm.snapshot()
			st.Admitted = cs.adm.admitted.Load()
			st.Shed = cs.adm.shed.Load()
		} else {
			st.Concurrency = -1
			st.Queue = 0
		}
		out[class] = st
	}
	return out
}
