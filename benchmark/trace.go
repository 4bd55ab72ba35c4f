package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark around a CLI
// command, a client request or a direct call into a layer. Times are
// nanoseconds since the tracer started. Request is the request's slot
// in its window, or -1 for a span that is not a request.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Request  int64  `json:"request"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is the untraced pass.
type tracer struct {
	t0       time.Time
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// do runs fn inside a span called name under parent (0 = root) and
// returns the span's id for fn's own children.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: -1, Workload: t.workload})
	at := len(t.spans) - 1
	id := int64(at + 1)
	t.spans[at].ID = id
	t.mu.Unlock()

	start := time.Now()
	err := fn(id)
	end := time.Now()

	t.mu.Lock()
	t.spans[at].Start, t.spans[at].End = t.since(start), t.since(end)
	t.mu.Unlock()
	return err
}

// add appends finished spans recorded elsewhere (the load workers keep
// their own buffers so the hot path takes no lock).
func (t *tracer) add(batch []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range batch {
		s.ID = int64(len(t.spans) + 1)
		s.Workload = t.workload
		t.spans = append(t.spans, s)
	}
}

// selfTimeMs sums, per span name, duration minus the part of it the
// span's children cover (overlapping children are counted once).
func selfTimeMs(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}
