// Package telemetry is the dependency-free metrics core of the
// serving stack: atomic counters and gauges, a lock-cheap
// log-linear-bucketed latency histogram whose fixed bucket layout
// makes merging across workers and shards a bucket-wise addition, a
// per-request trace that records named stage spans, a Prometheus
// text-format exposition writer, and a small exposition parser the CI
// smoke tests use to validate what the server serves on /metrics.
//
// The package deliberately has no registry singleton and no
// background goroutines: an owner (internal/server) holds its own
// metric values and composes an exposition page from them at scrape
// time. See docs/OBSERVABILITY.md for the metric name reference and
// the histogram's error bound.
package telemetry

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (can go up and down).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Build describes the running binary: committed bench rows and served
// stats must be self-describing about what produced them (in this
// repo's containers notably the 1-CPU GOMAXPROCS caveat).
type Build struct {
	// Module is the main module path ("v2v").
	Module string `json:"module,omitempty"`
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the scheduler's P count at collection time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
}

// BuildInfo collects the running binary's build/runtime metadata via
// runtime/debug.ReadBuildInfo (which is absent only in non-module
// builds; the runtime fields are always filled).
func BuildInfo() Build {
	b := Build{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Module = bi.Main.Path
		b.Version = bi.Main.Version
	}
	return b
}
