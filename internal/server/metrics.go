// Telemetry for the serving stack: per-endpoint latency histograms
// and status-class error counters, per-stage timing fed by the
// request trace, the Prometheus text exposition at GET /metrics, and
// the slow-query log. The histogram and exposition machinery lives in
// internal/telemetry; this file binds it to the server's state.
//
// Every request runs under a telemetry.Trace carried in the request
// context (see instrument in server.go): handlers record the stages
// they pass through — parse, gen_acquire, cache_lookup, index_search,
// wal_append, wal_fsync, apply, encode, write — and the sharded
// scatter-gather adds per-shard detail ("shard_wait/<sid>",
// "merge/topk") through a vecstore.SpanRecorder. Top-level spans
// decompose the request's wall time, so the slow-query log can report
// how much of a slow request the stages explain; detail spans overlap
// a top-level stage and only feed the stage histograms and the log
// line. See docs/OBSERVABILITY.md.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"v2v/internal/telemetry"
	"v2v/internal/vecstore"
)

// stageNames fixes the set of per-stage histograms (the keys of
// v2v_stage_seconds). Trace span names aggregate onto these via
// telemetry.Stage; a span whose stage is not listed here still shows
// in the slow-query log but feeds no histogram.
var stageNames = []string{
	"parse", "queue_wait", "gen_acquire", "cache_lookup", "index_search",
	"shard_wait", "merge", "wal_append", "wal_fsync", "apply",
	"encode", "write",
}

// statusWriter captures the status code a handler writes so
// instrument can split errors into 4xx and 5xx classes even when the
// handler wrote the response itself.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// status returns the written status code (200 when the handler never
// wrote one explicitly; a handler that wrote nothing at all also
// reports 200, matching net/http's behavior on the wire).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// spanSince records a span covering start..now on tr (nil-safe) and
// returns now, so consecutive stages chain:
//
//	t = spanSince(tr, "parse", t)
//	t = spanSince(tr, "gen_acquire", t)
func spanSince(tr *telemetry.Trace, name string, start time.Time) time.Time {
	now := time.Now()
	tr.Add(name, now.Sub(start))
	return now
}

// traceRecorder adapts a request trace to the sharded scatter-gather
// span callback. The per-shard waits keep their "shard_wait/<sid>"
// detail names; the merge is recorded as "merge/topk" — also a detail
// span, because both run inside the handler's "index_search" wall
// time and must not double into the trace's top-level sum. A nil
// trace returns a nil recorder, which disables fan-out timing
// entirely.
func traceRecorder(tr *telemetry.Trace) vecstore.SpanRecorder {
	if tr == nil {
		return nil
	}
	return func(name string, d time.Duration) {
		if name == "merge" {
			name = "merge/topk"
		}
		tr.Add(name, d)
	}
}

// observeSpans feeds a finished request's spans into the per-stage
// histograms.
func (s *Server) observeSpans(tr *telemetry.Trace) {
	for _, sp := range tr.Spans() {
		if h := s.stages[telemetry.Stage(sp.Name)]; h != nil {
			h.Observe(sp.Dur)
		}
	}
}

// logSlow emits one structured slow-query line: the endpoint, status,
// total latency, how much of it the top-level spans explain, and the
// full span breakdown (detail spans included).
func (s *Server) logSlow(endpoint string, status int, total time.Duration, tr *telemetry.Trace) {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3f", sp.Name, sp.Ms)
	}
	s.logger.Printf("server: slow query endpoint=%s status=%d total_ms=%.3f spans_ms=%.3f spans=[%s]",
		endpoint, status, float64(total)/float64(time.Millisecond), tr.SpanSumMs(), b.String())
}

// slowThreshold returns the slow-query threshold as a duration, 0
// when the log is disabled.
func (s *Server) slowThreshold() time.Duration {
	if s.cfg.SlowLogMs <= 0 {
		return 0
	}
	return time.Duration(s.cfg.SlowLogMs * float64(time.Millisecond))
}

// handleMetrics answers GET /metrics with the Prometheus text
// exposition (format 0.0.4): request/error counters and latency
// histograms per endpoint, per-stage histograms, model/cache/write
// gauges, per-shard occupancy, the WAL series, and a build-info
// gauge. The page is rendered into a buffer under the generation
// reader lock (the gauges must be one consistent cut) and written to
// the client after it drops.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	st, unlock := s.readState()
	defer unlock()

	var buf bytes.Buffer
	ew := telemetry.NewExpoWriter(&buf)

	ew.GaugeFamily("v2v_build_info", "Build metadata; the value is always 1.", telemetry.Sample{
		Labels: fmt.Sprintf("version=%q,go_version=%q", s.build.Version, s.build.GoVersion),
		Value:  1,
	})

	reqs := make([]telemetry.Sample, 0, len(endpointNames))
	errs := make([]telemetry.Sample, 0, 2*len(endpointNames))
	var lat []telemetry.HistSeries
	for _, name := range endpointNames {
		c := s.counters[name]
		label := "endpoint=" + strconv.Quote(name)
		reqs = append(reqs, telemetry.Sample{Labels: label, Value: float64(c.requests.Load())})
		errs = append(errs,
			telemetry.Sample{Labels: label + `,class="4xx"`, Value: float64(c.errors4xx.Load())},
			telemetry.Sample{Labels: label + `,class="5xx"`, Value: float64(c.errors5xx.Load())})
		if snap := c.latency.Snapshot(); snap.Count > 0 {
			lat = append(lat, telemetry.HistSeries{Labels: label, Snap: snap})
		}
	}
	ew.CounterFamily("v2v_requests_total", "Requests received, per endpoint.", reqs...)
	ew.CounterFamily("v2v_request_errors_total", "Requests answered with an error status, per endpoint and status class.", errs...)
	if len(lat) > 0 {
		ew.HistogramFamily("v2v_request_seconds", "Request latency, per endpoint.", lat...)
	}

	var stages []telemetry.HistSeries
	for _, name := range stageNames {
		if snap := s.stages[name].Snapshot(); snap.Count > 0 {
			stages = append(stages, telemetry.HistSeries{Labels: "stage=" + strconv.Quote(name), Snap: snap})
		}
	}
	if len(stages) > 0 {
		ew.HistogramFamily("v2v_stage_seconds", "Per-stage request time (from the request traces).", stages...)
	}

	// Admission: per-class inflight/queue gauges and shed/expired
	// counters. Every class is always reported (zeros included) so
	// dashboards can alert on "shed > 0" without waiting for the first
	// overload to create the series.
	var inflight, queued, shed, expired, limits, qlimits []telemetry.Sample
	for _, class := range admissionClasses {
		cs := s.classes[class]
		label := "class=" + strconv.Quote(class)
		inflight = append(inflight, telemetry.Sample{Labels: label, Value: float64(cs.inflight.Load())})
		var q int
		var shedN uint64
		limit := -1.0
		qlimit := 0.0
		if cs.adm != nil {
			_, q = cs.adm.snapshot()
			shedN = cs.adm.shed.Load()
			limit = float64(cs.limit.Concurrency)
			qlimit = float64(cs.limit.Queue)
		}
		queued = append(queued, telemetry.Sample{Labels: label, Value: float64(q)})
		shed = append(shed, telemetry.Sample{Labels: label, Value: float64(shedN)})
		expired = append(expired, telemetry.Sample{Labels: label, Value: float64(cs.expired.Load())})
		limits = append(limits, telemetry.Sample{Labels: label, Value: limit})
		qlimits = append(qlimits, telemetry.Sample{Labels: label, Value: qlimit})
	}
	ew.GaugeFamily("v2v_requests_inflight", "Requests currently executing, per endpoint class.", inflight...)
	ew.GaugeFamily("v2v_admission_queued", "Requests parked in the admission wait queue, per class.", queued...)
	ew.GaugeFamily("v2v_admission_limit", "Concurrency budget per class (-1 = unbounded).", limits...)
	ew.GaugeFamily("v2v_admission_queue_limit", "Wait-queue capacity per class.", qlimits...)
	ew.CounterFamily("v2v_admission_shed_total", "Requests shed with 429 (budget and queue full), per class.", shed...)
	ew.CounterFamily("v2v_deadline_expired_total", "Requests answered 503 because their deadline expired, per class.", expired...)

	ew.GaugeFamily("v2v_uptime_seconds", "Seconds since the server started.",
		telemetry.Sample{Value: time.Since(s.started).Seconds()})
	ew.GaugeFamily("v2v_generation", "Current model generation (1 = initial load).",
		telemetry.Sample{Value: float64(st.gen)})
	ew.GaugeFamily("v2v_write_epoch", "Accepted writes in the current generation.",
		telemetry.Sample{Value: float64(st.epoch.Load())})
	ew.GaugeFamily("v2v_model_vectors", "Live vectors in the served model.",
		telemetry.Sample{Value: float64(st.backend.Live())})
	ew.GaugeFamily("v2v_model_dim", "Dimensionality of the served model.",
		telemetry.Sample{Value: float64(st.backend.Dim())})
	ew.GaugeFamily("v2v_tombstones", "Tombstoned rows awaiting compaction.",
		telemetry.Sample{Value: float64(st.backend.Dead())})
	ew.CounterFamily("v2v_reloads_total", "Completed model reloads.",
		telemetry.Sample{Value: float64(s.reloads.Load())})
	ew.CounterFamily("v2v_upserts_total", "Accepted upserts.",
		telemetry.Sample{Value: float64(s.upserts.Load())})
	ew.CounterFamily("v2v_deletes_total", "Accepted deletes.",
		telemetry.Sample{Value: float64(s.deletes.Load())})

	var compactions uint64
	var rows, live, dead, epochs, shardCkr []telemetry.Sample
	for sid, ss := range st.backend.ShardStats() {
		label := `shard="` + strconv.Itoa(sid) + `"`
		rows = append(rows, telemetry.Sample{Labels: label, Value: float64(ss.Rows)})
		live = append(live, telemetry.Sample{Labels: label, Value: float64(ss.Live)})
		dead = append(dead, telemetry.Sample{Labels: label, Value: float64(ss.Deleted)})
		epochs = append(epochs, telemetry.Sample{Labels: label, Value: float64(ss.Epoch)})
		shardCkr = append(shardCkr, telemetry.Sample{Labels: label, Value: float64(ss.Compactions)})
		compactions += ss.Compactions
	}
	ew.GaugeFamily("v2v_shard_rows", "Rows held per shard (live + tombstoned).", rows...)
	ew.GaugeFamily("v2v_shard_live", "Live rows per shard.", live...)
	ew.GaugeFamily("v2v_shard_tombstones", "Tombstoned rows per shard.", dead...)
	ew.GaugeFamily("v2v_shard_epoch", "Compaction epoch per shard.", epochs...)
	ew.CounterFamily("v2v_shard_compactions_total", "Completed compactions per shard.", shardCkr...)
	// Router mode: per-backend membership, so dashboards can alert on a
	// shard dropping out before clients see 503s/partials. In-process
	// shards report none.
	if health := st.backend.Health(); len(health) > 0 {
		var up, probeFails []telemetry.Sample
		for _, bh := range health {
			label := `shard="` + strconv.Itoa(bh.Shard) + `",addr=` + strconv.Quote(bh.Addr)
			v := 0.0
			if bh.Healthy {
				v = 1
			}
			up = append(up, telemetry.Sample{Labels: label, Value: v})
			probeFails = append(probeFails, telemetry.Sample{Labels: label, Value: float64(bh.ProbeFailures)})
		}
		ew.GaugeFamily("v2v_backend_up", "1 when the shard backend passed its last health probe.", up...)
		ew.GaugeFamily("v2v_backend_probe_failures", "Consecutive failed health probes per shard backend.", probeFails...)
	}
	ew.CounterFamily("v2v_compactions_total", "Completed compactions (the sum over shards).",
		telemetry.Sample{Value: float64(compactions)})

	ew.GaugeFamily("v2v_cache_entries", "Entries in the response cache.",
		telemetry.Sample{Value: float64(s.cache.len())})
	ew.GaugeFamily("v2v_cache_capacity", "Response cache capacity (0 = caching disabled).",
		telemetry.Sample{Value: float64(s.cache.capacity())})
	ew.CounterFamily("v2v_cache_hits_total", "Response cache hits.",
		telemetry.Sample{Value: float64(s.cache.hitCount())})
	ew.CounterFamily("v2v_cache_misses_total", "Response cache misses.",
		telemetry.Sample{Value: float64(s.cache.missCount())})

	ws := s.walStats()
	enabled := 0.0
	if ws.Enabled {
		enabled = 1
	}
	ew.GaugeFamily("v2v_wal_enabled", "1 when the write-ahead log is configured.",
		telemetry.Sample{Value: enabled})
	if ws.Enabled {
		ew.GaugeFamily("v2v_wal_last_lsn", "LSN of the newest appended frame.",
			telemetry.Sample{Value: float64(ws.LastLSN)})
		ew.CounterFamily("v2v_wal_appended_bytes_total", "Bytes appended to the log.",
			telemetry.Sample{Value: float64(ws.AppendedBytes)})
		ew.CounterFamily("v2v_wal_fsyncs_total", "Fsyncs issued by the log.",
			telemetry.Sample{Value: float64(ws.Fsyncs)})
		ew.CounterFamily("v2v_wal_checkpoints_total", "Checkpoints written.",
			telemetry.Sample{Value: float64(ws.Checkpoints)})
		ew.GaugeFamily("v2v_wal_checkpoint_lsn", "LSN the newest checkpoint folds in.",
			telemetry.Sample{Value: float64(ws.CheckpointLSN)})
		ew.GaugeFamily("v2v_wal_replayed_records", "Records replayed at startup.",
			telemetry.Sample{Value: float64(ws.ReplayedRecords)})
	}

	if err := ew.Err(); err != nil {
		return err
	}
	unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
	return nil
}
