package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opRead opKind = iota
	opUpsert
	opDelete
)

// op is one request the generator sends: a GET when body is nil, a
// JSON POST otherwise.
type op struct {
	kind  opKind
	url   string
	body  []byte
	token string // the vertex read or written
}

// source hands worker w its next operation. Workers call it
// concurrently; state shared between workers is the source's to guard.
type source interface {
	next(w int) op
}

// sample is one finished request of the measured window.
type sample struct {
	kind opKind
	ok   bool
	ms   float64       // latency to the last byte of the answer
	late float64       // open loop: how long after its due time the request was sent, ms
	end  time.Duration // completion, as an offset into the window
}

type loadConfig struct {
	base     string
	clients  int
	duration time.Duration
	slices   int
	// rate, when positive, makes the loop open: request i is due at
	// start + i/rate whatever the server does. Zero is the closed loop.
	rate float64
	src  source
	// check, when set, is handed every 200 answer and returns an error
	// for one that is wrong; it is called from the worker goroutines.
	check func(o op, body []byte) error
	// tr, when set, records one span per request under parent.
	tr     *tracer
	parent int64
}

type loadResult struct {
	samples    []sample
	offered    int // open loop: requests that fell due inside the window
	attempted  int
	failed     int
	firstError string
	sliceQPS   []float64 // successful requests per second, slice by slice
	sliceHost  []float64 // the host reference's rate around each slice, where it was read
}

// runLoad drives cfg.src against the server for cfg.duration. Any
// answer other than 200, any transport error and any answer cfg.check
// rejects is a failure. A request still in flight when the window
// closes belongs to no slice and is not counted.
//
// Closed loop (cfg.rate == 0): each of the clients sends its next
// request when the previous one has been answered, so the result is
// the capacity and latency seen by that many callers who wait for
// their reply.
//
// Open loop (cfg.rate > 0): the clients share one schedule and each
// takes the next slot when it is free. A client that finds its slot
// already due — the server kept it waiting — sends at once and the
// latency runs from the due time, so a stall is charged to every
// request it delayed. A client that is early sleeps until the slot and
// the latency runs from the send: what the timer overshoots is the
// generator's lateness, reported apart in sample.late.
func runLoad(cfg loadConfig) *loadResult {
	var (
		wg      sync.WaitGroup
		perW    = make([][]sample, cfg.clients)
		perSpan = make([][]span, cfg.clients)
		errOnce sync.Once
		firstEr string
		slot    atomic.Int64
	)
	start := time.Now()
	end := start.Add(cfg.duration)
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &conn{addr: strings.TrimPrefix(cfg.base, "http://")}
			defer client.close()
			var buf bytes.Buffer
			for n := int64(0); ; n++ {
				var due time.Time
				waited := false
				if cfg.rate > 0 {
					due = start.Add(time.Duration(float64(slot.Add(1)-1) / cfg.rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						waited = true
					}
				}
				// The clock is read before the draw: a source may count an
				// operation as sent once it has handed it out.
				if !time.Now().Before(end) {
					return
				}
				o := cfg.src.next(w)
				sent := time.Now()
				from := sent
				if cfg.rate > 0 && !waited {
					from = due
				}
				status, err := client.send(o, &buf)
				done := time.Now()
				if err == nil && status != 200 {
					err = fmt.Errorf("%s: status %d: %s", o.url, status, bytes.TrimSpace(buf.Bytes()))
				}
				if err == nil && cfg.check != nil {
					err = cfg.check(o, buf.Bytes())
				}
				if err != nil {
					errOnce.Do(func() { firstEr = err.Error() })
				}
				smp := sample{kind: o.kind, ok: err == nil, ms: float64(done.Sub(from)) / 1e6, end: done.Sub(start)}
				if cfg.rate > 0 {
					smp.late = float64(sent.Sub(due)) / 1e6
				}
				perW[w] = append(perW[w], smp)
				if cfg.tr != nil {
					perSpan[w] = append(perSpan[w], span{
						Name: "request", Parent: cfg.parent, Request: n*int64(cfg.clients) + int64(w),
						Start: cfg.tr.since(sent), End: cfg.tr.since(done),
					})
				}
			}
		}(w)
	}
	wg.Wait()

	res := &loadResult{firstError: firstEr, sliceQPS: make([]float64, cfg.slices)}
	res.offered = int(cfg.rate * cfg.duration.Seconds())
	sliceLen := cfg.duration / time.Duration(cfg.slices)
	for w := range perW {
		for _, s := range perW[w] {
			at := int(s.end / sliceLen)
			if at >= cfg.slices {
				continue
			}
			res.samples = append(res.samples, s)
			res.attempted++
			if s.ok {
				res.sliceQPS[at]++
			} else {
				res.failed++
			}
		}
		if cfg.tr != nil {
			cfg.tr.add(perSpan[w])
		}
	}
	for i := range res.sliceQPS {
		res.sliceQPS[i] /= sliceLen.Seconds()
	}
	return res
}

// conn is one worker's keep-alive HTTP/1.1 connection. Requests are
// written and answers read on the worker's own goroutine: no transport
// goroutines sit between the clock and the socket, so the generator
// adds as little as it can to what it measures.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
}

const requestTimeout = 30 * time.Second

// send issues o and leaves the answer's body in buf. After any error
// the connection is dropped and the next send dials again.
func (c *conn) send(o op, buf *bytes.Buffer) (status int, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.addr, requestTimeout); err != nil {
			c.c = nil
			return 0, err
		}
		c.r = bufio.NewReader(c.c)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	buf.Reset()
	if o.body == nil {
		fmt.Fprintf(buf, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", o.url, c.addr)
	} else {
		fmt.Fprintf(buf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", o.url, c.addr, len(o.body))
		buf.Write(o.body)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(buf.Bytes()); err != nil {
		return 0, fmt.Errorf("%s: %w", o.url, err)
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.url, err)
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s: reading body: %w", o.url, err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// add folds another window of the same run into r.
func (r *loadResult) add(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.offered += o.offered
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstError == "" {
		r.firstError = o.firstError
	}
	r.sliceQPS = append(r.sliceQPS, o.sliceQPS...)
	r.sliceHost = append(r.sliceHost, o.sliceHost...)
}

// latencies returns the sorted latencies in ms of the successful
// samples whose kind keep accepts.
func (r *loadResult) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.ok && keep(s.kind) {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// lateness returns, sorted, how many ms after its due time each request
// of an open loop was sent.
func (r *loadResult) lateness() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.late
	}
	sort.Float64s(out)
	return out
}

func anyKind(opKind) bool     { return true }
func isRead(k opKind) bool    { return k == opRead }
func isWrite(k opKind) bool   { return k != opRead }
func (r *loadResult) ok() int { return r.attempted - r.failed }
