package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

type fixedSource struct{ o op }

func (f fixedSource) next(int) op { return f.o }

// countingSource counts the operations it hands out.
type countingSource struct {
	o     op
	drawn atomic.Int64
}

func (c *countingSource) next(int) op {
	c.drawn.Add(1)
	return c.o
}

// A source may treat an operation as sent once it has handed it out (the
// write mix remembers the tokens it upserted), so the loop must not draw
// one it then drops because the window has closed.
func TestEveryDrawnOperationIsSent(t *testing.T) {
	var received atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		received.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	for _, rate := range []float64{0, 2000} {
		src := &countingSource{o: op{kind: opRead, url: "/"}}
		received.Store(0)
		runLoad(loadConfig{base: srv.URL, clients: 2, duration: 100 * time.Millisecond, slices: 1, rate: rate, src: src})
		if d, r := src.drawn.Load(), received.Load(); d == 0 || d != r {
			t.Errorf("rate %g: %d operations drawn, %d received by the server", rate, d, r)
		}
	}
}

func TestClosedLoopCountsAndChecks(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/missing":
			http.Error(w, "no", 404)
		case "/echo":
			b, _ := io.ReadAll(r.Body)
			w.Write(b)
		default:
			fmt.Fprint(w, "ok")
		}
	}))
	defer srv.Close()

	good := runLoad(loadConfig{
		base: srv.URL, clients: 2, duration: 200 * time.Millisecond, slices: 2,
		src: fixedSource{op{kind: opUpsert, url: "/echo", body: []byte(`{"a":1}`)}},
		check: func(o op, body []byte) error {
			if string(body) != `{"a":1}` {
				return fmt.Errorf("echo returned %q", body)
			}
			return nil
		},
	})
	if good.attempted == 0 || good.failed != 0 {
		t.Errorf("echo: attempted %d, failed %d (%s)", good.attempted, good.failed, good.firstError)
	}
	var inSlices float64
	for _, q := range good.sliceQPS {
		inSlices += q * 0.1
	}
	if int(inSlices+0.5) != good.ok() {
		t.Errorf("slices hold %.1f requests, the window %d", inSlices, good.ok())
	}

	bad := runLoad(loadConfig{
		base: srv.URL, clients: 1, duration: 50 * time.Millisecond, slices: 1,
		src: fixedSource{op{kind: opRead, url: "/missing"}},
	})
	if bad.attempted == 0 || bad.failed != bad.attempted {
		t.Errorf("404s: attempted %d, failed %d; every non-200 is a failure", bad.attempted, bad.failed)
	}
}

// The coordinated-omission case: one client, a server that stalls once
// for 300 ms. At 200 requests/s sixty slots fall due during the stall;
// an open loop charges the stall to each of them, where timing from the
// send would show one slow request and fifty-nine fast ones.
func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 10 {
			time.Sleep(300 * time.Millisecond)
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	res := runLoad(loadConfig{
		base: srv.URL, clients: 1, duration: time.Second, slices: 1, rate: 200,
		src: fixedSource{op{kind: opRead, url: "/"}},
	})
	if res.offered != 200 {
		t.Fatalf("offered %d, want 200", res.offered)
	}
	if res.failed != 0 || res.attempted < 190 {
		t.Fatalf("attempted %d of %d offered, %d failed (%s): the client must catch up after the stall", res.attempted, res.offered, res.failed, res.firstError)
	}
	delayed := 0
	for _, s := range res.samples {
		if s.ms >= 50 {
			delayed++
		}
	}
	// Slots due in the first 250 ms of the stall wait at least 50 ms.
	if delayed < 40 || delayed > 60 {
		t.Errorf("%d requests took 50 ms or more from their due time, want about 50", delayed)
	}
	if late := res.lateness(); percentile(late, 90) < 100 || late[0] < 0 {
		t.Errorf("lateness p90 = %.1f ms, min = %.1f ms; the stall must show as lateness and no request leaves early", percentile(late, 90), late[0])
	}
}

func TestScrapeAndDeltas(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits += 5
		fmt.Fprintf(w, "# HELP x y\nv2v_cache_hits_total %d\nv2v_admission_shed_total{class=\"read\"} %d\nv2v_admission_shed_total{class=\"write\"} 1\n", hits, hits)
	}))
	defer srv.Close()
	before, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	after, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "v2v_cache_hits_total"); got != 5 {
		t.Errorf("delta = %g, want 5", got)
	}
	if got := delta(before, after, "v2v_absent_total"); got != 0 {
		t.Errorf("delta of an absent series = %g, want 0", got)
	}
	if got := sumDelta(before, after, "v2v_admission_shed_total"); got != 5 {
		t.Errorf("sumDelta = %g, want 5", got)
	}
}

func TestCheckNeighbors(t *testing.T) {
	v := newVocabulary([]string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"})
	body := func(tokens []string, scores []float64) []byte {
		s := `{"vertex":"v0","k":10,"neighbors":[`
		for i := range tokens {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf(`{"vertex":%q,"score":%g}`, tokens[i], scores[i])
		}
		return []byte(s + "]}")
	}
	toks := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"}
	desc := []float64{.9, .8, .7, .6, .5, .4, .3, .2, .1, 0}
	if _, err := checkNeighbors(v, "v0", body(toks, desc)); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	if _, err := checkNeighbors(v, "v1", body(toks, desc)); err == nil {
		t.Error("answer for another vertex accepted")
	}
	if _, err := checkNeighbors(v, "v0", body(toks[:9], desc[:9])); err == nil {
		t.Error("nine results accepted")
	}
	up := append([]float64(nil), desc...)
	up[4], up[5] = up[5], up[4]
	if _, err := checkNeighbors(v, "v0", body(toks, up)); err == nil {
		t.Error("ascending scores accepted")
	}
	odd := append([]string(nil), toks...)
	odd[3] = "zebra"
	if _, err := checkNeighbors(v, "v0", body(odd, desc)); err == nil {
		t.Error("unknown token accepted")
	}
	if _, err := checkNeighbors(v, "v0", []byte("{")); err == nil {
		t.Error("undecodable body accepted")
	}
}
