package v2v

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"v2v/internal/snapshot"
	"v2v/internal/xrand"
)

// What the end-to-end suites share: the binary and the model it
// serves, `v2v serve` processes and their logs, and a load generator
// with a write journal.

// e2eModel is a small deterministic model: component i of the matrix
// is (i·2654435761 mod 997)/997.
func e2eModel(vocab, dim int) *Model {
	m := &Model{Dim: dim, Vocab: vocab, Vectors: make([]float32, vocab*dim)}
	for i := range m.Vectors {
		m.Vectors[i] = float32((i*2654435761)%997) / 997
	}
	return m
}

// buildV2V builds cmd/v2v and saves e2eModel(vocab, dim) as a
// snapshot, both in a fresh temporary directory. Without a go
// toolchain the test skips.
func buildV2V(t *testing.T, vocab, dim int) (dir, bin, model string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir = t.TempDir()
	bin, model = filepath.Join(dir, "v2v"), filepath.Join(dir, "model.snap")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/v2v").CombinedOutput(); err != nil {
		t.Fatalf("building v2v: %v\n%s", err, out)
	}
	if err := snapshot.SaveFile(model, e2eModel(vocab, dim), nil); err != nil {
		t.Fatal(err)
	}
	return dir, bin, model
}

// e2eLog is the combined stderr of a test's processes, a line at a
// time under each process's tag; safe to read while they write.
type e2eLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *e2eLog) add(tag, line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.WriteString(tag + ": " + line + "\n")
}

func (l *e2eLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// lineWriter is a process's Stderr. os/exec copies into it from its
// own goroutine, and Wait returns only once that copy is done, so the
// log keeps the last lines. The first "listening on" address goes to
// addr.
type lineWriter struct {
	log  *e2eLog
	tag  string
	addr chan string
	rest []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.rest = append(w.rest, p...)
	for i := bytes.IndexByte(w.rest, '\n'); i >= 0; i = bytes.IndexByte(w.rest, '\n') {
		line := string(w.rest[:i])
		w.rest = w.rest[i+1:]
		w.log.add(w.tag, line)
		if _, a, ok := strings.Cut(line, "listening on "); ok && len(w.addr) == 0 {
			w.addr <- strings.TrimSpace(a) // the only sender: never blocks
		}
	}
	return len(p), nil
}

// startServe runs `bin args...`, logging its stderr under tag, and
// returns it with the base URL it reports. Cleanup kills and reaps it.
func startServe(t *testing.T, log *e2eLog, tag, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	w := &lineWriter{log: log, tag: tag, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", tag, err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	select {
	case a := <-w.addr:
		return cmd, "http://" + a
	case <-time.After(15 * time.Second):
		t.Fatalf("%s never reported its address; log:\n%s", tag, log)
		return nil, ""
	}
}

// stopServe sends SIGTERM and requires a clean exit within 10 s; past
// that the process is killed, which fails the test too.
func stopServe(t *testing.T, log *e2eLog, tag string, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", tag, err)
	}
	kill := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("%s did not exit cleanly within 10s of SIGTERM: %v; log:\n%s", tag, err, log)
	}
}

// load drives a server from Workers goroutines until Requests have
// gone out in total or Duration has passed. QPS > 0 paces them open
// loop: request i is due at start + i/QPS, claimed from a shared
// counter.
type load struct {
	Workers, Requests int
	Duration, Timeout time.Duration
	QPS               float64
	Seed              uint64
	Dim               int // of upserted vectors
}

// loadResult counts the requests by status, 0 for a transport error.
// P99Ms is the nearest-rank p99 of a closed-loop run's successes;
// paced requests are not timed. Writes is the journal, each token's
// events in the order sent.
type loadResult struct {
	Requests       int
	Status         map[int]int
	P99Ms, Seconds float64
	Writes         []writeEvent

	mu   sync.Mutex
	okMs []float64
}

func (r *loadResult) Errors() int { return r.Requests - r.Status[http.StatusOK] }

// writeEvent is one write. Acked means HTTP 200 with the body read to
// the end; an unacked write may or may not have landed.
type writeEvent struct {
	Op, Vertex string
	Acked      bool
}

// loadWorker is one worker's client. Its writes use tokens of its own,
// lg-<worker>-<seq>; outstanding holds those upserted and not deleted.
type loadWorker struct {
	res          *loadResult
	client       *http.Client
	base         string
	tokens       []string
	rng          *xrand.RNG
	dim, id, seq int
	outstanding  []string
}

// run sends send's requests; send returns the status it got.
func (l load) run(t *testing.T, base string, send func(*loadWorker) int) *loadResult {
	t.Helper()
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * l.Workers}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: l.Timeout}
	var vocab struct{ Tokens []string }
	resp, err := client.Get(base + "/v1/vocab?limit=100000")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&vocab)
		resp.Body.Close()
	}
	if err != nil || len(vocab.Tokens) == 0 {
		t.Fatalf("load: reading /v1/vocab: %v (%d tokens)", err, len(vocab.Tokens))
	}
	res := &loadResult{Status: map[int]int{}}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(l.Duration)
	for id := range l.Workers {
		w := &loadWorker{res: res, client: client, base: base, tokens: vocab.Tokens,
			rng: xrand.NewStream(l.Seed, uint64(id)), dim: l.Dim, id: id}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; l.Requests == 0 || i < int64(l.Requests); i = next.Add(1) - 1 {
				if l.QPS > 0 {
					due := start.Add(time.Duration(float64(i) / l.QPS * float64(time.Second)))
					if l.Duration > 0 && due.After(deadline) {
						return
					}
					time.Sleep(time.Until(due))
				}
				if l.Duration > 0 && time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				code := send(w)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				res.mu.Lock()
				res.Requests++
				res.Status[code]++
				if code == http.StatusOK && l.QPS == 0 {
					res.okMs = append(res.okMs, ms)
				}
				res.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	if n := len(res.okMs); n > 0 {
		sort.Float64s(res.okMs)
		res.P99Ms = res.okMs[int(math.Ceil(0.99*float64(n)))-1]
	}
	return res
}

// tok samples a vocabulary token, escaped for a query string.
func (w *loadWorker) tok() string { return url.QueryEscape(w.rawTok()) }

func (w *loadWorker) rawTok() string { return w.tokens[w.rng.Uint64()%uint64(len(w.tokens))] }

func (w *loadWorker) get(path string) int { return drain(w.client.Get(w.base + path)) }

func (w *loadWorker) post(path string, body any) int {
	buf, _ := json.Marshal(body) // maps of strings, numbers and slices of them
	return drain(w.client.Post(w.base+path, "application/json", bytes.NewReader(buf)))
}

// drain reads the body to the end and returns the status, or 0 for a
// transport error — which a truncated body is, whatever the status.
func drain(resp *http.Response, err error) int {
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// upsert writes a random vector: every 4th rewrites an outstanding
// token, the rest insert a fresh one.
func (w *loadWorker) upsert() int {
	tok := fmt.Sprintf("lg-%d-%d", w.id, w.seq)
	if w.seq%4 == 3 && len(w.outstanding) > 0 {
		tok = w.outstanding[w.rng.Uint64()%uint64(len(w.outstanding))]
	} else if len(w.outstanding) < 1<<16 {
		w.outstanding = append(w.outstanding, tok)
	}
	w.seq++
	vec := make([]float64, w.dim)
	for i := range vec {
		vec[i] = w.rng.Float64()*2 - 1
	}
	return w.write("upsert", tok, map[string]any{"vertex": tok, "vector": vec})
}

// remove deletes an outstanding token, or upserts when there is none.
func (w *loadWorker) remove() int {
	n := len(w.outstanding)
	if n == 0 {
		return w.upsert()
	}
	i := w.rng.Uint64() % uint64(n)
	tok := w.outstanding[i]
	w.outstanding[i] = w.outstanding[n-1]
	w.outstanding = w.outstanding[:n-1]
	return w.write("delete", tok, map[string]any{"vertex": tok})
}

func (w *loadWorker) write(op, tok string, body any) int {
	code := w.post("/v1/"+op, body)
	w.res.mu.Lock()
	defer w.res.mu.Unlock()
	w.res.Writes = append(w.res.Writes, writeEvent{op, tok, code == http.StatusOK})
	return code
}

// TestStatusClassAccounting pins what the journal's acks rest on: each
// request counts under the status it got, and a 200 whose body is cut
// short is a transport error, not an ack.
func TestStatusClassAccounting(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/vocab", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"tokens":["a"]}`) })
	mux.HandleFunc("/v1/upsert", func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 3:
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, "short")
		}
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	res := load{Workers: 1, Requests: 5, Timeout: 10 * time.Second, Dim: 2}.run(t, hs.URL, (*loadWorker).upsert)
	acked := 0
	for _, ev := range res.Writes {
		if ev.Acked {
			acked++
		}
	}
	if want := map[int]int{429: 1, 503: 1, 0: 1, 200: 2}; !reflect.DeepEqual(res.Status, want) ||
		res.Errors() != 3 || len(res.Writes) != 5 || acked != 2 {
		t.Fatalf("status %v, errors %d, journal %+v; want %v, 3 errors, 5 writes of which 2 acked",
			res.Status, res.Errors(), res.Writes, want)
	}
}
