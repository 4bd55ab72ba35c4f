package v2v

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v2v/internal/snapshot"
	"v2v/internal/telemetry"
	"v2v/internal/vecstore"
)

// TestServeSmokeE2E is the `make serve-smoke` target: it builds the
// real v2v binary, serves a snapshot on a random port, issues one
// query per endpoint (including a hot reload), sends SIGTERM and
// asserts a clean, prompt shutdown. This is the only test that
// exercises the process-level signal path; everything below the
// signal handler is covered in-process by internal/server.
func TestServeSmokeE2E(t *testing.T) {
	dir, bin, model := buildV2V(t, 60, 8)
	var log e2eLog
	cmd, base := startServe(t, &log, "server", bin, "serve", "-model", model, "-addr", "127.0.0.1:0")

	get := func(path string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}

	getCode := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	postCode := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// One query per endpoint.
	get("/healthz")
	get("/stats")
	get("/v1/neighbors?vertex=3&k=5")
	post("/v1/neighbors/batch", `{"vertices":["1","2"],"k":3}`)
	get("/v1/similarity?a=1&b=2")
	post("/v1/similarity/batch", `{"pairs":[["1","2"]]}`)
	get("/v1/analogy?a=1&b=2&c=3&k=3")
	get("/v1/predict?u=4&v=5")
	post("/v1/predict/batch", `{"pairs":[["4","5"]]}`)
	get("/v1/vocab?limit=3")
	post("/v1/reload", fmt.Sprintf(`{"path":%q}`, model))

	// Online writes through the real binary: an upsert is queryable
	// with no reload, a delete stops resolving, and the batch variants
	// work. The write endpoints survived the reload above (gen 2).
	post("/v1/upsert", `{"vertex":"smoke-w","vector":[1,0,0,0,0,0,0,0]}`)
	get("/v1/neighbors?vertex=smoke-w&k=3")
	post("/v1/upsert/batch", `{"items":[{"vertex":"smoke-b","vector":[0,1,0,0,0,0,0,0]}]}`)
	post("/v1/delete", `{"vertex":"smoke-w"}`)
	getCode("/v1/neighbors?vertex=smoke-w&k=3", 404)
	post("/v1/delete/batch", `{"vertices":["smoke-b"]}`)

	// A reload pointing at a missing file fails cleanly and the
	// previous generation keeps serving.
	postCode("/v1/reload", fmt.Sprintf(`{"path":%q}`, filepath.Join(dir, "gone.snap")), 400)
	get("/v1/neighbors?vertex=3&k=5")

	// Scrape /metrics after the sweep: the exposition must parse and
	// validate (unique names, monotone cumulative buckets, _sum/_count
	// consistency), and every endpoint exercised above must have
	// counted its requests. CI uploads the page as an artifact when
	// METRICS_SNAPSHOT_OUT names a path.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	expo, err := telemetry.ParseExposition(page)
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, page)
	}
	if err := expo.Validate(); err != nil {
		t.Fatalf("validating /metrics: %v\n%s", err, page)
	}
	for _, ep := range []string{
		"healthz", "stats", "neighbors", "neighbors_batch", "similarity",
		"similarity_batch", "analogy", "predict", "predict_batch", "vocab",
		"reload", "upsert", "upsert_batch", "delete", "delete_batch",
	} {
		if v, ok := expo.Value("v2v_requests_total", fmt.Sprintf("endpoint=%q", ep)); !ok || v < 1 {
			t.Errorf("endpoint %q counted %v requests (present=%v), want >= 1", ep, v, ok)
		}
	}
	if f := expo.Family("v2v_build_info"); f == nil || len(f.Series[""]) != 1 {
		t.Errorf("v2v_build_info missing or malformed: %+v", f)
	}
	if out := os.Getenv("METRICS_SNAPSHOT_OUT"); out != "" {
		if err := os.WriteFile(out, page, 0o644); err != nil {
			t.Fatalf("writing metrics snapshot: %v", err)
		}
		t.Logf("metrics snapshot written to %s (%d bytes)", out, len(page))
	}

	// Clean SIGTERM shutdown: exit code 0, within the grace period.
	stopServe(t, &log, "server", cmd)
}

// TestReloadShapeMismatchKeepsServing exercises the live /v1/reload
// path against a bundle whose persisted HNSW graph does not match its
// model (the loader-layer coverage for this mismatch already exists
// in internal/snapshot; this asserts the serving behavior): the
// reload must answer a clean 400 whose message names the shape
// problem, and the previous generation must keep serving queries.
func TestReloadShapeMismatchKeepsServing(t *testing.T) {
	dir := t.TempDir()
	mA := e2eModel(60, 8)
	hA, err := vecstore.NewHNSW(mA.Store(), vecstore.Cosine, vecstore.HNSWConfig{M: 8, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.snap")
	if err := snapshot.SaveBundleFile(good, mA, nil, hA.Graph()); err != nil {
		t.Fatal(err)
	}
	// The poison bundle: a 50-row model carrying the 60-node graph.
	// SaveBundle refuses to write one, so splice it byte-wise: model
	// B's snapshot followed by the graph section sliced off the good
	// bundle (each section carries its own CRC, so both still verify —
	// only the cross-section shape check can reject it, which is
	// exactly the reload path under test).
	var modelA, badBuf bytes.Buffer
	if err := snapshot.Save(&modelA, mA, nil); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Save(&badBuf, e2eModel(50, 8), nil); err != nil {
		t.Fatal(err)
	}
	badBuf.Write(goodBytes[modelA.Len():]) // the V2VHNSW1 graph section
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, badBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewQueryServer(ServeConfig{
		ModelPath: good,
		Index:     IndexConfig{Kind: HNSWIndex},
	})
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path":%q}`, bad)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("mismatched reload: status %d, want 400 (%v)", resp.StatusCode, body)
	}
	if !strings.Contains(body["error"], "graph") {
		t.Fatalf("reload error does not name the graph mismatch: %v", body)
	}
	if srv.Generation() != 1 {
		t.Fatalf("failed reload bumped generation to %d", srv.Generation())
	}
	// The old generation still answers.
	r2, err := http.Get(hs.URL + "/v1/neighbors?vertex=3&k=5")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("previous generation stopped serving: status %d", r2.StatusCode)
	}
	// And a valid reload still succeeds afterwards.
	r3, err := http.Post(hs.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path":%q}`, good)))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != 200 || srv.Generation() != 2 {
		t.Fatalf("recovery reload: status %d, generation %d", r3.StatusCode, srv.Generation())
	}
}
