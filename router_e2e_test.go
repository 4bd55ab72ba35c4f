package v2v

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestRouterSmokeE2E is the `make router-smoke` target: the
// distributed deployment as it actually ships. It builds the real v2v
// binary, spawns four shard processes and a scatter-gather router
// over them, and requires every read endpoint to answer byte-for-byte
// identically to an in-process `-shards 4` server on the same bundle.
// Then it SIGKILLs one shard and asserts the documented degraded
// behavior: the router answers 503 (naming the outage) within the
// client timeout — never a hang — and /metrics reports the backend
// down. Set ROUTER_SMOKE_OUT to save the fleet's combined log (CI
// uploads it as an artifact).
func TestRouterSmokeE2E(t *testing.T) {
	const shards = 4
	_, bin, model := buildV2V(t, 60, 8) // the serve smoke's model

	// Every process's log lands in one combined, labeled log so a
	// failure (or ROUTER_SMOKE_OUT) shows the whole fleet's view. The
	// processes' own cleanups run first, so the file gets their last lines.
	var fleetLog e2eLog
	t.Cleanup(func() {
		if out := os.Getenv("ROUTER_SMOKE_OUT"); out != "" {
			page := fleetLog.String()
			if err := os.WriteFile(out, []byte(page), 0o644); err != nil {
				t.Errorf("writing fleet log: %v", err)
			} else {
				t.Logf("fleet log written to %s (%d bytes)", out, len(page))
			}
		}
	})
	start := func(tag string, extra ...string) (*exec.Cmd, string) {
		t.Helper()
		args := append([]string{"serve", "-model", model, "-addr", "127.0.0.1:0"}, extra...)
		return startServe(t, &fleetLog, tag, bin, args...)
	}

	// The fleet: four shard processes, the router over them, and the
	// in-process sharded reference the router must match.
	shardCmds := make([]*exec.Cmd, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		shardCmds[i], addrs[i] = start(fmt.Sprintf("shard%d", i),
			"-shards", fmt.Sprint(shards), "-shard-id", fmt.Sprint(i))
	}
	routerCmd, routerURL := start("router",
		"-router", "-shard-addrs", strings.Join(addrs, ","), "-probe-ms", "50")
	refCmd, refURL := start("reference", "-shards", fmt.Sprint(shards))

	client := &http.Client{Timeout: 10 * time.Second}
	fetch := func(method, url, body string) (int, string) {
		t.Helper()
		var resp *http.Response
		var err error
		if method == "GET" {
			resp, err = client.Get(url)
		} else {
			resp, err = client.Post(url, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", method, url, err)
		}
		return resp.StatusCode, string(b)
	}

	// Wait for the router's first probe round to admit every shard.
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body := fetch("GET", routerURL+"/stats", "")
		if code == 200 && strings.Count(body, `"healthy":true`) == shards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw all %d shards healthy; last /stats: %s\nfleet log:\n%s",
				shards, body, &fleetLog)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Bit-identical reads: every endpoint, raw bodies compared.
	compare := func(method, path, body string) {
		t.Helper()
		wantCode, want := fetch(method, refURL+path, body)
		gotCode, got := fetch(method, routerURL+path, body)
		if gotCode != wantCode || got != want {
			t.Errorf("%s %s diverges:\nreference (%d): %s\nrouter    (%d): %s",
				method, path, wantCode, want, gotCode, got)
		}
	}
	compare("GET", "/v1/neighbors?vertex=3&k=5", "")
	compare("GET", "/v1/neighbors?vertex=59&k=12", "")
	compare("GET", "/v1/similarity?a=1&b=2", "")
	compare("GET", "/v1/similarity?a=40&b=40", "")
	compare("GET", "/v1/vocab?limit=100", "")
	compare("GET", "/v1/neighbors?vertex=nope&k=3", "") // 404 parity
	compare("POST", "/v1/neighbors/batch", `{"vertices":["1","17","58"],"k":6}`)
	compare("POST", "/v1/similarity/batch", `{"pairs":[["1","2"],["30","45"]]}`)

	// Writes route by hash and the served world stays identical.
	compare("POST", "/v1/upsert", `{"vertex":"smoke-w","vector":[1,0,0,0,0,0,0,0]}`)
	compare("GET", "/v1/neighbors?vertex=smoke-w&k=4", "")
	compare("POST", "/v1/delete", `{"vertex":"3"}`)
	compare("GET", "/v1/neighbors?vertex=3&k=4", "") // 404 parity after delete

	// Kill one shard mid-flight — the documented degraded mode: reads
	// answer 503 naming the outage, promptly, and membership surfaces
	// in /stats and /metrics. SIGKILL, not SIGTERM: no goodbye.
	const victim = 1
	if err := shardCmds[victim].Process.Kill(); err != nil {
		t.Fatalf("killing shard %d: %v", victim, err)
	}
	shardCmds[victim].Wait()
	fleetLog.add("harness", fmt.Sprintf("SIGKILLed shard %d", victim))
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, body := fetch("GET", routerURL+"/stats", "")
		if code == 200 && strings.Count(body, `"healthy":true`) == shards-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never noticed shard %d dying; last /stats: %s\nfleet log:\n%s",
				victim, body, &fleetLog)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A cold fan-out read (k it has never served, so the response
	// cache cannot answer) must fail fast and explain itself.
	degradedStart := time.Now()
	code, body := fetch("GET", routerURL+"/v1/neighbors?vertex=1&k=7", "")
	if code != 503 || !strings.Contains(body, "unavailable") {
		t.Fatalf("degraded read: status %d body %s, want 503 naming the outage", code, body)
	}
	if elapsed := time.Since(degradedStart); elapsed > 5*time.Second {
		t.Fatalf("degraded read took %v — the router hung instead of failing fast", elapsed)
	}
	code, page := fetch("GET", routerURL+"/metrics", "")
	downSeen := false
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, fmt.Sprintf(`v2v_backend_up{shard="%d",`, victim)) && strings.HasSuffix(line, " 0") {
			downSeen = true
		}
	}
	if code != 200 || !downSeen {
		t.Fatalf("router /metrics does not report shard %d down (status %d):\n%s", victim, code, page)
	}
	// The healthy shards keep answering health checks; the reference
	// (no remote fleet) is untouched.
	if code, _ := fetch("GET", refURL+"/v1/neighbors?vertex=1&k=7", ""); code != 200 {
		t.Fatalf("reference server degraded by shard kill: status %d", code)
	}

	// Clean SIGTERM shutdown for every surviving process.
	for _, pc := range []struct {
		tag string
		cmd *exec.Cmd
	}{{"router", routerCmd}, {"reference", refCmd},
		{"shard0", shardCmds[0]}, {"shard2", shardCmds[2]}, {"shard3", shardCmds[3]}} {
		stopServe(t, &fleetLog, pc.tag, pc.cmd)
	}
}
