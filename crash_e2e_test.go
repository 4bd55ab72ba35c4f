package v2v

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// crashReport is the machine-readable outcome of the crash e2e run
// (written to $CRASH_REPORT_OUT when set; CI uploads it as an
// artifact).
type crashReport struct {
	RunSeconds       float64 `json:"run_seconds"`
	KillAfterSeconds float64 `json:"kill_after_seconds"`
	JournaledEvents  int     `json:"journaled_events"`
	AckedEvents      int     `json:"acked_events"`
	VerifiedUpserts  int     `json:"verified_upserts"`
	VerifiedDeletes  int     `json:"verified_deletes"`
	AmbiguousTokens  int     `json:"ambiguous_tokens"`
	LostWrites       int     `json:"lost_writes"`
	ReplayedRecords  uint64  `json:"replayed_records"`
	RecoveredTorn    bool    `json:"recovered_torn"`
}

// TestCrashRecoveryE2E is the tentpole acceptance test (`make
// crash-smoke`): SIGKILL a real `v2v serve -wal` process in the middle
// of a mixed read/write load run, restart it over the same directory,
// and prove that ZERO acknowledged writes were lost. The load generator's
// write journal (e2e_harness_test.go) defines the contract: for every
// token whose outcome is unambiguous (its last journaled event was
// acknowledged and nothing with an unknown outcome followed), the
// restarted server must agree with the journal — upserted tokens
// resolve, deleted tokens 404.
// Tokens with in-flight writes at the kill are excluded: an unacked
// write may legitimately land either way.
func TestCrashRecoveryE2E(t *testing.T) { runCrashRecoveryE2E(t, 0) }

// TestShardedCrashRecoveryE2E is the same fault-injection run against
// a 4-shard serving generation (`make crash-smoke-sharded`). Hash
// routing is deterministic, so replay must land every acknowledged
// write back in the shard it was served from: any misroute makes the
// per-token verification below disagree with the journal.
func TestShardedCrashRecoveryE2E(t *testing.T) { runCrashRecoveryE2E(t, 4) }

func runCrashRecoveryE2E(t *testing.T, shards int) {
	const dim = 8
	dir, bin, model := buildV2V(t, 200, dim)

	walDir := filepath.Join(dir, "wal")
	// Small segments and an aggressive checkpoint threshold so the run
	// exercises rotation, checkpointing AND truncation before the kill,
	// not just a single growing segment.
	serveArgs := []string{
		"serve", "-model", model, "-addr", "127.0.0.1:0",
		"-wal", walDir, "-wal-sync", "always",
		"-wal-segment-bytes", "4096", "-wal-checkpoint-bytes", "8192",
	}
	if shards > 1 {
		serveArgs = append(serveArgs, "-shards", strconv.Itoa(shards))
	}
	var log e2eLog
	cmd, base := startServe(t, &log, "server", bin, serveArgs...)

	runFor := 4 * time.Second
	if testing.Short() {
		runFor = 2 * time.Second
	}
	killAfter := runFor * 6 / 10
	killed := make(chan struct{})
	timer := time.AfterFunc(killAfter, func() {
		cmd.Process.Kill() // SIGKILL: no shutdown path runs
		close(killed)
	})
	defer timer.Stop()
	// 85% reads (neighbours 7 : similarity 3), 15% writes (upserts
	// 2 : deletes 1), paced at 800 req/s.
	l := load{Workers: 4, QPS: 800, Duration: runFor, Seed: 23, Timeout: 2 * time.Second, Dim: dim}
	res := l.run(t, base, func(w *loadWorker) int {
		switch x := w.rng.Float64(); {
		case x < 0.595:
			return w.get("/v1/neighbors?vertex=" + w.tok() + "&k=5")
		case x < 0.85:
			return w.get("/v1/similarity?a=" + w.tok() + "&b=" + w.tok())
		case x < 0.95:
			return w.upsert()
		default:
			return w.remove()
		}
	})
	<-killed
	cmd.Wait() // reap; a SIGKILL exit is expected to be unclean

	acked := 0
	for _, ev := range res.Writes {
		if ev.Acked {
			acked++
		}
	}
	if acked == 0 {
		t.Fatalf("no write was acknowledged before the kill (journal: %d events); log:\n%s",
			len(res.Writes), &log)
	}
	if res.Errors() == 0 {
		t.Fatalf("every request succeeded — the kill landed after the run; raise killAfter below runFor")
	}

	// Restart over the same WAL directory: checkpoint + replay must
	// reconstruct every acknowledged write.
	_, base2 := startServe(t, &log, "restarted", bin, serveArgs...)

	if shards > 1 {
		// The restarted generation must actually be sharded — a silent
		// fall-back to a flat index would make the verification vacuous.
		var h struct {
			Shards int `json:"shards"`
		}
		resp, err := http.Get(base2 + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Shards != shards {
			t.Fatalf("restarted server reports %d shards, want %d", h.Shards, shards)
		}
	}

	// Fold the journal per token. Each token belongs to one worker,
	// whose writes are journaled in the order sent, so the last event is
	// the token's final acknowledged state — unless an unknown-outcome
	// event follows it, which makes the token ambiguous.
	type state struct {
		lastAckedOp string
		hasAcked    bool
		unkAfterAck bool
	}
	tokens := make(map[string]*state)
	for _, ev := range res.Writes {
		st := tokens[ev.Vertex]
		if st == nil {
			st = &state{}
			tokens[ev.Vertex] = st
		}
		if ev.Acked {
			st.lastAckedOp = ev.Op
			st.hasAcked = true
			st.unkAfterAck = false
		} else if st.hasAcked {
			st.unkAfterAck = true
		}
	}

	rep := crashReport{
		RunSeconds:       res.Seconds,
		KillAfterSeconds: killAfter.Seconds(),
		JournaledEvents:  len(res.Writes),
		AckedEvents:      acked,
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for tok, st := range tokens {
		if !st.hasAcked || st.unkAfterAck {
			rep.AmbiguousTokens++
			continue
		}
		resp, err := client.Get(base2 + "/v1/neighbors?vertex=" + tok + "&k=1")
		if err != nil {
			t.Fatalf("verifying %q: %v", tok, err)
		}
		resp.Body.Close()
		switch st.lastAckedOp {
		case "upsert":
			rep.VerifiedUpserts++
			if resp.StatusCode != 200 {
				rep.LostWrites++
				t.Errorf("acked upsert of %q lost: status %d after restart", tok, resp.StatusCode)
			}
		case "delete":
			rep.VerifiedDeletes++
			if resp.StatusCode != 404 {
				rep.LostWrites++
				t.Errorf("acked delete of %q lost: status %d after restart, want 404", tok, resp.StatusCode)
			}
		}
	}
	// The run must actually have proven something on both write paths.
	if rep.VerifiedUpserts == 0 || rep.VerifiedDeletes == 0 {
		t.Fatalf("verification covered %d upserts / %d deletes — need both > 0 (journal: %d events, %d acked)",
			rep.VerifiedUpserts, rep.VerifiedDeletes, len(res.Writes), acked)
	}

	var stats struct {
		WAL struct {
			Enabled         bool   `json:"enabled"`
			ReplayedRecords uint64 `json:"replayed_records"`
			RecoveredTorn   bool   `json:"recovered_torn"`
		} `json:"wal"`
	}
	resp, err := client.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.WAL.Enabled {
		t.Fatalf("restarted server does not report WAL enabled; log:\n%s", &log)
	}
	rep.ReplayedRecords = stats.WAL.ReplayedRecords
	rep.RecoveredTorn = stats.WAL.RecoveredTorn

	t.Logf("crash e2e: %d journaled writes (%d acked), verified %d upserts + %d deletes, %d ambiguous, %d lost, %d records replayed (torn tail: %v)",
		rep.JournaledEvents, rep.AckedEvents, rep.VerifiedUpserts, rep.VerifiedDeletes,
		rep.AmbiguousTokens, rep.LostWrites, rep.ReplayedRecords, rep.RecoveredTorn)

	if out := os.Getenv("CRASH_REPORT_OUT"); out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			t.Fatalf("writing crash report: %v", err)
		}
		t.Logf("crash report written to %s", out)
	}
}
