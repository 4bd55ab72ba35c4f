package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the driver's declaration at the repository root.
type benchmarkJSON struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []declaredWorkload `json:"workloads"`
	EndToEnd   []declared         `json:"end_to_end"`
	PerLayer   []declared         `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// specAsJSON is BENCHMARK.json as spec.go declares it.
func specAsJSON() benchmarkJSON {
	bj := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		bj.Workloads = append(bj.Workloads, declaredWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		bj.EndToEnd = append(bj.EndToEnd, declared{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		bj.PerLayer = append(bj.PerLayer, declared{m.Name, m.Unit, m.Better, nil})
	}
	return bj
}

// BENCHMARK.json and spec.go must declare the same workloads and the
// same metrics, in the same words, within the driver's limits.
// `go test -run TestSpecMatchesBenchmarkJSON -update` rewrites the file.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		b, err := json.MarshalIndent(specAsJSON(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d in BENCHMARK.json, %d in spec.go", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []declared, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, spec.go {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %g in spec.go, and it must be in (0, 0.25]", kind, m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || !reflect.DeepEqual(bj.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
}

// TestSmoke runs the whole harness on tiny fixtures — every workload,
// both passes, real server processes — and checks that the report
// holds exactly the declared workloads and metrics, all valid.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: the smoke run builds cmd/v2v and starts servers")
	}
	if raceEnabled {
		t.Skip("-race: the smoke run measures a separately built binary; the detector would only slow the driver")
	}
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash on PATH")
	}
	out := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command("bash", "run.sh", "-smoke", "-out", out)
	if log, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, log)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	bj := readBenchmarkJSON(t)
	for _, pass := range []struct {
		name     string
		results  map[string]*result
		declared []declared
	}{
		{"end_to_end", rep.EndToEnd, bj.EndToEnd},
		{"per_layer", rep.PerLayer, bj.PerLayer},
	} {
		var wantW, gotW []string
		for _, w := range bj.Workloads {
			wantW = append(wantW, w.Name)
		}
		for w := range pass.results {
			gotW = append(gotW, w)
		}
		sort.Strings(wantW)
		sort.Strings(gotW)
		if !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("%s: workloads %v, declared %v", pass.name, gotW, wantW)
		}
		var wantM []string
		for _, m := range pass.declared {
			wantM = append(wantM, m.Name)
		}
		sort.Strings(wantM)
		for w, res := range pass.results {
			if !res.Valid {
				t.Errorf("%s %s: invalid: %v", pass.name, w, res.Reasons)
			}
			var gotM []string
			for m := range res.Metrics {
				gotM = append(gotM, m)
			}
			sort.Strings(gotM)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("%s %s: metrics %v, declared %v", pass.name, w, gotM, wantM)
			}
		}
	}
}
