// Command benchmark is this repository's benchmark: six workloads over
// the paper's pipeline and the serving tier, driven against the real
// cmd/v2v binary as subprocesses, measured with this directory's own
// load generator, timers, percentiles and oracles. Run it through
// run.sh, which builds both binaries inside the checkout. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// envBlock records where and on what a report was measured.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	SliceS     float64 `json:"slice_s"`
	Smoke      bool    `json:"smoke"`
	BuildS     float64 `json:"build_s"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

// report is what -out writes and -compare reads. EndToEnd comes from
// the untraced pass, PerLayer from the traced one.
type report struct {
	Env      envBlock           `json:"env"`
	EndToEnd map[string]*result `json:"end_to_end,omitempty"`
	PerLayer map[string]*result `json:"per_layer,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "seed of the graph, the vectors, the query order and the write payloads")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1: write the recorded spans to this file")
		smoke    = flag.Bool("smoke", false, "tiny fixtures, both passes, every workload: checks the harness, measures nothing")
		out      = flag.String("out", "", "write the full report (environment, validity, slices) to this file")
		repeat   = flag.Int("repeat", 1, "run this many sets, seeds seed..seed+N-1, and print each metric's spread against its bound")
		compare  = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		bin      = flag.String("v2v", "", "the built cmd/v2v binary (run.sh sets it)")
		work     = flag.String("work", "", "directory for this run's files (run.sh sets it)")
		buildS   = flag.Float64("build-s", 0, "seconds run.sh spent building, recorded in the report")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	if *bin == "" || *work == "" {
		fatalf("run the benchmark through benchmark/run.sh (it builds cmd/v2v and passes -v2v and -work)")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fatalf("%v", err)
	}

	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	procs := &procSet{}
	cleanup := func() {
		procs.killAll()
		os.RemoveAll(dir)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	wakeCPUs()

	size := fullSizes
	if *smoke {
		size = smokeSizes
		*seconds = 1
	}
	passes := []bool{*trace == 1}
	if *smoke {
		passes = []bool{false, true}
	}
	var (
		sets     []*report
		recorded []span // every traced workload's spans, written once at exit
	)
	for set := 0; set < *repeat; set++ {
		rep := &report{Env: environment(*seed+uint64(set), *seconds, size, *smoke, *buildS)}
		for _, traced := range passes {
			for _, name := range names {
				e := &env{
					bin: *bin, dir: filepath.Join(dir, name), seed: rep.Env.Seed,
					window: time.Duration(*seconds) * time.Second, trace: traced, size: size,
					clients: clientsPerCPU * runtime.NumCPU(), procs: procs,
				}
				res := e.run(name)
				if traced {
					if rep.PerLayer == nil {
						rep.PerLayer = map[string]*result{}
					}
					rep.PerLayer[name] = res
					recorded = append(recorded, e.tr.spans...)
				} else {
					if rep.EndToEnd == nil {
						rep.EndToEnd = map[string]*result{}
					}
					rep.EndToEnd[name] = res
				}
			}
		}
		sets = append(sets, rep)
	}
	cleanup()
	if *spans != "" {
		if err := writeJSON(*spans, recorded); err != nil {
			fatalf("%v", err)
		}
	}

	final := sets[0]
	if *repeat > 1 {
		final = summarize(sets)
	}
	if *out != "" {
		if err := writeJSON(*out, final); err != nil {
			fatalf("%v", err)
		}
	}
	// The last line of standard output is the result: the contract's
	// four keys for one workload, the whole report for several.
	if len(names) == 1 && !*smoke && *repeat == 1 {
		res := final.EndToEnd[names[0]]
		declared := endToEnd
		if *trace == 1 {
			res, declared = final.PerLayer[names[0]], perLayer
		}
		printJSON(contractLine(res, declared))
	} else {
		printJSON(final)
	}
	if !allValid(final) {
		os.Exit(1)
	}
}

// run executes one workload in its own scratch directory and prints a
// readable summary to standard error.
func (e *env) run(name string) *result {
	if e.trace {
		e.tr = newTracer(name)
	}
	started := time.Now()
	var res *result
	if !e.trace {
		ref, err := newHostRef(e.clients)
		if err != nil {
			res = newResult(name)
			res.fail("host reference loop: %v", err)
			return res
		}
		e.ref = ref
		defer ref.close()
	}
	if name == "pipeline" {
		res = e.runPipeline()
	} else {
		res = e.runServe(name)
	}
	if res.Failed > 0 && res.Valid {
		res.fail("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if e.trace {
		for span, ms := range selfTimeMs(e.tr.spans) {
			logf("  self time %-32s %10.1f ms", span, ms)
		}
	}
	pass := "untraced"
	if e.trace {
		pass = "traced"
	}
	logf("%s (%s, seed %d): valid=%v noisy=%v samples=%d slices=%.0f host=%.0f, took %.1fs",
		name, pass, e.seed, res.Valid, res.Noisy, res.Samples, res.SliceQPS, res.SliceHost, time.Since(started).Seconds())
	for _, reason := range res.Reasons {
		logf("  INVALID: %s", reason)
	}
	if !res.Valid {
		logs, _ := filepath.Glob(filepath.Join(e.dir, "*", "*.log"))
		for _, l := range logs {
			logf("  --- %s\n%s", l, tailOfFile(l, 10))
		}
	}
	// A pass reports its own declared metrics and nothing else.
	declared := endToEnd
	if e.trace {
		declared = perLayer
	}
	all := res.Metrics
	res.Metrics = map[string]reading{}
	for _, m := range declared {
		if r, ok := all[m.Name]; ok {
			res.Metrics[m.Name] = r
			logf("  %-34s %14.4f %s", m.Name, r.Value, r.Unit)
		}
	}
	os.RemoveAll(e.dir)
	return res
}

// wakeCPUs keeps every CPU busy for a second and a half. After a few
// idle seconds this kind of virtual machine runs at a half to a third
// of its speed for about a second (equal chunks of arithmetic take
// 190 ms, then 95 ms), which would otherwise land on whatever the run
// measures first.
func wakeCPUs() {
	until := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
			}
		}()
	}
	wg.Wait()
}

func selectWorkloads(arg string) ([]string, error) {
	var names []string
	for _, w := range workloads {
		if arg == "all" || arg == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", arg)
	}
	return names, nil
}

// contractLine is the driver's result object: exactly correct,
// attempted, failed and metrics, the metrics being every declared one
// of the pass that ran.
func contractLine(res *result, declared []metricSpec) map[string]any {
	metrics := map[string]reading{}
	for _, m := range declared {
		r, ok := res.Metrics[m.Name]
		if !ok {
			res.fail("metric %s was not measured", m.Name)
			r = reading{Unit: m.Unit}
		}
		metrics[m.Name] = r
	}
	return map[string]any{
		"correct":   res.Valid,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

func allValid(rep *report) bool {
	for _, pass := range []map[string]*result{rep.EndToEnd, rep.PerLayer} {
		for _, res := range pass {
			if !res.Valid {
				return false
			}
		}
	}
	return true
}

func environment(seed uint64, seconds int, size sizes, smoke bool, buildS float64) envBlock {
	env := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown", Seed: seed, WindowS: float64(seconds), SliceS: size.slice.Seconds(),
		Smoke: smoke, BuildS: buildS,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.LoadAvg1)
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown. The ceiling keeps git from looking above the
	// checkout for one.
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		return cmd.Output()
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
		status, _ := git("status", "--porcelain")
		env.Dirty = len(status) > 0
	}
	return env
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf("benchmark: "+format, args...)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
