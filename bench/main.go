// Command bench is the repo benchmark: five long-run workloads through the
// public entry points (core.PageRank, core.Line, core.GraphSage,
// ps.ServeClient), end-to-end metrics with fixed regression bounds from
// untraced runs, and per-layer metrics from a separate traced run. See
// README.md in this directory.
//
//	bench -workload <name>|all [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	bench -agree [-workload w]      two full sets back to back, compared against the bounds
//	bench -spread n [-workload w]   n seeds per workload, quartile spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

var processStart = time.Now()

func main() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all (one fresh process per workload)")
		seed         = flag.Int64("seed", 1, "seed of every random choice: generators, LINE/GraphSage seeds, id streams")
		seconds      = flag.Float64("seconds", 12, "job time to measure per run; repetitions are whole fixed jobs")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
		out          = flag.String("out", "", "also write the full result (quartiles, n, host) as JSON to this file")
		agree        = flag.Bool("agree", false, "run two full sets and compare their medians against the bounds")
		spread       = flag.Int("spread", 0, "run this many seeds per workload and report the quartile spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	selected := workloadSpecs
	if *workloadFlag != "all" {
		selected = nil
		for _, w := range workloadSpecs {
			if w.Name == *workloadFlag {
				selected = []workloadSpec{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
	}
	switch {
	case *agree:
		os.Exit(runAgree(selected, *seed, *seconds))
	case *spread > 0:
		os.Exit(runSpread(selected, *seed, *seconds, *spread))
	case *workloadFlag == "all":
		os.Exit(runAll(*seed, *seconds, *trace != 0, *out))
	}
	os.Exit(runOne(*workloadFlag, *seed, *seconds, *trace != 0, *out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchDir is this package's directory, whether the process was started at
// the root of the checkout (run.sh) or inside bench/ (go run -C bench).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// runOne measures one workload in this process and prints the table and,
// as the last line, the driver's JSON object.
func runOne(name string, seed int64, seconds float64, traced bool, out string) int {
	var (
		res *result
		rec *recorder
		err error
	)
	if traced {
		res, rec, err = runTraced(name, seed, seconds)
	} else {
		res, err = runUntraced(name, seed, seconds, processStart)
	}
	if err != nil {
		res.Correct = false
		res.Error = err.Error()
		res.Failed = max(res.Failed, 1)
		fmt.Fprintln(os.Stderr, "bench:", name+":", err)
	}
	if rec != nil {
		path := filepath.Join(benchDir(), "out", "trace-"+name+".json")
		if werr := rec.write(path, res.Host, name, seed); werr != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", werr)
		} else {
			fmt.Printf("trace: %s\n", path)
		}
	}
	printTable(res)
	if out != "" {
		if werr := writeJSON(out, res); werr != nil {
			fatal(werr)
		}
	}
	printDriverLine(res.Correct, res.Attempted, res.Failed, res.Metrics)
	if !res.Correct {
		return 1
	}
	return 0
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printTable(res *result) {
	h := res.Host
	fmt.Printf("workload %s  seed %d  traced %v  items/job %d\n", res.Workload, res.Seed, res.Traced, res.Items)
	fmt.Printf("host: nproc %d  GOMAXPROCS %d  %s  commit %s  kernel %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel)
	fmt.Printf("%-38s %16s %-6s %16s %16s %6s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, spec := range specsFor(res.Traced) {
		if s, ok := res.Metrics[spec.Name]; ok {
			fmt.Printf("%-38s %16.6g %-6s %16.6g %16.6g %6d\n", spec.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	for _, w := range res.Warnings {
		fmt.Println("warning:", w)
	}
	fmt.Printf("operations: attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// printDriverLine prints the one-line JSON object the driver reads.
func printDriverLine(correct bool, attempted, failed int64, metrics map[string]summary) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, max(attempted, 1), failed, map[string]mv{}}
	for k, s := range metrics {
		line.Metrics[k] = mv{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
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

// runChild measures one workload in a fresh OS process — so that peak RSS
// and the allocation counters are the workload's own — and reads back its
// result. show passes the child's table through to stdout.
func runChild(name string, seed int64, seconds float64, traced, show bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, fmt.Sprintf(".result-%d-%s.json", os.Getpid(), name))
	defer os.Remove(tmp)
	t := 0
	if traced {
		t = 1
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t), "-out", tmp)
	cmd.Stderr = os.Stderr
	if show {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	res := new(result)
	if err := json.Unmarshal(b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runAll runs every workload, one process each, and prints one combined
// driver line with metrics named <workload>/<metric>.
func runAll(seed int64, seconds float64, traced bool, out string) int {
	var results []*result
	combined := map[string]summary{}
	correct := true
	var attempted, failed int64
	for _, spec := range workloadSpecs {
		res, err := runChild(spec.Name, seed, seconds, traced, true)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		results = append(results, res)
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for k, s := range res.Metrics {
			combined[spec.Name+"/"+k] = s
		}
	}
	if out != "" {
		if err := writeJSON(out, results); err != nil {
			fatal(err)
		}
	}
	printDriverLine(correct, attempted, failed, combined)
	if !correct {
		return 1
	}
	return 0
}

// runSet is one full untraced set: workload name -> result.
func runSet(workloads []workloadSpec, label string, seed int64, seconds float64) map[string]*result {
	set := map[string]*result{}
	for _, spec := range workloads {
		t0 := time.Now()
		res, err := runChild(spec.Name, seed, seconds, false, false)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			fatal(fmt.Errorf("%s: run is not correct: %s", spec.Name, res.Error))
		}
		fmt.Printf("# set %s  %-16s seed %d  job_s %.3f  (%.1f s)\n", label, spec.Name, seed, res.Metrics["job_s"].Value, time.Since(t0).Seconds())
		set[spec.Name] = res
	}
	return set
}

// runAgree runs two full sets of the same code and seed back to back and
// compares their medians, per workload and end-to-end metric, against the
// metric's bound. Exit 1 when any pair is further apart.
func runAgree(workloads []workloadSpec, seed int64, seconds float64) int {
	h := readHost()
	fmt.Printf("# agree: nproc %d  GOMAXPROCS %d  %s  commit %s  kernel %s  seed %d  seconds %g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel, seed, seconds)
	a := runSet(workloads, "A", seed, seconds)
	b := runSet(workloads, "B", seed, seconds)
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "")
	bad := 0
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra.Items != rb.Items {
			fmt.Printf("warning: %s: same seed, different item counts: %d vs %d\n", w.Name, ra.Items, rb.Items)
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(va-vb) / va
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %7.2f%% %7.2f%%  %s\n", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("agree: %d pairs exceed their bound\n", bad)
		return 1
	}
	fmt.Println("agree: every pair within its bound")
	return 0
}

// runSpread runs n seeds per workload and reports, per end-to-end metric,
// the distance between the first and third quartile as a share of the
// median — the quantity the benchmark's acceptance is defined on. It should
// stay below a third of the bound. Exit 1 when a spread exceeds its bound.
func runSpread(workloads []workloadSpec, seed int64, seconds float64, n int) int {
	h := readHost()
	fmt.Printf("# spread: nproc %d  GOMAXPROCS %d  %s  commit %s  kernel %s  seeds %d..%d  seconds %g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-16s %-22s %14s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	bad := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runChild(w.Name, seed+int64(i), seconds, false, false)
			if err != nil {
				fatal(err)
			}
			if !res.Correct {
				fatal(fmt.Errorf("%s seed %d: run is not correct: %s", w.Name, seed+int64(i), res.Error))
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
		}
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && !(spread <= m.Bound):
				verdict = "EXCEEDS"
				bad++
			case !(spread <= m.Bound/3):
				verdict = "above a third of the bound"
			}
			fmt.Printf("%-16s %-22s %14.6g %7.2f%% %7.2f%%  %s\n", w.Name, m.Name, q2, 100*spread, 100*m.Bound, verdict)
		}
		for _, m := range endToEnd {
			fmt.Printf("# %s %s by seed: %.5g\n", w.Name, m.Name, values[m.Name])
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
