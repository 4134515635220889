// Command benchmark is the repository's one pinned benchmark: five
// workloads, each measured end to end with tracing off and layer by layer in
// a separate traced pass, with every output checked against an oracle. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -seed 1                      all five, untraced then traced
//	go run ./benchmark -workload serve-open -trace 1 one traced run, driver format
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is the header every output starts with: numbers mean nothing without
// the core count they were measured on.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Start      string  `json:"start"`
}

func git(args ...string) (string, bool) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err == nil
}

func readEnv(rc runConfig) env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
		CPU:        "unknown",
		Seed:       rc.seed,
		Seconds:    rc.seconds,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	// Only in a checkout that is a repository itself: git would otherwise
	// search the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if head, ok := git("rev-parse", "HEAD"); ok {
			e.Commit = head
			status, _ := git("status", "--porcelain")
			e.Dirty = status != ""
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

func (e env) print(w io.Writer) {
	dirty := ""
	if e.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s  commit %s%s\ncpu %s\nseed %d  seconds %g  start %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, dirty, e.CPU, e.Seed, e.Seconds, e.Start)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) metricsJSON() map[string]metricJSON {
	out := map[string]metricJSON{}
	for _, def := range r.defs() {
		out[def.name] = metricJSON{r.metrics[def.name].v, def.unit}
	}
	return out
}

func (r *result) print(w io.Writer) {
	pass := "untraced, end to end"
	if r.traced {
		pass = "traced, per layer"
	}
	fmt.Fprintf(w, "\n%s (%s; %s)\n", r.sp.name, pass, r.sp.loopDesc)
	for _, def := range r.defs() {
		v := r.metrics[def.name]
		samples := ""
		if v.n > 0 {
			samples = fmt.Sprintf("n=%d", v.n)
		}
		fmt.Fprintf(w, "  %-38s %16.6g %-6s %s\n", def.name, v.v, def.unit, samples)
	}
	if r.tail != "" {
		fmt.Fprintf(w, "  highest supported percentile: %s\n", r.tail)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.tracePath)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  verify_s %.3f  correct %v\n", r.attempted, r.failed, r.verifyS, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	for _, p := range r.warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", p)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run this one workload and end with the driver's one-line JSON result; empty runs all five, untraced then traced")
	seed := fs.Int64("seed", 1, "seed of every generated input; nothing else reaches the program")
	seconds := fs.Float64("seconds", 10, "how long each pass measures")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics with tracing off, 1 the per-layer metrics with tracing on")
	repeat := fs.Int("repeat", 1, "run the untraced set this many times and report the spread of every end-to-end metric")
	outDir := fs.String("out", "benchmark/out", "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	e := readEnv(rc)
	if e.GOMAXPROCS > e.NProc {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds nproc %d; the load generator would measure the scheduler\n", e.GOMAXPROCS, e.NProc)
		return 2
	}
	e.print(stdout)

	if *workloadName != "" {
		sp := findSpec(*workloadName)
		if sp == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workloadName)
			return 2
		}
		return runOne(sp, rc, *repeat, stdout, stderr)
	}
	return runAll(e, rc, *repeat, stdout, stderr)
}

// runOne is the driver's contract: one workload, one pass, and as the last
// line of standard output one JSON object.
func runOne(sp *spec, rc runConfig, repeat int, stdout, stderr io.Writer) int {
	var results []*result
	for i := 0; i < repeat; i++ {
		res, err := runWorkload(sp, rc)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.print(stdout)
		results = append(results, res)
	}
	code := 0
	if repeat > 1 && !rc.trace && !printSpreads(stdout, results) {
		code = 1
	}
	res := results[len(results)-1]
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metricsJSON(),
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		code = 1
	}
	return code
}

type workloadJSON struct {
	Name      string                `json:"name"`
	Why       string                `json:"why"`
	Loop      string                `json:"loop"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	VerifyS   float64               `json:"verify_s"`
	EndToEnd  map[string]metricJSON `json:"end_to_end"`
	PerLayer  map[string]metricJSON `json:"per_layer"`
	Problems  []string              `json:"problems,omitempty"`
	Warnings  []string              `json:"warnings,omitempty"`
}

// runAll runs every workload untraced (repeat times) and then traced, and
// ends with one JSON document. This change claims no gain.
func runAll(e env, rc runConfig, repeat int, stdout, stderr io.Writer) int {
	code := 0
	doc := struct {
		Env       env            `json:"env"`
		Claim     *string        `json:"claim"`
		Workloads []workloadJSON `json:"workloads"`
	}{Env: e}
	for _, sp := range specs() {
		var untraced []*result
		for pass := 0; pass <= repeat; pass++ {
			prc := rc
			prc.trace = pass == repeat
			res, err := runWorkload(sp, prc)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			res.print(stdout)
			if !res.correct() {
				code = 1
			}
			if !prc.trace {
				untraced = append(untraced, res)
				continue
			}
			last := untraced[len(untraced)-1]
			doc.Workloads = append(doc.Workloads, workloadJSON{
				Name: sp.name, Why: sp.why, Loop: sp.loopDesc,
				Correct:   last.correct() && res.correct(),
				Attempted: last.attempted, Failed: last.failed, VerifyS: last.verifyS,
				EndToEnd: last.metricsJSON(), PerLayer: res.metricsJSON(),
				Problems: append(append([]string(nil), last.problems...), res.problems...),
				Warnings: append(append([]string(nil), last.warnings...), res.warnings...),
			})
		}
		if repeat > 1 && !printSpreads(stdout, untraced) {
			code = 1
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	fmt.Fprintln(stdout)
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// printSpreads reports, per end-to-end metric, the median, the quartiles
// and (max − min) / median over repeated runs of one workload, and whether
// every interquartile spread stayed within the metric's bound. As in the
// driver's own check, setup_s is reported but not held to its bound: it is a
// median of a few builds, and the driver compares it between sets of runs.
func printSpreads(w io.Writer, runs []*result) bool {
	ok := true
	fmt.Fprintf(w, "\n%s: spread over %d runs of the same seed\n", runs[0].sp.name, len(runs))
	fmt.Fprintf(w, "  %-16s %14s %14s %14s %10s %10s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, def := range endToEnd {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.metrics[def.name].v)
		}
		s := sortedCopy(vals)
		med := quantile(s, 0.5)
		q1, q3 := quartiles(vals)
		iqr, rng := (q3-q1)/med, (s[len(s)-1]-s[0])/med
		verdict := ""
		if iqr > def.bound && def.name != "setup_s" {
			verdict = "  EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(w, "  %-16s %14.6g %14.6g %14.6g %10.4f %10.4f %7.2f%s\n", def.name, med, q1, q3, iqr, rng, def.bound, verdict)
	}
	return ok
}
