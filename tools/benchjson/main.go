// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark numbers can be committed and diffed
// across PRs (see `make bench-json`).
//
// Each benchmark line becomes one record with the standard ns/op, B/op and
// allocs/op fields plus any custom b.ReportMetric units (e.g.
// "aggOps/auction"). Non-benchmark lines (goos/goarch/cpu headers, PASS/ok)
// are captured as environment metadata or ignored.
//
// With -compare old.json, the fresh run on stdin is instead diffed against
// the committed baseline: every benchmark present in both gets a per-name
// ns/op delta line, and the command exits nonzero if any benchmark regressed
// by more than -threshold (default 0.20 = 20%); a recorded `queries/sec`
// metric is likewise gated, failing when the fresh value falls more than
// the threshold below the baseline's. allocs/op is gated in
// absolute terms — allocation counts are near-deterministic, so a fresh
// count at least one whole allocation AND threshold-fraction above the
// baseline fails (a 0→1 step on a zero baseline also fails). Benchmarks
// present on only one side are reported but never fail the comparison, so
// adding or renaming benchmarks does not break the CI gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  *float64           `json:"bytes_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []result `json:"results"`
}

func main() {
	comparePath := flag.String("compare", "", "baseline JSON to diff the fresh run against (no JSON output in this mode)")
	threshold := flag.Float64("threshold", 0.20, "fractional ns/op regression that fails -compare (0.20 = 20%)")
	flag.Parse()

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *comparePath != "" {
		old, err := loadDoc(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !compare(os.Stdout, old, doc, *threshold) {
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output into a document.
func parseBench(in io.Reader) (document, error) {
	doc := document{Results: []result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// loadDoc reads a previously committed benchjson document.
func loadDoc(path string) (document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compare prints a per-benchmark ns/op delta report of fresh against old and
// reports whether the run is acceptable: no benchmark present in both
// documents may regress by more than threshold. Only intersecting names are
// judged; one-sided benchmarks are listed as informational.
func compare(w io.Writer, old, fresh document, threshold float64) bool {
	oldBy := make(map[string]result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(fresh.Results))
	freshBy := make(map[string]result, len(fresh.Results))
	for _, r := range fresh.Results {
		names = append(names, r.Name)
		freshBy[r.Name] = r
	}
	sort.Strings(names)

	ok := true
	for _, name := range names {
		nw := freshBy[name]
		od, found := oldBy[name]
		if !found {
			fmt.Fprintf(w, "  new   %-60s %12.0f ns/op (no baseline)\n", name, nw.NsPerOp)
			continue
		}
		if od.NsPerOp <= 0 {
			continue
		}
		delta := nw.NsPerOp/od.NsPerOp - 1
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "  %-5s %-60s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			verdict, name, od.NsPerOp, nw.NsPerOp, 100*delta)
		// Throughput is a bigger-is-better metric: gate drops, not rises.
		if oldQ, freshQ := od.Metrics["queries/sec"], nw.Metrics["queries/sec"]; oldQ > 0 && freshQ > 0 {
			verdict := "ok"
			if 1-freshQ/oldQ > threshold {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "  %-5s %-60s %12.0f -> %12.0f queries/sec (%+.1f%%)\n",
				verdict, name, oldQ, freshQ, 100*(freshQ/oldQ-1))
		}
		// Allocation counts are near-deterministic, so gate them absolutely:
		// at least one whole extra allocation AND beyond the fractional
		// threshold (so a 3→4 step fails at 20% but a 100→101 step passes).
		if od.AllocsPerOp != nil && nw.AllocsPerOp != nil {
			oldA, freshA := *od.AllocsPerOp, *nw.AllocsPerOp
			if freshA != oldA {
				verdict := "ok"
				if freshA >= oldA+1 && freshA > oldA*(1+threshold) {
					verdict = "REGRESSION"
					ok = false
				}
				fmt.Fprintf(w, "  %-5s %-60s %12.0f -> %12.0f allocs/op\n",
					verdict, name, oldA, freshA)
			}
		}
	}
	for _, r := range old.Results {
		if _, found := freshBy[r.Name]; !found {
			fmt.Fprintf(w, "  gone  %-60s %12.0f ns/op (not in fresh run)\n", r.Name, r.NsPerOp)
		}
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression beyond %.0f%% threshold\n", 100*threshold)
	}
	return ok
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   9 B/op   0 allocs/op   1.5 unit
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			v := val
			r.BytesPerOp = &v
		case "allocs/op":
			v := val
			r.AllocsPerOp = &v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}
