package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test holds the program to.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs all five workloads, untraced and traced, on shrunken
// universes for a hundredth of the pinned run length, and requires the
// names and units the program emits to be exactly the ones BENCHMARK.json
// declares, every check to have run and passed, and the driver's result
// line to parse.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2 to 8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1 to 16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1 to 128", n)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for i, m := range d.EndToEnd {
		units[false][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEnd) && (metricDef{m.Name, m.Unit, m.Better, m.Bound}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json declares %+v, the program %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range d.PerLayer {
		units[true][m.Name] = m.Unit
		if i < len(perLayer) && (metricDef{m.Name, m.Unit, m.Better, 0}) != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json declares %+v, the program %+v", i, m, perLayer[i])
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d + %d metrics, the program %d + %d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	if units[false]["setup_s"] != "s" {
		t.Error("setup_s with unit s must be an end-to-end metric")
	}
	for _, byName := range units {
		for n := range byName {
			if !name.MatchString(n) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", n)
			}
		}
	}

	all := specs()
	if len(all) != len(d.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(all), len(d.Workloads))
	}
	for i, sp := range all {
		if w := d.Workloads[i]; sp.name != w.Name || sp.why != w.Why || !name.MatchString(sp.name) || len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %d: program has %q (%q), BENCHMARK.json %q (%q)", i, sp.name, sp.why, w.Name, w.Why)
		}
		sp.wcfg.NumAdvertisers, sp.wcfg.NumPhrases, sp.wcfg.NumTopics = 160, 12, 3
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, seconds: float64(d.RunSeconds) / 100, trace: traced, outDir: t.TempDir()}
			var out, errOut bytes.Buffer
			if code := runOne(sp, rc, 1, &out, &errOut); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s%s", sp.name, traced, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricJSON
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if sp.loop == loopRounds && strings.Contains(out.String(), "verify_s 0.000") {
				t.Errorf("%s traced=%v: the oracle pass left no verify_s", sp.name, traced)
			}
			var got, want []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", sp.name, n)
				}
			}
			for n, u := range units[traced] {
				want = append(want, n+" "+u)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s traced=%v: emitted metrics differ from BENCHMARK.json\nemitted:  %v\ndeclared: %v", sp.name, traced, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
}

func TestSupportedTail(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 0.5, 100: 0.9, 1000: 0.99, 99999: 0.999, 100000: 0.9999} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %v, want %v", n, got, want)
		}
	}
}
