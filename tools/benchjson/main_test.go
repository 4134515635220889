package main

import (
	"strings"
	"testing"
)

func TestCompareGatesThroughputDrop(t *testing.T) {
	old := document{Results: []result{
		{Name: "BenchmarkBinaryThroughput", NsPerOp: 5000, Metrics: map[string]float64{"queries/sec": 200000}},
	}}
	// ns/op held steady (the benchmark loop is dominated by setup) but the
	// reported end-to-end throughput collapsed — the qps gate must catch it.
	fresh := document{Results: []result{
		{Name: "BenchmarkBinaryThroughput", NsPerOp: 5000, Metrics: map[string]float64{"queries/sec": 120000}},
	}}
	var buf strings.Builder
	if compare(&buf, old, fresh, 0.20) {
		t.Fatalf("compare accepted a 40%% queries/sec drop:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "queries/sec") {
		t.Fatalf("no queries/sec line in report:\n%s", buf.String())
	}
	// A within-threshold wobble passes.
	fresh.Results[0].Metrics["queries/sec"] = 170000
	buf.Reset()
	if !compare(&buf, old, fresh, 0.20) {
		t.Fatalf("compare rejected a 15%% queries/sec wobble:\n%s", buf.String())
	}
}

func TestCompareGatesAllocRegression(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	old := document{Results: []result{
		{Name: "BenchmarkServerThroughput", NsPerOp: 5000, AllocsPerOp: f(1)},
		{Name: "BenchmarkChatty", NsPerOp: 5000, AllocsPerOp: f(100)},
		{Name: "BenchmarkZero", NsPerOp: 5000, AllocsPerOp: f(0)},
	}}
	// 1 → 3 allocs on a tight benchmark fails; 100 → 101 amortization noise
	// passes; 0 → 1 on a zero-alloc benchmark fails.
	fresh := document{Results: []result{
		{Name: "BenchmarkServerThroughput", NsPerOp: 5000, AllocsPerOp: f(3)},
		{Name: "BenchmarkChatty", NsPerOp: 5000, AllocsPerOp: f(101)},
		{Name: "BenchmarkZero", NsPerOp: 5000, AllocsPerOp: f(0)},
	}}
	var buf strings.Builder
	if compare(&buf, old, fresh, 0.20) {
		t.Fatalf("compare accepted a 1->3 allocs/op regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "allocs/op") {
		t.Fatalf("no allocs/op line in report:\n%s", buf.String())
	}
	fresh.Results[0].AllocsPerOp = f(1)
	buf.Reset()
	if !compare(&buf, old, fresh, 0.20) {
		t.Fatalf("compare rejected amortization noise (100 -> 101):\n%s", buf.String())
	}
	fresh.Results[2].AllocsPerOp = f(1)
	buf.Reset()
	if compare(&buf, old, fresh, 0.20) {
		t.Fatalf("compare accepted a 0 -> 1 allocs/op step:\n%s", buf.String())
	}
}
