package server

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/stats"
)

func distOf(lo, hi float64, xs ...float64) LatencyDist {
	d := LatencyDist{Hist: stats.NewHistogram(lo, hi, 64)}
	for _, x := range xs {
		d.Summary.Add(x)
		d.Hist.Add(x)
	}
	return d
}

func TestLatencyDistMerge(t *testing.T) {
	a := distOf(0, 1, 0.1, 0.2, 0.3)
	b := distOf(0, 1, 0.4, 0.9)
	m := a.Merge(b)
	if m.Count() != 5 {
		t.Fatalf("Count = %d, want 5", m.Count())
	}
	if want := (0.1 + 0.2 + 0.3 + 0.4 + 0.9) / 5; math.Abs(m.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", m.Mean(), want)
	}
	if m.Max() != 0.9 {
		t.Fatalf("Max = %v, want 0.9", m.Max())
	}
	if m.Hist.N() != 5 {
		t.Fatalf("merged hist N = %d, want 5", m.Hist.N())
	}
	// Operands are untouched (Merge clones).
	if a.Count() != 3 || a.Hist.N() != 3 || b.Hist.N() != 2 {
		t.Fatal("Merge mutated an operand")
	}
	// Zero-value distributions are identity elements.
	var zero LatencyDist
	if got := zero.Merge(a); got.Count() != 3 || got.Hist.N() != 3 {
		t.Fatalf("zero.Merge = %+v", got)
	}
	if got := a.Merge(zero); got.Count() != 3 {
		t.Fatalf("a.Merge(zero) = %+v", got)
	}
	if got := zero.Merge(zero); got.Count() != 0 || got.P95() != 0 {
		t.Fatalf("zero.Merge(zero) = %+v", got)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{
		Uptime: 2 * time.Second, Submitted: 10, Answered: 8, Unmatched: 1,
		Shed: 1, Rounds: 4, EmptyRounds: 1, QueueDepth: 2, QueueCap: 16,
		TotalLatency: distOf(0, 1, 0.1, 0.2),
		Engine:       core.Stats{Rounds: 4, Revenue: 3.5, ClicksCharged: 2, NodesMaterialized: 3},
	}
	b := Metrics{
		Uptime: 3 * time.Second, Submitted: 20, Answered: 19, TimedOut: 1,
		Rounds: 6, QueueDepth: 1, QueueCap: 16,
		TotalLatency: distOf(0, 1, 0.4),
		Engine:       core.Stats{Rounds: 6, Revenue: 1.5, AdsDisplayed: 7, NodesMaterialized: 4},
	}
	m := a.Merge(b)
	if m.Uptime != 3*time.Second {
		t.Fatalf("Uptime = %v, want max (3s)", m.Uptime)
	}
	if m.Submitted != 30 || m.Answered != 27 || m.Unmatched != 1 || m.Shed != 1 || m.TimedOut != 1 {
		t.Fatalf("counters wrong: %+v", m)
	}
	if m.Rounds != 10 || m.EmptyRounds != 1 || m.QueueDepth != 3 || m.QueueCap != 32 {
		t.Fatalf("round/queue counters wrong: %+v", m)
	}
	if want := 27.0 / 3.0; math.Abs(m.QueriesPerSec-want) > 1e-9 {
		t.Fatalf("QueriesPerSec = %v, want %v", m.QueriesPerSec, want)
	}
	if want := 10.0 / 3.0; math.Abs(m.RoundsPerSec-want) > 1e-9 {
		t.Fatalf("RoundsPerSec = %v, want %v", m.RoundsPerSec, want)
	}
	if m.TotalLatency.Count() != 3 {
		t.Fatalf("TotalLatency.Count = %d, want 3", m.TotalLatency.Count())
	}
	if m.Engine.Rounds != 10 || math.Abs(m.Engine.Revenue-5) > 1e-12 ||
		m.Engine.ClicksCharged != 2 || m.Engine.AdsDisplayed != 7 || m.Engine.NodesMaterialized != 7 {
		t.Fatalf("engine stats wrong: %+v", m.Engine)
	}

}

// TestMetricsJSONRoundTrip is the wire contract behind /v1/stats and the
// WebSocket feed: a marshaled Metrics decodes back into an equal Metrics —
// latency distributions, quantiles and all — so replicas'
// stats can be fetched over HTTP, decoded, and re-merged exactly.
func TestMetricsJSONRoundTrip(t *testing.T) {
	m := Metrics{
		Uptime: 90 * time.Second, Submitted: 100, Answered: 80, Unmatched: 5,
		Shed: 10, TimedOut: 3, Expired: 2, QueueDepth: 7, QueueCap: 64,
		Rounds: 40, EmptyRounds: 4, RoundsPerSec: 0.44, QueriesPerSec: 0.88,
		AdmissionWait:       distOf(0, 1, 0.001, 0.002),
		RoundWait:           distOf(0, 1, 0.003),
		WinnerDetermination: distOf(0, 1, 0.0004, 0.0005, 0.0006),
		TotalLatency:        distOf(0, 1, 0.01, 0.02, 0.03, 0.9),
		Engine: core.Stats{
			Rounds: 40, AuctionsResolved: 75, NodesMaterialized: 1234,
			Candidates: 640, ShortAuctions: 2, Scored: 700,
			Revenue: 78.25, ClicksCharged: 31, ClicksForgiven: 2,
			ForgivenValue: 1.5, AdsDisplayed: 200,
		},
		Pacing: budget.PacingMetrics{
			Enabled: true, Advertisers: 200, Active: 180, Rounds: 40, Epochs: 2, Stepped: 144,
			TargetSpend: 55.5, ActualSpend: 54.25, FactorSum: 120.5, Throttled: 33,
		},
	}
	m.Pacing.AbsError.Add(0.4)
	m.Pacing.AbsError.Add(0.2)

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the stable snake_case schema.
	for _, key := range []string{
		`"uptime_ns":90000000000`, `"submitted":100`, `"timed_out":3`,
		`"queue_depth":7`, `"queries_per_sec":0.88`, `"admission_wait"`,
		`"winner_determination"`, `"total_latency"`, `"auctions_resolved":75`,
		`"nodes_materialized":1234`, `"candidates":640`, `"short_auctions":2`, `"scored":700`, `"pacing"`, `"enabled":true`, `"target_spend":55.5`,
		`"actual_spend":54.25`, `"factor_sum":120.5`, `"throttled":33`, `"stepped":144`,
		`"abs_error"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("wire schema missing %s in %s", key, data)
		}
	}
	// The deleted cross-round cache's and plan replanner's keys must stay
	// off the wire.
	for _, key := range []string{
		`"nodes_cached"`, `"cache_bypassed_rounds"`,
		`"observed"`, `"plan_swaps"`, `"replan_builds"`, `"replan_failed"`,
		`"plan_swap_latency"`, `"replan_build_latency"`,
	} {
		if strings.Contains(string(data), key) {
			t.Errorf("wire schema still carries %s in %s", key, data)
		}
	}

	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Uptime != m.Uptime || back.Submitted != m.Submitted ||
		back.Answered != m.Answered || back.Shed != m.Shed ||
		back.Engine != m.Engine {
		t.Fatalf("counters did not round-trip:\n got %+v\nwant %+v", back, m)
	}
	if back.TotalLatency.Count() != m.TotalLatency.Count() ||
		back.TotalLatency.Mean() != m.TotalLatency.Mean() ||
		back.TotalLatency.P95() != m.TotalLatency.P95() {
		t.Fatalf("TotalLatency did not round-trip: %+v", back.TotalLatency)
	}
	if back.WinnerDetermination.P50() != m.WinnerDetermination.P50() {
		t.Fatal("WinnerDetermination quantiles did not round-trip")
	}
	if back.Pacing != m.Pacing {
		t.Fatalf("Pacing did not round-trip:\n got %+v\nwant %+v", back.Pacing, m.Pacing)
	}

	// The decoded distributions keep merging exactly: Merge of decoded
	// metrics equals decoding a Merge.
	merged := m.Merge(m)
	backMerged := back.Merge(back)
	if merged.TotalLatency.Count() != backMerged.TotalLatency.Count() ||
		merged.TotalLatency.P95() != backMerged.TotalLatency.P95() {
		t.Fatal("merge after round trip diverged")
	}
}
