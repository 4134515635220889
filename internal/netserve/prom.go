package netserve

import (
	"fmt"
	"io"

	"sharedwd/internal/server"
)

// The Prometheus text exposition (format 0.0.4) of the fleet's merged
// server.Metrics. Metric names derive from the Metrics JSON schema's
// snake_case keys under the sharedwd_ prefix — counters get the _total
// suffix, the four latency stages become summary families with quantile
// labels — so the /v1/stats JSON and /v1/metrics scrape describe the same
// numbers under mechanically related names.

// promCounter writes one counter family.
func promCounter(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
}

// promGauge writes one gauge family.
func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
}

// promSummary writes one summary family from a latency distribution:
// histogram-estimated quantiles plus the exact sum and count.
func promSummary(w io.Writer, name, help string, d server.LatencyDist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{quantile=%q} %v\n", name, fmt.Sprintf("%g", q), d.Quantile(q))
	}
	fmt.Fprintf(w, "%s_sum %v\n", name, d.Mean()*float64(d.Count()))
	fmt.Fprintf(w, "%s_count %d\n", name, d.Count())
}

// edgeStats carries the network tier's own counters into the exposition,
// alongside the serving fleet's.
type edgeStats struct {
	liveConns    int
	liveDropped  int64
	raterefused  int64
	httpRequests int64
}

// writeProm renders the merged fleet metrics (plus the edge's own
// counters) in Prometheus text exposition format.
func writeProm(w io.Writer, m server.Metrics, edge edgeStats) {
	promGauge(w, "sharedwd_uptime_seconds", "Time since the oldest serving worker started.", m.Uptime.Seconds())

	promCounter(w, "sharedwd_submitted_total", "Queries submitted (answered + in flight + unmatched + shed + timed out).", float64(m.Submitted))
	promCounter(w, "sharedwd_answered_total", "Queries answered with an auction outcome.", float64(m.Answered))
	promCounter(w, "sharedwd_unmatched_total", "Queries matching no bid phrase (no auction ran).", float64(m.Unmatched))
	promCounter(w, "sharedwd_shed_total", "Queries shed by admission-queue backpressure.", float64(m.Shed))
	promCounter(w, "sharedwd_timed_out_total", "Queries whose deadline expired before their round closed.", float64(m.TimedOut))
	promCounter(w, "sharedwd_expired_total", "Admitted queries abandoned by their caller before the round closed.", float64(m.Expired))

	promGauge(w, "sharedwd_queue_depth", "Current admission-queue occupancy summed across workers.", float64(m.QueueDepth))
	promGauge(w, "sharedwd_queue_cap", "Admission-queue capacity summed across workers.", float64(m.QueueCap))

	promCounter(w, "sharedwd_rounds_total", "Engine rounds closed across workers.", float64(m.Rounds))
	promCounter(w, "sharedwd_empty_rounds_total", "Rounds closed with no live request (zero-traffic ticks).", float64(m.EmptyRounds))
	promGauge(w, "sharedwd_rounds_per_sec", "Lifetime round rate.", m.RoundsPerSec)
	promGauge(w, "sharedwd_queries_per_sec", "Lifetime answered-query rate.", m.QueriesPerSec)

	promSummary(w, "sharedwd_admission_wait_seconds", "Time spent in the admission queue.", m.AdmissionWait)
	promSummary(w, "sharedwd_round_wait_seconds", "Time waiting for the round to close after dequeue.", m.RoundWait)
	promSummary(w, "sharedwd_winner_determination_seconds", "Winner-determination time per non-empty round.", m.WinnerDetermination)
	promSummary(w, "sharedwd_total_latency_seconds", "Total submit-to-answer latency.", m.TotalLatency)

	promCounter(w, "sharedwd_engine_rounds_total", "Engine-lifetime rounds.", float64(m.Engine.Rounds))
	promCounter(w, "sharedwd_engine_auctions_resolved_total", "Auctions resolved.", float64(m.Engine.AuctionsResolved))
	promCounter(w, "sharedwd_engine_nodes_materialized_total", "Top-k aggregation operations performed.", float64(m.Engine.NodesMaterialized))
	promCounter(w, "sharedwd_engine_revenue_total", "Revenue from charged clicks.", m.Engine.Revenue)
	promCounter(w, "sharedwd_engine_clicks_charged_total", "Clicks charged against budgets.", float64(m.Engine.ClicksCharged))
	promCounter(w, "sharedwd_engine_clicks_forgiven_total", "Clicks forgiven because the budget was exhausted.", float64(m.Engine.ClicksForgiven))
	promCounter(w, "sharedwd_engine_forgiven_value_total", "Value of forgiven clicks (the paper's lost revenue).", m.Engine.ForgivenValue)
	promCounter(w, "sharedwd_engine_ads_displayed_total", "Ads displayed.", float64(m.Engine.AdsDisplayed))

	promCounter(w, "sharedwd_plan_swaps_total", "Plans hot-swapped into engines by the adaptive replanner.", float64(m.PlanSwaps))
	promCounter(w, "sharedwd_replan_builds_total", "Background plan rebuilds started.", float64(m.ReplanBuilds))
	promCounter(w, "sharedwd_replan_failed_total", "Background plan rebuilds that ended in an error.", float64(m.ReplanFailed))
	promCounter(w, "sharedwd_replan_build_seconds_total", "Background build time of the plans swapped in.", m.ReplanBuildLatency.Mean()*float64(m.ReplanBuildLatency.N()))
	promGauge(w, "sharedwd_replan_build_seconds_max", "Longest background build of a plan swapped in.", m.ReplanBuildLatency.Max())

	if m.Pacing.Enabled {
		promGauge(w, "sharedwd_pacing_advertisers", "Advertiser universe under pacing control.", float64(m.Pacing.Advertisers))
		promGauge(w, "sharedwd_pacing_active", "Advertisers currently active (joined, not left).", float64(m.Pacing.Active))
		promCounter(w, "sharedwd_pacing_rounds_total", "Pacing controller steps taken.", float64(m.Pacing.Rounds))
		promCounter(w, "sharedwd_pacing_epochs_total", "Budget-refresh epochs applied.", float64(m.Pacing.Epochs))
		promGauge(w, "sharedwd_pacing_target_spend", "Fleet target-curve spend at the last controller step.", m.Pacing.TargetSpend)
		promGauge(w, "sharedwd_pacing_actual_spend", "Fleet realized epoch spend at the last controller step.", m.Pacing.ActualSpend)
		promGauge(w, "sharedwd_pacing_throttled", "Advertisers with pacing factor below 1 at the last step.", float64(m.Pacing.Throttled))
		if m.Pacing.Active > 0 {
			promGauge(w, "sharedwd_pacing_factor_mean", "Mean pacing factor over active advertisers.", m.Pacing.FactorSum/float64(m.Pacing.Active))
		}
		promGauge(w, "sharedwd_pacing_abs_error_mean", "Mean per-advertiser |realized - target| spend per controller step.", m.Pacing.AbsError.Mean())
	}

	promGauge(w, "sharedwd_live_connections", "Current /v1/live WebSocket subscribers.", float64(edge.liveConns))
	promCounter(w, "sharedwd_live_dropped_total", "Slow /v1/live subscribers disconnected.", float64(edge.liveDropped))
	promCounter(w, "sharedwd_rate_limited_total", "Requests refused by the edge rate limiter.", float64(edge.raterefused))
	promCounter(w, "sharedwd_http_requests_total", "HTTP requests received by the edge (rate-limited included).", float64(edge.httpRequests))
}
