package server

import (
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/stats"
)

// LatencyDist is one pipeline stage's latency distribution (seconds): an
// exact streaming summary (count, mean, min, max) plus the bucketed
// histogram quantiles are estimated from. The zero value is an empty
// distribution. Merge combines distributions from different workers, so a
// sharded server's fleet-wide P95 is computed over the union of samples,
// not averaged per shard.
//
// The JSON tags (with the custom codecs on stats.Summary and
// stats.Histogram) are the stable wire schema: a marshal/unmarshal round
// trip reproduces the distribution exactly, including its quantiles, so
// /v1/stats consumers can re-merge distributions fetched from different
// replicas.
type LatencyDist struct {
	// Summary carries the exact count, mean, min, max, and variance.
	Summary stats.Summary `json:"summary"`
	// Hist is the bucketed distribution behind Quantile; nil when empty.
	Hist *stats.Histogram `json:"hist,omitempty"`
}

// Count returns the number of observations.
func (d LatencyDist) Count() int { return d.Summary.N() }

// Mean returns the exact mean (0 when empty).
func (d LatencyDist) Mean() float64 { return d.Summary.Mean() }

// Max returns the exact maximum (0 when empty).
func (d LatencyDist) Max() float64 { return d.Summary.Max() }

// Quantile estimates the q-quantile from the histogram (0 when empty).
func (d LatencyDist) Quantile(q float64) float64 {
	if d.Hist == nil {
		return 0
	}
	return d.Hist.Quantile(q)
}

// P50 estimates the median.
func (d LatencyDist) P50() float64 { return d.Quantile(0.5) }

// P95 estimates the 95th percentile.
func (d LatencyDist) P95() float64 { return d.Quantile(0.95) }

// Merge returns the distribution of the union of both sample streams. The
// summary combine is exact; histogram counts merge bucket-wise when the
// geometries match (they do whenever the workers share a config) and by
// midpoint re-adding otherwise. Neither operand is mutated.
func (d LatencyDist) Merge(o LatencyDist) LatencyDist {
	out := d
	out.Summary.Merge(o.Summary)
	switch {
	case d.Hist == nil && o.Hist == nil:
		out.Hist = nil
	case d.Hist == nil:
		out.Hist = o.Hist.Clone()
	default:
		out.Hist = d.Hist.Clone()
		out.Hist.Merge(o.Hist)
	}
	return out
}

// Metrics is the unified observability view across the serving stack: one
// type carries the admission counters, queue occupancy, round/throughput
// rates, per-stage latency distributions, and the engine's lifetime
// counters — whether they describe one core.Engine, one server.Worker, or
// a whole sharded fleet. Merge aggregates worker metrics into fleet
// metrics.
//
// The snake_case JSON tags are the stable wire schema shared by the
// network tier's /v1/stats endpoint and the Prometheus exposition's metric
// names; a marshaled Metrics unmarshals back into an equal Metrics
// (latency distributions included), so replicas' stats can be fetched,
// decoded, and re-merged.
type Metrics struct {
	// Uptime is the time since the (oldest merged) worker started,
	// marshaled as integer nanoseconds.
	Uptime time.Duration `json:"uptime_ns"`

	// Admission counters. Every submitted query has exactly one outcome:
	// Submitted = Answered + Unmatched + Shed + TimedOut + Expired + in
	// flight, so the five outcomes sum to Submitted once the server has
	// drained. TimedOut requests were dropped at a round close because their
	// blocking caller had already returned on its ctx; Expired ones because
	// their deadline had passed. A query refused by a closed server is not
	// counted at all.
	Submitted int64 `json:"submitted"`
	Answered  int64 `json:"answered"`
	Unmatched int64 `json:"unmatched"`
	Shed      int64 `json:"shed"`
	TimedOut  int64 `json:"timed_out"`
	Expired   int64 `json:"expired"`

	// QueueDepth is the current admission-queue occupancy summed across
	// workers; QueueCap the summed bound.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	// Rounds counts closes across workers: every resolved batch, plus every
	// tick that found nothing pending. EmptyRounds counts the closes that
	// answered no request: those ticks, and the rare batch whose every
	// request had expired or been abandoned. With batches resolved as soon
	// as a loop is idle, one engine round (Engine.Rounds counts those) can
	// hold many closes. RoundsPerSec and QueriesPerSec are lifetime rates
	// over Uptime.
	Rounds        int64   `json:"rounds"`
	EmptyRounds   int64   `json:"empty_rounds"`
	RoundsPerSec  float64 `json:"rounds_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	// Per-stage latency (seconds): time in the admission queue, time
	// waiting for the batch to close, winner-determination time
	// (Engine.Resolve) per resolved batch, and total submit-to-answer
	// latency.
	AdmissionWait       LatencyDist `json:"admission_wait"`
	RoundWait           LatencyDist `json:"round_wait"`
	WinnerDetermination LatencyDist `json:"winner_determination"`
	TotalLatency        LatencyDist `json:"total_latency"`

	// Engine is the engine-lifetime counter sum as of the last closed
	// round on each worker.
	Engine core.Stats `json:"engine"`

	// Pacing is the budget-pacing controller's spend-curve view: target vs
	// realized spend, throttle activity, and the per-round pacing-error
	// distribution. Zero (Enabled false) when pacing is off. On a sharded
	// fleet the controller is shared, so the shard server attaches it once
	// to the fleet view rather than per worker.
	Pacing budget.PacingMetrics `json:"pacing"`
}

// Merge returns the aggregate of two metric sets: counters and engine
// stats sum, latency distributions merge sample-exactly, Uptime is the
// larger of the two (the workers ran concurrently, not serially), and the
// lifetime rates are recomputed over it. Neither operand is mutated.
func (m Metrics) Merge(o Metrics) Metrics {
	out := m
	if o.Uptime > out.Uptime {
		out.Uptime = o.Uptime
	}
	out.Submitted += o.Submitted
	out.Answered += o.Answered
	out.Unmatched += o.Unmatched
	out.Shed += o.Shed
	out.TimedOut += o.TimedOut
	out.Expired += o.Expired
	out.QueueDepth += o.QueueDepth
	out.QueueCap += o.QueueCap
	out.Rounds += o.Rounds
	out.EmptyRounds += o.EmptyRounds
	out.AdmissionWait = m.AdmissionWait.Merge(o.AdmissionWait)
	out.RoundWait = m.RoundWait.Merge(o.RoundWait)
	out.WinnerDetermination = m.WinnerDetermination.Merge(o.WinnerDetermination)
	out.TotalLatency = m.TotalLatency.Merge(o.TotalLatency)
	out.Engine = m.Engine.Add(o.Engine)
	out.Pacing = m.Pacing.Merge(o.Pacing)
	out.RoundsPerSec, out.QueriesPerSec = 0, 0
	if sec := out.Uptime.Seconds(); sec > 0 {
		out.RoundsPerSec = float64(out.Rounds) / sec
		out.QueriesPerSec = float64(out.Answered) / sec
	}
	return out
}
