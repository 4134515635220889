// Package server is the online serving layer the paper's introduction
// frames but the offline engine cannot provide by itself: queries arrive
// continuously and concurrently, are batched into rounds to create sharing
// opportunity, and must be answered within user-tolerable latency
// (Sears–Jacko–Borella: median ≤ 2.2 s tolerated, ≥ 3.6 s too long — see
// internal/batching).
//
// The serving unit is Worker: one bounded admission queue feeding one
// round loop pinned to one single-goroutine core.Engine:
//
//	callers ──SubmitAsync──▶ bounded admission queue ──▶ round loop ──▶ Engine.Resolve
//	   ▲                          (shed when full)          │    ticker ──▶ Engine.Tick
//	   └──────────── per-item Completion ◀──────────────────┘
//
// Time and batches are separate. The RoundInterval ticker is the clock:
// each tick advances the engine's round (Engine.Tick: pacer sync, lifecycle
// events, delayed clicks and their charges) and walks the bids. A batch is
// whatever the loop holds when it falls idle: the loop drains the queue,
// yields once, and resolves (Engine.Resolve) as soon as a yield brings
// nothing new, or at once when MaxBatch requests are pending. So a request
// is answered as soon as the loop is free, not at the next tick, and
// several batches can share one round. A tick resolves whatever is pending
// with it, so a loop that never falls idle still answers within one
// interval.
//
// Server is the single-engine front end over one worker: raw query strings
// are admitted concurrently, mapped to bid phrases with workload.Matcher,
// and resolved in the batch the loop closes next. The shard package runs
// one worker per engine shard behind the same contract to scale across
// cores.
// Backpressure is ErrOverloaded when the queue is full; per-request
// deadlines come from context.Context. Close stops admission, resolves
// in-flight requests in a final round, drains the engine's outstanding
// clicks, and stops every goroutine the server started.
//
// Observability is the Metrics type — counters, queue occupancy, and
// per-stage latency distributions with exact means and histogram quantiles
// — which merges across workers (Metrics.Merge) into fleet-wide views and
// carries the stable snake_case JSON schema the network tier serves.
// Config.OnRound additionally streams one RoundSummary per non-empty batch
// to a live feed (the netserve WebSocket hub subscribes through it).
//
// Thread safety: Server is safe for concurrent use — any number of
// goroutines may call Submit, Metrics, and Snapshot while the round loop
// runs. The wrapped Engine, Workload, and Matcher are owned by the server
// once New returns and must not be used concurrently by the caller.
package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/workload"
)

// Config parameterizes a round worker (and hence the single-worker Server).
// The zero value is not valid; start from DefaultConfig.
type Config struct {
	// Engine configures the wrapped winner-determination engine, which
	// NewWorker builds once for the worker's whole life.
	Engine core.Config
	// RoundInterval is the engine's clock: every tick advances its round,
	// which ages outstanding ads, delivers delayed clicks, syncs the pacer
	// and applies lifecycle events, and it walks the bids. Batches do not
	// wait for it — the loop resolves whatever it holds as soon as it is
	// idle — but a tick also resolves whatever is pending, so it bounds how
	// long a busy loop can hold a request. It also sets the latency
	// histograms' upper bound, 10× RoundInterval: slower observations are
	// clamped into the top bucket, biasing high quantiles toward the bound.
	RoundInterval time.Duration
	// MaxBatch closes a batch at once when this many requests are pending,
	// bounding batch size under load. 0 disables the size threshold
	// (batches close when the loop is idle, or at the next tick).
	MaxBatch int
	// QueueDepth bounds the admission queue; a Submit arriving when the
	// queue holds QueueDepth requests is shed with ErrOverloaded.
	QueueDepth int
	// BidWalkScale, when positive, applies one step of the workload's
	// multiplicative bid random walk at every tick, modeling the automated
	// bidding programs the paper assumes run between rounds. Bids drift
	// with time, not with batches.
	BidWalkScale float64

	// BeforeResolve, when set, runs on the round loop immediately before
	// each Engine.Resolve, which only a batch with a live request runs. It
	// is test instrumentation: blocking in it makes the loop dwell, so
	// admission-queue backpressure, deadlines passing while a request
	// waits, and shutdown under full queues can be exercised
	// deterministically (see the soak tests). Leave nil in production
	// configurations.
	BeforeResolve func()

	// ShardID labels the RoundSummary events this worker emits (the sharded
	// server numbers its workers); it does not affect serving. 0 for a
	// single-engine server.
	ShardID int

	// OnRound, when set, is called on the round loop goroutine after every
	// non-empty batch closes, with that batch's summary. It feeds live
	// dashboards (the network tier's WebSocket hub subscribes here). The
	// callback runs between batches, so it must be fast and must never
	// block; hand the summary off to a buffered channel or drop it.
	OnRound func(RoundSummary)

	// Pacing, when non-nil, turns on the online budget-pacing controller:
	// Server.New (and shard.New, for a fleet) builds one budget.Pacer over
	// the budget authority and attaches it to every engine, so advertiser
	// bids are throttled toward a smooth spend curve over Pacing.Horizon
	// rounds instead of exhausting budgets front-loaded. See
	// internal/budget.PacerConfig. The pacer replays the budget-refresh
	// epochs of Engine.Lifecycle, the one lifecycle schedule, whose
	// join/leave events the engines replay.
	Pacing *budget.PacerConfig
}

// RoundSummary is the per-batch event the round loop publishes through
// Config.OnRound: which batch just closed in which round on which shard,
// how much traffic it carried, and the worker's running totals a live
// dashboard wants next to it. The snake_case JSON tags are the WebSocket round feed's wire
// schema. Latency quantiles are in seconds, over the worker's lifetime
// total-latency distribution (matching Metrics.TotalLatency).
type RoundSummary struct {
	// Shard is the emitting worker's Config.ShardID.
	Shard int `json:"shard"`
	// Round is the engine round the batch was resolved in (shard-local);
	// several batches can share one round.
	Round int `json:"round"`
	// Queries is the number of live queries answered in this batch;
	// Expired the abandoned ones skipped (context already done).
	Queries int `json:"queries"`
	Expired int `json:"expired"`
	// Shed is the worker's cumulative admission-shed count at batch close.
	Shed int64 `json:"shed"`
	// P50 and P95 are the worker's lifetime total-latency quantiles
	// (seconds) as of this round.
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
}

// DefaultConfig returns a serving configuration suited to the synthetic
// workloads: 5 ms rounds, early close at 256 pending, 4096-deep queue, and
// the engine's default (GSP, throttled, shared) configuration.
func DefaultConfig() Config {
	return Config{
		Engine:        core.DefaultConfig(),
		RoundInterval: 5 * time.Millisecond,
		MaxBatch:      256,
		QueueDepth:    4096,
	}
}

// Validate reports whether the serving configuration is usable.
func (c Config) Validate() error {
	if c.RoundInterval <= 0 {
		return fmt.Errorf("server: non-positive round interval %v", c.RoundInterval)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("server: non-positive queue depth %d", c.QueueDepth)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("server: negative max batch %d", c.MaxBatch)
	}
	if c.BidWalkScale < 0 {
		return fmt.Errorf("server: negative bid walk scale %v", c.BidWalkScale)
	}
	if c.Pacing != nil {
		if err := c.Pacing.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is one answered query: the auction outcome of the phrase the query
// matched, in the round that served it. Slots is an independent copy — it
// remains valid after later rounds.
type Result struct {
	// Phrase is the bid-phrase ID the query matched. On the single-engine
	// Server this is the workload's phrase ID; on the sharded server it is
	// the global phrase ID (the shard's local ID is translated back).
	Phrase int
	// Shard is the engine shard that served the query; always 0 on the
	// single-engine Server.
	Shard int
	// Round is the engine round the auction was resolved in: the tick,
	// which several batches — and so several auctions of one phrase — can
	// share. It is shard-local under sharding: each shard counts its own
	// rounds.
	Round int
	// Slots is the auction's slot assignment with per-click prices; empty
	// when no advertiser placed a positive effective bid.
	Slots []core.SlotResult
	// AdmissionWait is time spent in the admission queue; RoundWait is time
	// waiting for the batch to close after dequeue; Latency is the total
	// Submit-to-answer duration including winner determination.
	AdmissionWait, RoundWait, Latency time.Duration
}

// Server is a long-lived, concurrent round server over a single workload:
// a query matcher in front of one Worker. It is safe for concurrent use by
// multiple goroutines.
type Server struct {
	worker  *Worker
	matcher *workload.Matcher
	pacer   *budget.Pacer

	unmatched atomic.Int64
}

// New builds the engine for the workload and starts the round loop. The
// server takes ownership of the workload: the caller must not mutate or
// step it while the server runs. Close must be called to release the loop.
//
// When cfg.Pacing is set, New builds the pacing controller over the
// engine's ledger — installing a budget.Ledger as Engine.Ledger first if
// the caller didn't supply one, since refresh epochs need a depositable
// ledger and the pacer reads which advertisers were charged from it — over
// cfg.Engine.Lifecycle's refresh epochs. A caller-supplied Engine.Ledger
// that is not a *budget.Ledger is an error rather than silently replaced.
func New(w *workload.Workload, cfg Config) (*Server, error) {
	var pacer *budget.Pacer
	if cfg.Pacing != nil {
		budgets := make([]float64, len(w.Advertisers))
		for i, a := range w.Advertisers {
			budgets[i] = a.Budget
		}
		var ledger *budget.Ledger
		switch l := cfg.Engine.Ledger.(type) {
		case nil:
			ledger = budget.NewLedger(budgets)
			cfg.Engine.Ledger = ledger
		case *budget.Ledger:
			ledger = l
		default:
			return nil, fmt.Errorf("server: pacing needs Engine.Ledger to be a *budget.Ledger, not %T", l)
		}
		var err error
		pacer, err = budget.NewPacer(ledger, budgets, *cfg.Pacing, cfg.Engine.Lifecycle)
		if err != nil {
			return nil, err
		}
		cfg.Engine.Pacer = pacer
	}
	worker, err := NewWorker(w, cfg)
	if err != nil {
		return nil, err
	}
	return &Server{worker: worker, matcher: workload.NewMatcher(w.PhraseNames), pacer: pacer}, nil
}

// Pacer returns the server's pacing controller, nil when pacing is off.
func (s *Server) Pacer() *budget.Pacer { return s.pacer }

// Matcher exposes the server's query-to-phrase matcher so callers can
// register rewrites (synonyms) before serving traffic. Matcher.AddRewrite
// is not safe concurrently with Submit; configure rewrites first.
func (s *Server) Matcher() *workload.Matcher { return s.matcher }

// Submit admits one raw query and blocks until its round resolves, the
// context is done, or the server refuses it — the package's Submit over
// this server. Errors: serr.ErrNoAuction (query matches no bid phrase),
// serr.ErrOverloaded (admission queue full — the backpressure signal),
// serr.ErrClosed, or ctx.Err() once the deadline expires. Safe for
// concurrent use.
func (s *Server) Submit(ctx context.Context, query string) (Result, error) {
	return Submit(ctx, s, query)
}

// SubmitBatch admits many raw queries at once and blocks until every one
// resolves or fails — the package's SubmitBatch over this server. The
// returned slice always has len(queries); the error is nil when all
// succeeded, otherwise it joins one *serr.ItemError per failed query
// (expand with serr.SplitBatch). Safe for concurrent use.
func (s *Server) SubmitBatch(ctx context.Context, queries []string) ([]Result, error) {
	results, errs := SubmitBatch(ctx, s, queries)
	return results, serr.JoinBatch(errs)
}

// SubmitAsync admits a batch of queries — the Backend contract, and the one
// way into the server: no blocking, no per-query goroutine, outcomes
// delivered exactly once through each item's Completion (synchronously for
// refusals: ErrNoAuction, ErrOverloaded, ErrClosed; from the round loop
// otherwise). Safe for concurrent use.
func (s *Server) SubmitAsync(items []AsyncItem) {
	now := time.Now()
	for i := range items {
		it := &items[i]
		phrase, ok := s.matcher.Match(it.Query)
		if !ok {
			s.unmatched.Add(1)
			it.Done.Complete(it.Index, Result{}, serr.ErrNoAuction)
			continue
		}
		s.worker.SubmitPhraseAsync(phrase, phrase, it.Deadline, now, it.Done, it.Index)
	}
}

// Close stops admission, resolves every in-flight request in a final round,
// drains the engine's outstanding clicks (so end-of-day budget accounting
// is complete), and waits for the round loop to exit. It is idempotent and
// safe to call concurrently.
func (s *Server) Close() { s.worker.Close() }

// Metrics returns the server's current observability counters and latency
// distributions. Safe for concurrent use with Submit and the round loop.
func (s *Server) Metrics() Metrics {
	m := s.worker.Metrics()
	m.Unmatched = s.unmatched.Load()
	m.Submitted += m.Unmatched // unmatched queries never reach the worker
	if s.pacer != nil {
		m.Pacing = s.pacer.Metrics()
	}
	return m
}
