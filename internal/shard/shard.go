// Package shard scales the round server across cores: a Server partitions
// the bid-phrase universe over N engine shards, each a server.Worker — its
// own bounded admission queue and round loop pinned to its own
// core.Engine — so rounds for different phrase partitions close
// independently and in parallel:
//
//	        ┌─▶ worker 0: queue ─▶ round loop ─▶ Engine (phrases of shard 0) ─┐
//	Submit ─┼─▶ worker 1: queue ─▶ round loop ─▶ Engine (phrases of shard 1) ─┼─▶ budget.Ledger
//	        └─▶ worker N: queue ─▶ round loop ─▶ Engine (phrases of shard N) ─┘   (atomic TryCharge)
//
// Queries route by phrase. Each phrase's shard is fixed at construction by
// the Section II fragment partition: phrases sharing fragments co-locate,
// so that one shard's threshold pass scores their common advertisers once,
// under a cap that keeps the shards' expected loads within one average
// phrase of each other. No shard builds or runs a plan.
// Winner determination never crosses a shard — each auction's
// advertisers are evaluated on the shard owning its phrase — but
// advertiser budgets do: all shards charge clicks against one central
// budget.Ledger whose combined atomic reserve/settle keeps the Section IV
// invariant (spend ≤ budget) globally exact. The per-shard throttled bid
// uses the ledger's global remaining budget with shard-local outstanding
// ads, an approximation that errs toward over-throttling when an
// advertiser has exposure on other shards; accounting itself is never
// approximate.
//
// Thread safety: Server is safe for concurrent use — any number of
// goroutines may call Submit and Metrics while the round loops run. Close
// drains all workers concurrently.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

// Config parameterizes the sharded server. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Worker configures every shard's round loop and engine (round
	// interval, batch threshold, queue depth — each shard gets its own
	// queue of this depth). Worker.Engine.Ledger is overwritten with the
	// server's central ledger.
	Worker server.Config
	// Shards is the number of engine shards (≥ 1).
	Shards int
}

// DefaultConfig returns the per-worker DefaultConfig across one shard per
// available CPU.
func DefaultConfig() Config {
	return Config{
		Worker: server.DefaultConfig(),
		Shards: runtime.GOMAXPROCS(0),
	}
}

// Validate reports whether the sharded configuration is usable.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: non-positive shard count %d", c.Shards)
	}
	return c.Worker.Validate()
}

// Server is the multi-core serving front end: a partitioned matcher
// routing raw queries to per-shard workers, with cross-shard budgets held
// exact by a central ledger. It is safe for concurrent use by multiple
// goroutines.
type Server struct {
	cfg     Config
	workers []*server.Worker
	matcher *workload.PartitionedMatcher
	idx     *workload.PartitionIndex
	ledger  *budget.Ledger
	pacer   *budget.Pacer

	unmatched atomic.Int64
}

// The sharded server implements the fleet-facing contract.
var _ server.Backend = (*Server)(nil)

// New partitions the workload by fragments (see assign), builds one
// engine + round loop per shard, and starts serving. It fails when there
// are fewer phrases than shards. The server takes ownership of the
// workload. Close must be called to release the loops.
func New(w *workload.Workload, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// assign reads every rate and intersects every interest set with the
	// shards' advertiser unions: refuse up front what core.New refuses.
	if len(w.Rates) != len(w.Interests) {
		return nil, fmt.Errorf("shard: %d search rates for %d phrases", len(w.Rates), len(w.Interests))
	}
	for q, set := range w.Interests {
		if r := w.Rates[q]; set.Cap() != len(w.Advertisers) || !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("shard: phrase %d has interest capacity %d for %d advertisers and search rate %v", q, set.Cap(), len(w.Advertisers), r)
		}
	}
	parts, idx, err := workload.Partition(w, assign(w, cfg.Shards), cfg.Shards)
	if err != nil {
		return nil, err
	}
	budgets := make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		budgets[i] = a.Budget
	}
	s := &Server{
		cfg:     cfg,
		workers: make([]*server.Worker, cfg.Shards),
		matcher: workload.NewPartitionedMatcher(w.PhraseNames, idx),
		idx:     idx,
		ledger:  budget.NewLedger(budgets),
	}
	wcfg := cfg.Worker
	wcfg.Engine.Ledger = s.ledger
	if wcfg.Pacing != nil {
		// One pacing controller for the whole fleet, over the central
		// ledger: every shard's engine syncs it at its round boundary (the
		// sync is round-gated and idempotent, so whichever shard arrives
		// first performs it) and reads the same published factors. Spend is
		// globally exact through the ledger, so pacing state survives
		// sharding without per-shard drift.
		pacer, err := budget.NewPacer(s.ledger, budgets, *wcfg.Pacing, wcfg.Engine.Lifecycle)
		if err != nil {
			return nil, err
		}
		s.pacer = pacer
		wcfg.Engine.Pacer = pacer
	}
	for sh := range s.workers {
		// RoundSummary events (Config.OnRound) carry the shard that closed
		// the round; every shard shares the one configured hook.
		wcfg.ShardID = sh
		wk, err := server.NewWorker(parts[sh], wcfg)
		if err != nil {
			// Drain the workers already started before reporting failure.
			for _, started := range s.workers[:sh] {
				started.Close()
			}
			return nil, err
		}
		s.workers[sh] = wk
	}
	return s, nil
}

// Shards returns the number of engine shards.
func (s *Server) Shards() int { return len(s.workers) }

// Assignment returns a copy of the phrase → shard routing table.
func (s *Server) Assignment() []int {
	return append([]int(nil), s.idx.ShardOf...)
}

// Ledger exposes the central budget ledger for accounting reads (Remaining,
// Spent) and mid-run Deposit top-ups. Safe for concurrent use.
func (s *Server) Ledger() *budget.Ledger { return s.ledger }

// Pacer returns the fleet's shared pacing controller, nil when pacing is
// off. Safe for concurrent use.
func (s *Server) Pacer() *budget.Pacer { return s.pacer }

// Matcher exposes the partitioned query matcher so callers can register
// rewrites before serving traffic; AddRewrite is not safe concurrently
// with Submit.
func (s *Server) Matcher() *workload.PartitionedMatcher { return s.matcher }

// Submit admits one raw query, routes it to the shard owning its phrase,
// and blocks until that shard's round resolves — server.Submit over this
// fleet. The result carries the global phrase ID and the serving shard. A
// shard's refusal comes back as a *serr.QueryError naming that shard and
// phrase (see routed); errors.Is against the sentinels matches through it.
// Safe for concurrent use.
func (s *Server) Submit(ctx context.Context, query string) (server.Result, error) {
	res, err := server.Submit(ctx, s, query)
	return res, routed(res, err)
}

// SubmitBatch admits many raw queries at once, routes each to the shard
// owning its phrase, and blocks until every one resolves or fails —
// server.SubmitBatch over this fleet, so a batch lands in at most one round
// per shard. The returned slice always has len(queries) with global phrase
// IDs and serving shards filled in; the error is nil when all succeeded,
// otherwise it joins one *serr.ItemError per failed query, refusals routed
// as in Submit (expand with serr.SplitBatch). Safe for concurrent use.
func (s *Server) SubmitBatch(ctx context.Context, queries []string) ([]server.Result, error) {
	results, errs := server.SubmitBatch(ctx, s, queries)
	for i, err := range errs {
		errs[i] = routed(results[i], err)
	}
	return results, serr.JoinBatch(errs)
}

// routed attaches to a shard's refusal the routing context its completion
// carried — the one place a *serr.QueryError is built. Unmatched queries
// were never routed, and a context error is the caller's own.
func routed(res server.Result, err error) error {
	if errors.Is(err, serr.ErrOverloaded) || errors.Is(err, serr.ErrClosed) {
		return serr.Wrap(res.Shard, res.Phrase, err)
	}
	return err
}

// SubmitAsync admits a batch of queries — the server.Backend contract, and
// the one way into the fleet: each item routes straight into the worker of
// the shard owning its phrase with no blocking, no per-query goroutine, and
// no per-shard grouping pass; outcomes carry the global phrase ID and
// serving shard, and are delivered exactly once through each item's
// Completion — synchronously for refusals, from the owning shard's round
// loop otherwise. Safe for concurrent use.
func (s *Server) SubmitAsync(items []server.AsyncItem) {
	now := time.Now()
	for i := range items {
		it := &items[i]
		sh, local, global, ok := s.matcher.Match(it.Query)
		if !ok {
			s.unmatched.Add(1)
			it.Done.Complete(it.Index, server.Result{}, serr.ErrNoAuction)
			continue
		}
		s.workers[sh].SubmitPhraseAsync(local, global, it.Deadline, now, it.Done, it.Index)
	}
}

// Metrics returns the fleet-wide aggregate of every shard's counters and
// latency distributions (see server.Metrics.Merge). Safe for concurrent
// use with Submit and the round loops.
func (s *Server) Metrics() server.Metrics {
	m := s.workers[0].Metrics()
	for _, wk := range s.workers[1:] {
		m = m.Merge(wk.Metrics())
	}
	m.Unmatched = s.unmatched.Load()
	m.Submitted += m.Unmatched // unmatched queries never reach a worker
	if s.pacer != nil {
		// The controller is shared fleet-wide; attach its snapshot once
		// rather than summing per worker.
		m.Pacing = s.pacer.Metrics()
	}
	return m
}

// ShardMetrics returns one shard's own metrics, for per-shard dashboards
// and balance inspection.
func (s *Server) ShardMetrics(shard int) server.Metrics {
	return s.workers[shard].Metrics()
}

// Close stops admission on every shard and drains them concurrently: each
// worker resolves its in-flight requests in a final round and settles its
// outstanding clicks against the ledger. Close returns when the last
// worker's loop has exited; it is idempotent and safe to call
// concurrently.
func (s *Server) Close() {
	var wg sync.WaitGroup
	for _, wk := range s.workers {
		wg.Add(1)
		go func(wk *server.Worker) {
			defer wg.Done()
			wk.Close()
		}(wk)
	}
	wg.Wait()
}
