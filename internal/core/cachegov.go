package core

// The dirty-cone cache can lose: RunIncremental pays an invalidation walk
// per changed leaf and a validity check per instruction on top of whatever
// it still has to recompute, so when most of the cone is dirty it costs
// more than recomputing all of it (about twice as much with every bid
// moving). The governor watches the hit share the engine already computes
// and, while the cache is cold, resolves rounds with a plain Runner.Run —
// no invalidation walk, no cache bookkeeping — probing the incremental path
// again with bounded exponential back-off. Results are identical either
// way; only the cost of winner determination changes.
//
// The constants come from the hit-share sweep recorded in DESIGN.md §5
// (BenchmarkCacheBreakEven reproduces it); they are not options because the
// break-even is a property of the two code paths, not of a deployment.
const (
	// cacheBreakEven is the hit share Cached/(Materialized+Cached) under
	// which a full run is cheaper than an incremental one.
	cacheBreakEven = 0.3
	// cacheWindow is how many non-empty rounds one hit-share reading pools:
	// long enough that one lifecycle burst or pacer republish does not flip
	// the mode, short enough that a cold stretch is left within a few
	// dozen rounds.
	cacheWindow = 8
	// cacheMinBackoff and cacheMaxBackoff bound the fallback stretch between
	// probes, counted like the window in rounds that aggregated something.
	// A probe is two windows on the losing path (one to refill the cache,
	// one to judge it), so at the cap probing costs under 2 % of rounds at
	// twice the price while a workload that turns steady gets its cache
	// back within cacheMaxBackoff rounds.
	cacheMinBackoff = 32
	cacheMaxBackoff = 1024
)

// cacheGovernor is the self-disable state of an IncrementalCache engine's
// dirty-cone cache.
type cacheGovernor struct {
	// bypass is how many more rounds resolve on the full-run fallback; 0
	// means the incremental path is live.
	bypass int
	// backoff is the length of the next fallback stretch: doubled each time
	// a probe finds the cache still cold, reset by a warm window.
	backoff int
	// filling marks the first window of a cache epoch (engine start, plan
	// swap, probe): the cache is empty, so its misses say nothing about the
	// bid stream and the window is not judged.
	filling bool
	// rounds, cached and total are the current window's sums.
	rounds, cached, total int
}

// reset starts the governor over with a new cache epoch.
func (g *cacheGovernor) reset() {
	*g = cacheGovernor{backoff: cacheMinBackoff, filling: true}
}

// observe records one incremental round and, at the end of a judged window
// whose pooled hit share is under the break-even, starts a fallback stretch.
func (g *cacheGovernor) observe(materialized, cached int) {
	if materialized+cached == 0 {
		return // no aggregation ran: nothing to learn
	}
	g.rounds++
	g.cached += cached
	g.total += materialized + cached
	if g.rounds < cacheWindow {
		return
	}
	cold := float64(g.cached) < cacheBreakEven*float64(g.total)
	filling := g.filling
	g.rounds, g.cached, g.total, g.filling = 0, 0, 0, false
	if filling {
		return
	}
	if cold {
		g.bypass = g.backoff
		g.backoff = min(2*g.backoff, cacheMaxBackoff)
	} else {
		g.backoff = cacheMinBackoff
	}
}

// endBypassRound counts one fallback round down and reports whether it was
// the stretch's last, in which case the caller must start a clean cache
// epoch before the next round probes the incremental path.
func (g *cacheGovernor) endBypassRound() (probe bool) {
	g.bypass--
	if g.bypass > 0 {
		return false
	}
	g.filling = true
	return true
}
