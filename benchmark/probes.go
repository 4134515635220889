package main

import (
	"math/rand"
	"sort"
	"time"

	"sharedwd/internal/binproto"
	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/server"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/topk"
	"sharedwd/internal/workload"
)

// The probes time each engine-side layer from outside, by calling its
// exported functions on inputs cut from the workload's own universe. They
// run on every workload; slice is the time each one measures for.

var sink int // keeps the compiler from removing a probed call

// timeLoop calls fn until slice has passed and returns every call's
// duration in nanoseconds, sorted.
func timeLoop(slice time.Duration, prepare, fn func()) []float64 {
	var ns []float64
	for start := time.Now(); time.Since(start) < slice; {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0)))
	}
	sort.Float64s(ns)
	return ns
}

// perItem runs fn (which handles items things per call) until slice has
// passed and returns nanoseconds per item.
func perItem(slice time.Duration, items int, fn func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < slice {
		fn()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*items)
}

func scoresOf(w *workload.Workload, dst []float64) []float64 {
	for i, a := range w.Advertisers {
		dst[i] = a.Bid * a.Quality
	}
	return dst
}

// probeLayers measures topk, plan, sharedagg, pricing, budget, workload and
// the binproto codec on rig's universe. It moves the rig's bids as the workload does,
// so it runs after everything that needs the rig's state.
func probeLayers(rig *roundsRig, pool []query, seed int64, slice time.Duration, m map[string]float64) error {
	w := rig.w
	n, k := len(w.Advertisers), len(w.SlotFactors)
	rng := rand.New(rand.NewSource(seed ^ 0x9e0be))

	// sharedagg: the offline plan build the engine performs at start-up.
	queries := make([]plan.Query, len(w.Interests))
	for q := range queries {
		queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
	}
	inst, err := plan.NewInstance(n, queries)
	if err != nil {
		return err
	}
	t0 := time.Now()
	p, prog, err := sharedagg.BuildCompiled(inst)
	if err != nil {
		return err
	}
	m["sharedagg.build_ms"] = float64(time.Since(t0)) / 1e6
	m["sharedagg.expected_cost"] = p.ExpectedCost()
	m["plan.instr_total"] = float64(prog.NumInstr())

	// plan: full runs and dirty-cone runs of the compiled program over the
	// rig's occurrence sets, bids moving between runs as in the workload.
	scores := scoresOf(w, make([]float64, n))
	at := 0
	nextOcc := func() []bool { at++; return rig.occ[at%len(rig.occ)] }
	full := plan.NewRunner(prog, k+1)
	var occ []bool
	var materialized, runs int
	fullNS := timeLoop(slice,
		func() { rig.mutate(); scoresOf(w, scores); occ = nextOcc() },
		func() { materialized += full.Run(scores, occ); runs++ })
	m["plan.run_us_p50"] = quantile(fullNS, 0.5) / 1e3
	m["plan.materialized_per_round"] = float64(materialized) / float64(runs)

	incr := plan.NewRunner(prog, k+1)
	last := make([]float64, n)
	var recomputed, cached int
	runs = 0
	incrNS := timeLoop(slice,
		func() { rig.mutate(); scoresOf(w, scores); occ = nextOcc() },
		func() {
			for v, s := range scores {
				if s != last[v] {
					incr.Invalidate(v)
					last[v] = s
				}
			}
			r, c := incr.RunIncremental(scores, occ)
			recomputed, cached, runs = recomputed+r, cached+c, runs+1
		})
	m["plan.run_incremental_us_p50"] = quantile(incrNS, 0.5) / 1e3
	m["plan.recomputed_per_round"] = float64(recomputed) / float64(runs)
	m["plan.cached_per_round"] = float64(cached) / float64(runs)
	if recomputed+cached > 0 {
		m["plan.cache_hit_share"] = float64(cached) / float64(recomputed+cached)
	}

	// pricing: GSP over the ranked top-(k+1) of every auction of one round.
	occ = nextOcc()
	full.Run(scores, occ)
	var rankings [][]pricing.Ranked
	for q, on := range occ {
		if !on {
			continue
		}
		var ranked []pricing.Ranked
		for _, e := range full.QueryRun(q) {
			ranked = append(ranked, pricing.Ranked{ID: e.ID, Bid: w.Advertisers[e.ID].Bid, Quality: w.Advertisers[e.ID].Quality})
		}
		rankings = append(rankings, ranked)
	}
	if len(rankings) > 0 {
		var parts []pricing.Ranked
		var prices []float64
		m["pricing.prices_ns_per_auction"] = perItem(slice, len(rankings), func() {
			for _, ranked := range rankings {
				parts, prices = pricing.AppendPricesWithReserve(parts[:0], prices[:0], rig.sp.ecfg.Pricing, ranked, w.SlotFactors, rig.sp.ecfg.Reserve)
			}
			sink += len(prices)
		})
	}

	// topk: the three kernels on runs cut from the score slab — sorted
	// top-(k+1) runs of consecutive 64-advertiser chunks.
	cap1 := k + 1
	entries := make([]topk.Entry, n)
	for i := range entries {
		entries[i] = topk.Entry{ID: i, Score: scores[i]}
	}
	var sortedRuns [][]topk.Entry
	for lo := 0; lo+64 <= n; lo += 64 {
		run := append([]topk.Entry(nil), entries[lo:lo+64]...)
		sort.Slice(run, func(a, b int) bool { return run[a].Less(run[b]) })
		sortedRuns = append(sortedRuns, run[:cap1])
	}
	buf := make([]topk.Entry, cap1)
	m["topk.push_ns_per_entry"] = perItem(slice, n, func() {
		length := 0
		for _, e := range entries {
			length = topk.PushRun(buf, length, cap1, e)
		}
		sink += length
	})
	if pairs := len(sortedRuns) / 2; pairs > 0 {
		m["topk.merge_ns_per_entry"] = perItem(slice, pairs*2*cap1, func() {
			for i := 0; i < pairs; i++ {
				sink += topk.MergeRuns(buf, cap1, sortedRuns[2*i], sortedRuns[2*i+1])
			}
		})
		m["topk.fold_ns_per_entry"] = perItem(slice, len(sortedRuns)*cap1, func() {
			length := 0
			for _, run := range sortedRuns {
				length = topk.FoldRun(buf, length, cap1, run)
			}
			sink += length
		})
	}

	// budget: the throttled-bid enumeration on six outstanding ads and a
	// budget tight enough that it cannot take the fast path; a pacer sync
	// over this universe with spend moving; one ledger charge.
	ads := make([]budget.OutstandingAd, 6)
	for i := range ads {
		ads[i] = budget.OutstandingAd{Price: 0.5 + 2.5*rng.Float64(), CTR: 0.1 + 0.3*rng.Float64()}
	}
	m["budget.throttle_ns_per_advertiser"] = perItem(slice, 64, func() {
		for i := 0; i < 64; i++ {
			if budget.ExactThrottledBid(2, 6, 3, ads) > 0 {
				sink++
			}
		}
	})
	deep := make([]float64, n)
	for i := range deep {
		deep[i] = 1e9
	}
	ledger := budget.NewLedger(deep)
	pcfg := budget.DefaultPacerConfig()
	pcfg.Horizon = pacedHorizon
	pacer, err := budget.NewPacer(ledger, deep, pcfg, nil)
	if err != nil {
		return err
	}
	round := 0
	syncNS := timeLoop(slice,
		func() {
			for j := 0; j < 32; j++ {
				ledger.TryCharge(rng.Intn(n), 1+rng.Float64())
			}
			round++
		},
		func() { pacer.SyncRound(round) })
	m["budget.pacer_sync_us_p50"] = quantile(syncNS, 0.5) / 1e3
	m["budget.ledger_charge_ns"] = perItem(slice, n, func() {
		for i := 0; i < n; i++ {
			if ledger.TryCharge(i, 0.01) {
				sink++
			}
		}
	})

	// workload: the two-stage matcher on generated queries.
	matcher := workload.NewMatcher(w.PhraseNames)
	m["workload.match_ns_per_query"] = perItem(slice, len(pool), func() {
		for _, q := range pool {
			if _, ok := matcher.Match(q.text); ok {
				sink++
			}
		}
	})

	// binproto: the codec called directly — one query frame and one reply
	// frame per item. Only the encoders are exported, so decoding shows only
	// in the binproto rung of the ladder.
	reply := server.Result{Phrase: 1, Round: 1, Latency: time.Millisecond, Slots: make([]core.SlotResult, k)}
	var frame []byte
	m["binproto.encode_ns_per_frame"] = perItem(slice, 2*len(pool), func() {
		for i, q := range pool {
			frame = binproto.AppendQuery(frame[:0], uint64(i), 0, q.text)
			frame = binproto.AppendReply(frame[:0], uint64(i), &reply, nil)
		}
		sink += len(frame)
	})
	return nil
}

// coreProbe measures Engine.Step on rig against its independent twin (and,
// for a paced workload, its unpaced twin), each driven for slice over the
// same occurrence sets. step is the shared engine's own sorted Step times.
func coreProbe(rig, indep *roundsRig, seed int64, step []float64, slice time.Duration, m map[string]float64) error {
	shared := quantile(step, 0.5)
	m["core.step_us_p50"] = shared / 1e3
	m["core.step_us_p99"] = quantile(step, 0.99) / 1e3

	origin := time.Now()
	ind := sortedCopy(indep.drive(slice, nil, origin).stepNS)
	m["core.independent_step_us_p50"] = quantile(ind, 0.5) / 1e3
	if shared > 0 {
		m["core.sharing_speedup"] = quantile(ind, 0.5) / shared
	}

	m["core.unpaced_step_us_p50"] = shared / 1e3
	m["core.pacing_overhead_ratio"] = 1
	if rig.sp.paced {
		twin, err := buildRounds(rig.sp, seed, rigOpts{sharing: core.SharedAggregation, unpaced: true})
		if err != nil {
			return err
		}
		defer twin.close()
		twin.drive(slice/4, nil, origin) // let its cache fill
		unpaced := quantile(sortedCopy(twin.drive(slice, nil, origin).stepNS), 0.5)
		m["core.unpaced_step_us_p50"] = unpaced / 1e3
		if unpaced > 0 {
			m["core.pacing_overhead_ratio"] = shared / unpaced
		}
	}
	return nil
}
