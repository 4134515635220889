package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/workload"
)

// roundsRig is one engine over one generated universe, driven a round at a
// time from a single goroutine. rounds-* workloads measure it directly; the
// serve-* workloads build one over their own universe for the core probes.
type roundsRig struct {
	sp      *spec
	sharing core.SharingMode
	w       *workload.Workload
	eng     *core.Engine
	ledger  *budget.Ledger
	pacer   *budget.Pacer
	lc      *workload.Lifecycle

	// occ are the pre-sampled occurrence sets the rig cycles through; occN
	// their auction counts; next the position in the cycle.
	occ  [][]bool
	occN []int
	next int

	rebid *rand.Rand
}

// rigOpts select a twin of the workload's own engine.
type rigOpts struct {
	sharing core.SharingMode
	unpaced bool // drop ledger, pacer and lifecycle, and give budgets no run exhausts
}

func buildRounds(sp *spec, seed int64, o rigOpts) (*roundsRig, error) {
	wcfg := sp.wcfg
	wcfg.Seed = seed
	paced := sp.paced && !o.unpaced
	if sp.paced && o.unpaced {
		wcfg = richBudgets(wcfg)
	}
	w := workload.Generate(wcfg)
	r := &roundsRig{sp: sp, sharing: o.sharing, w: w, rebid: rand.New(rand.NewSource(seed ^ 0x5eed))}

	ecfg := sp.ecfg
	ecfg.Sharing = o.sharing
	ecfg.Workers = 1
	if paced {
		budgets := make([]float64, len(w.Advertisers))
		for i, a := range w.Advertisers {
			budgets[i] = a.Budget
		}
		r.ledger = budget.NewLedger(budgets)
		lc, err := workload.GenerateLifecycle(w, workload.LifecycleConfig{
			Rounds: pacedDay, ChurnFraction: 0.10, RefreshEvery: pacedHorizon, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		pcfg := budget.DefaultPacerConfig()
		pcfg.Horizon = pacedHorizon
		pacer, err := budget.NewPacer(r.ledger, budgets, pcfg, lc)
		if err != nil {
			return nil, err
		}
		r.lc, r.pacer = lc, pacer
		ecfg.Ledger, ecfg.Pacer, ecfg.Lifecycle = r.ledger, pacer, lc
	}
	eng, err := core.New(w, ecfg)
	if err != nil {
		return nil, err
	}
	r.eng = eng

	// Occurrence comes from the seed, not from the workload's own stream,
	// so twins that share a seed see the same rounds.
	rng := rand.New(rand.NewSource(seed ^ 0x0cc))
	r.occ = make([][]bool, occurrenceSets)
	r.occN = make([]int, occurrenceSets)
	for i := range r.occ {
		occ := make([]bool, len(w.Rates))
		for q, rate := range w.Rates {
			if rng.Float64() < rate {
				occ[q] = true
				r.occN[i]++
			}
		}
		r.occ[i] = occ
	}
	return r, nil
}

func (r *roundsRig) close() { r.eng.Close() }

// mutate moves bids between rounds the way the workload says; it is never
// inside a timed Step.
func (r *roundsRig) mutate() {
	if r.sp.bidWalk > 0 {
		r.w.PerturbBids(r.sp.bidWalk)
	}
	n := int(r.sp.rebidShare * float64(len(r.w.Advertisers)))
	for j := 0; j < n; j++ {
		a := &r.w.Advertisers[r.rebid.Intn(len(r.w.Advertisers))]
		b := a.Bid * (1 + 0.05*(r.rebid.Float64()*2-1))
		a.Bid = math.Min(r.w.Cfg.MaxBid, math.Max(r.w.Cfg.MinBid, b))
	}
}

// bid is advertiser i's bid in the round Step just resolved, under the
// Naive policy: the stated bid times the pacing factor (0 for an advertiser
// the lifecycle has switched off), capped by what budget remains.
func (r *roundsRig) bid(i int) float64 {
	b := r.w.Advertisers[i].Bid
	if r.pacer != nil {
		b *= r.pacer.Factor(i)
	}
	return math.Max(0, math.Min(b, r.eng.Remaining(i)))
}

// done reports that the rig has used up its lifecycle schedule; past it
// budgets would go unrefreshed and per-round work would decay.
func (r *roundsRig) done() bool { return r.lc != nil && r.eng.Round() >= pacedDay }

// verifyAgainstOracle steps the shared and the independent twin through the
// same n rounds, checks every auction of both against the oracle, and
// requires the twins to agree on what they earned. Only Naive engines can
// be checked this way: a throttled bid depends on click-simulator state
// that is not visible from outside.
func verifyAgainstOracle(shared, indep *roundsRig, n int) error {
	var scratch []candidate
	var err error
	for i := 0; i < n; i++ {
		for _, r := range []*roundsRig{shared, indep} {
			occ := r.occ[r.next%len(r.occ)]
			r.next++
			rep := r.eng.Step(occ)
			if scratch, err = checkRound(r.w, occ, rep, r.bid, scratch); err != nil {
				return fmt.Errorf("%v engine: %w", r.sharing, err)
			}
			r.mutate()
		}
	}
	s, d := shared.eng.Stats(), indep.eng.Stats()
	if s.AuctionsResolved != d.AuctionsResolved || s.ClicksCharged != d.ClicksCharged ||
		math.Abs(s.Revenue-d.Revenue) > 1e-6*math.Max(1, s.Revenue) {
		return fmt.Errorf("shared and independent twins disagree: auctions %d/%d, clicks charged %d/%d, revenue %.6f/%.6f",
			s.AuctionsResolved, d.AuctionsResolved, s.ClicksCharged, d.ClicksCharged, s.Revenue, d.Revenue)
	}
	if s.AuctionsResolved == 0 || s.Revenue == 0 {
		return fmt.Errorf("verification pass resolved %d auctions for revenue %.3f: nothing was checked", s.AuctionsResolved, s.Revenue)
	}
	return nil
}

// roundsRun is what one timed stretch of rounds produced.
type roundsRun struct {
	stepNS   []float64 // one raw sample per Step
	atNS     []float64 // when each Step began, from the stretch's start
	auctions int64
	stepSum  time.Duration
}

// drive steps the rig back to back for d, timing each Step alone. With a
// trace buffer it also records the round, Step and mutate spans.
func (r *roundsRig) drive(d time.Duration, tb *traceBuf, origin time.Time) roundsRun {
	size := int(d/(20*time.Microsecond)) + 1024
	run := roundsRun{stepNS: make([]float64, 0, size), atNS: make([]float64, 0, size)}
	start := time.Now()
	for !r.done() {
		i := r.next % len(r.occ)
		r.next++
		t0 := time.Now()
		r.eng.Step(r.occ[i])
		t1 := time.Now()
		r.mutate()
		mutated := time.Since(t1)
		step := t1.Sub(t0)
		run.stepNS = append(run.stepNS, float64(step))
		run.atNS = append(run.atNS, float64(t0.Sub(start)))
		run.stepSum += step
		run.auctions += int64(r.occN[i])
		if tb != nil {
			t2 := time.Now() // the round span also covers the loop's own bookkeeping
			id, a, b, c := uint64(r.eng.Round()), int64(t0.Sub(origin)), int64(t1.Sub(origin)), int64(t2.Sub(origin))
			tb.add(span{kind: spanRound, id: id, start: a, end: c, count: int64(r.occN[i])})
			tb.add(span{kind: spanStep, id: id, start: a, end: b, count: int64(r.occN[i])})
			tb.add(span{kind: spanMutate, id: id, start: b, end: b + int64(mutated)})
		}
		if t1.Sub(start) >= d {
			break
		}
	}
	return run
}
