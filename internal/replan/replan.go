// Package replan keeps a serving engine's shared aggregation plan matched
// to the traffic it actually sees. The Section II-D heuristic optimizes a
// plan for the *expected* materialization cost under per-query arrival
// rates, but the serving stack builds that plan once, from the workload's
// static rates; under traffic drift the compiled plan silently decays
// toward the independent-scan cost sharing is supposed to beat.
//
// A Planner closes that loop online, in three pieces:
//
//   - a rate Tracker: exponentially-decayed per-phrase occurrence counters,
//     updated once per round from the round's occurrence vector, estimating
//     the arrival rates of the recent past;
//   - a drift trigger: on a fixed cadence (and outside a post-swap
//     hysteresis window) the observed rates are compared against the rates
//     the live plan was built for, via a per-phrase max-ratio test and a
//     mean Bernoulli relative-entropy test — either exceeding its threshold
//     fires a rebuild;
//   - a background builder: a single goroutine that re-poses the planning
//     instance under the observed rates and runs the full fragment +
//     greedy-completion heuristic plus flat compilation
//     (sharedagg.BuildCompiledWithRates), publishing the finished Build
//     through an atomic pointer.
//
// The round loop polls for a finished Build at each round boundary (one
// atomic load) and installs it with core.Engine.InstallPlan — an O(plan)
// pointer swap plus a fresh Runner, so admission never pauses. Because
// every complete plan over the same queries computes identical top-k
// results (Lemma 1: A-equivalence is variable-set equality), a mid-stream
// swap changes only the cost of winner determination, never the winners —
// the equivalence property the tests pin down.
//
// Thread safety: Observe, Stats, ObservedRates*, and Close must be called
// from one goroutine (the round loop that owns the engine). Only the
// builder goroutine runs concurrently, and it communicates exclusively
// through the request channel and the atomic Build pointer.
package replan

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/plan"
	"sharedwd/internal/sharedagg"
)

// Config parameterizes the online replanner. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Alpha is the exponential-decay weight per round of the rate tracker:
	// rate ← (1−Alpha)·rate + Alpha·occurred. Smaller values average over a
	// longer window (the estimate's half-life is ≈ ln 2 / Alpha rounds).
	Alpha float64
	// WarmupRounds is how many rounds must be observed before the first
	// drift check, so the decayed estimate has converged away from its
	// prior (the planned rates) before it can trigger a rebuild.
	WarmupRounds int
	// CheckEvery is the drift-check cadence in rounds.
	CheckEvery int
	// MaxRatio fires a rebuild when some phrase's observed/planned rate
	// ratio (either direction, both sides floored at RateFloor) exceeds it.
	// +Inf disables the ratio trigger.
	MaxRatio float64
	// MinKL fires a rebuild when the mean per-phrase Bernoulli relative
	// entropy KL(observed ‖ planned), in nats, exceeds it. +Inf disables
	// the entropy trigger.
	MinKL float64
	// CooldownRounds is the hysteresis window: after a rebuilt plan is
	// delivered, no new build triggers for this many rounds, so a rate
	// estimate still converging toward the new baseline cannot thrash the
	// builder.
	CooldownRounds int
	// RateFloor clamps both sides of the ratio and entropy computations
	// away from 0 and 1, keeping never-seen and always-on phrases from
	// producing infinite drift.
	RateFloor float64
}

// DefaultConfig returns a conservative replanning configuration: a ~35
// round estimate half-life, drift checks every 50 rounds after a 200 round
// warmup, a 3× per-phrase ratio or 0.15 nat mean-divergence trigger, and a
// 400 round post-swap cooldown.
func DefaultConfig() Config {
	return Config{
		Alpha:          0.02,
		WarmupRounds:   200,
		CheckEvery:     50,
		MaxRatio:       3,
		MinKL:          0.15,
		CooldownRounds: 400,
		RateFloor:      0.01,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("replan: alpha %v outside (0,1]", c.Alpha)
	}
	if c.WarmupRounds < 0 || c.CooldownRounds < 0 {
		return fmt.Errorf("replan: negative warmup %d or cooldown %d", c.WarmupRounds, c.CooldownRounds)
	}
	if c.CheckEvery < 1 {
		return fmt.Errorf("replan: non-positive check cadence %d", c.CheckEvery)
	}
	if c.MaxRatio <= 1 {
		return fmt.Errorf("replan: max-ratio trigger %v must exceed 1", c.MaxRatio)
	}
	if c.MinKL <= 0 {
		return fmt.Errorf("replan: non-positive divergence trigger %v", c.MinKL)
	}
	if c.RateFloor <= 0 || c.RateFloor >= 0.5 {
		return fmt.Errorf("replan: rate floor %v outside (0, 0.5)", c.RateFloor)
	}
	return nil
}

// Tracker estimates per-phrase arrival rates with exponentially-decayed
// occurrence counters. It is initialized from the rates the live plan was
// built for, so the estimate starts at the prior and decays toward observed
// traffic. Not safe for concurrent use.
type Tracker struct {
	alpha  float64
	rates  []float64
	rounds int
}

// NewTracker builds a tracker seeded with the given prior rates.
func NewTracker(prior []float64, alpha float64) *Tracker {
	return &Tracker{alpha: alpha, rates: append([]float64(nil), prior...)}
}

// Observe folds one round's occurrence vector into the estimate.
func (t *Tracker) Observe(occ []bool) {
	if len(occ) != len(t.rates) {
		panic(fmt.Sprintf("replan: %d occurrence flags for %d phrases", len(occ), len(t.rates)))
	}
	for q, o := range occ {
		x := 0.0
		if o {
			x = 1
		}
		t.rates[q] += t.alpha * (x - t.rates[q])
	}
	t.rounds++
}

// Rounds returns how many rounds have been observed.
func (t *Tracker) Rounds() int { return t.rounds }

// Rates returns a copy of the current estimate.
func (t *Tracker) Rates() []float64 { return append([]float64(nil), t.rates...) }

// RatesInto copies the current estimate into dst (grown if needed) and
// returns it, so steady-state callers avoid allocating.
func (t *Tracker) RatesInto(dst []float64) []float64 {
	if cap(dst) < len(t.rates) {
		dst = make([]float64, len(t.rates))
	}
	dst = dst[:len(t.rates)]
	copy(dst, t.rates)
	return dst
}

// Drift quantifies how far observed rates have moved from the rates the
// live plan was optimized for. maxRatio is the largest per-phrase ratio
// max(obs/planned, planned/obs) with both sides floored at floor; kl is the
// mean per-phrase Bernoulli relative entropy KL(observed ‖ planned) in
// nats, with both probabilities clamped into [floor, 1−floor].
func Drift(planned, observed []float64, floor float64) (maxRatio, kl float64) {
	if len(planned) != len(observed) {
		panic(fmt.Sprintf("replan: %d planned rates vs %d observed", len(planned), len(observed)))
	}
	if len(planned) == 0 {
		return 1, 0
	}
	maxRatio = 1
	for q := range planned {
		p := clampRate(planned[q], floor)
		o := clampRate(observed[q], floor)
		if r := o / p; r > maxRatio {
			maxRatio = r
		}
		if r := p / o; r > maxRatio {
			maxRatio = r
		}
		kl += o*math.Log(o/p) + (1-o)*math.Log((1-o)/(1-p))
	}
	kl /= float64(len(planned))
	return maxRatio, kl
}

func clampRate(r, floor float64) float64 {
	if r < floor {
		return floor
	}
	if r > 1-floor {
		return 1 - floor
	}
	return r
}

// Build is one finished background rebuild: the re-posed instance, the
// flat compilation of the heuristic's plan, and the observed rates it was
// optimized for. Install it with core.Engine.InstallPlan at a round
// boundary.
type Build struct {
	Inst  *plan.Instance
	Prog  *plan.Program
	Rates []float64
	// Seq numbers builds from 1 in trigger order.
	Seq int
	// BuildTime is how long the background heuristic + compilation took.
	BuildTime time.Duration
}

// Stats counts the planner's lifetime activity. All fields are maintained
// by the Observe goroutine; read them from the same goroutine.
type Stats struct {
	// Rounds observed and drift Checks run.
	Rounds, Checks int
	// Builds started in the background; Delivered of those handed to the
	// caller for installation; Failed rebuilds (instance re-posing or plan
	// validation errors — none are expected on a well-formed universe).
	Builds, Delivered, Failed int
	// LastMaxRatio and LastKL are the drift measures at the most recent
	// check.
	LastMaxRatio, LastKL float64
}

type buildReq struct {
	base  *plan.Instance
	rates []float64
	seq   int
}

// Planner ties the tracker, the drift trigger, and the background builder
// together for one engine's round loop. See the package comment for the
// threading contract.
type Planner struct {
	cfg     Config
	tracker *Tracker
	// base is the instance the live plan answers; planned its rates.
	base    *plan.Instance
	planned []float64

	sinceCheck int
	cooldown   int
	stats      Stats
	seq        int

	building  atomic.Bool
	built     atomic.Pointer[Build]
	failed    atomic.Int64
	reqCh     chan buildReq
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a planner for the instance the live plan was built from. The
// instance's query rates are adopted as the drift baseline and the
// tracker's prior. The background builder goroutine starts immediately;
// Close stops it.
func New(inst *plan.Instance, cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inst == nil {
		return nil, fmt.Errorf("replan: nil instance")
	}
	planned := make([]float64, len(inst.Queries))
	for i, q := range inst.Queries {
		planned[i] = q.Rate
	}
	p := &Planner{
		cfg:     cfg,
		tracker: NewTracker(planned, cfg.Alpha),
		base:    inst,
		planned: planned,
		reqCh:   make(chan buildReq, 1),
		done:    make(chan struct{}),
	}
	go p.builder()
	return p, nil
}

// Observe folds one round's occurrence vector into the rate estimate, runs
// the drift trigger on its cadence, and returns a non-nil *Build when a
// freshly compiled plan is ready — the caller must install it (the planner
// has already adopted its rates as the new drift baseline and entered the
// cooldown window). Must be called from the round-loop goroutine.
func (p *Planner) Observe(occ []bool) *Build {
	p.tracker.Observe(occ)
	p.stats.Failed = int(p.failed.Load())

	// Adopt a finished background build first: delivery *is* the round
	// boundary the caller installs at.
	if b := p.built.Swap(nil); b != nil {
		p.base = b.Inst
		p.planned = append(p.planned[:0], b.Rates...)
		p.cooldown = p.cfg.CooldownRounds
		p.stats.Delivered++
		return b
	}

	if p.cooldown > 0 {
		p.cooldown--
		return nil
	}
	if p.tracker.Rounds() < p.cfg.WarmupRounds {
		return nil
	}
	p.sinceCheck++
	if p.sinceCheck < p.cfg.CheckEvery {
		return nil
	}
	p.sinceCheck = 0
	if p.building.Load() {
		return nil // a rebuild is already in flight
	}
	p.stats.Checks++
	maxRatio, kl := Drift(p.planned, p.tracker.rates, p.cfg.RateFloor)
	p.stats.LastMaxRatio, p.stats.LastKL = maxRatio, kl
	if maxRatio <= p.cfg.MaxRatio && kl <= p.cfg.MinKL {
		return nil
	}
	p.seq++
	p.stats.Builds++
	p.building.Store(true)
	p.reqCh <- buildReq{base: p.base, rates: p.tracker.Rates(), seq: p.seq}
	return nil
}

// ObservedRates returns a copy of the current per-phrase rate estimate.
func (p *Planner) ObservedRates() []float64 { return p.tracker.Rates() }

// ObservedRatesInto is ObservedRates into a reusable buffer.
func (p *Planner) ObservedRatesInto(dst []float64) []float64 { return p.tracker.RatesInto(dst) }

// PlannedRates returns a copy of the rates the live plan was built for.
func (p *Planner) PlannedRates() []float64 { return append([]float64(nil), p.planned...) }

// Stats returns the planner's lifetime counters.
func (p *Planner) Stats() Stats { return p.stats }

// Close stops the background builder and waits for it to exit. It must not
// race Observe (call it after the round loop has stopped); it is idempotent.
func (p *Planner) Close() {
	p.closeOnce.Do(func() {
		close(p.reqCh)
		<-p.done
	})
}

// builder is the background goroutine: it runs the full planning heuristic
// and flat compilation for each requested rate snapshot and publishes the
// result. The round loop's trigger guarantees at most one request is in
// flight (the building flag), so the 1-buffered channel never blocks the
// loop.
func (p *Planner) builder() {
	defer close(p.done)
	for req := range p.reqCh {
		start := time.Now()
		inst, _, prog, err := sharedagg.BuildCompiledWithRates(req.base, req.rates)
		if err != nil {
			p.failed.Add(1)
			p.building.Store(false)
			continue
		}
		p.built.Store(&Build{
			Inst:      inst,
			Prog:      prog,
			Rates:     req.rates,
			Seq:       req.seq,
			BuildTime: time.Since(start),
		})
		p.building.Store(false)
	}
}
