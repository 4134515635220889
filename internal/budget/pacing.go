package budget

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sharedwd/internal/stats"
	"sharedwd/internal/workload"
)

// Authority is the budget state the pacing controller reads and refreshes:
// remaining budget, cumulative settled spend, and mid-run deposits.
// *Ledger implements it; implementations must be safe for concurrent use
// (the pacer is shared across engine shards, like the ledger itself).
type Authority interface {
	Remaining(advertiser int) float64
	Spent(advertiser int) float64
	Deposit(advertiser int, amount float64)
}

var _ Authority = (*Ledger)(nil)

// PacerConfig parameterizes the online pacing controller.
type PacerConfig struct {
	// Horizon is the number of rounds a budget epoch should last: the
	// target spend curve is budget·min(1, elapsed/Horizon).
	Horizon int
	// Gain is the controller's feedback gain: each round the pacing factor
	// is multiplied by exp(−Gain·err/perRound), where err is realized minus
	// target spend and perRound the ideal per-round spend. Larger gains
	// converge faster but oscillate harder.
	Gain float64
	// MaxStep bounds the per-round |log-factor| change, so a transient
	// spend spike cannot slam the factor to its floor in one round.
	MaxStep float64
	// MinFactor is the pacing-factor floor for active advertisers with
	// budget remaining, keeping everyone probing the market so the
	// controller can observe a spend rate to correct against.
	MinFactor float64
}

// DefaultPacerConfig returns a controller tuning that converges within a
// few dozen rounds on the synthetic workloads without visible oscillation.
func DefaultPacerConfig() PacerConfig {
	return PacerConfig{Horizon: 1000, Gain: 0.08, MaxStep: 0.35, MinFactor: 0.02}
}

// Validate reports whether the pacing configuration is usable.
func (c PacerConfig) Validate() error {
	if c.Horizon < 1 {
		return fmt.Errorf("budget: non-positive pacing horizon %d", c.Horizon)
	}
	if c.Gain <= 0 {
		return fmt.Errorf("budget: non-positive pacing gain %v", c.Gain)
	}
	if c.MaxStep <= 0 {
		return fmt.Errorf("budget: non-positive pacing max step %v", c.MaxStep)
	}
	if c.MinFactor <= 0 || c.MinFactor > 1 {
		return fmt.Errorf("budget: pacing factor floor %v outside (0,1]", c.MinFactor)
	}
	return nil
}

// Pacer is the per-advertiser online pacing controller (ROADMAP's
// multi-round budget pacing): a multiplicative feedback loop that adapts
// each advertiser's throttle factor — a multiplier in (0,1] applied to the
// stated bid before the Section IV throttled-bid machinery — so realized
// spend tracks the linear target curve budget·min(1, elapsed/Horizon)
// instead of front-loading. Spend is observed from the shared Authority
// (the fleet's budget.Ledger settlements), so pacing reacts to what clicks
// actually charged, never to modeled estimates alone.
//
// One Pacer is shared by every engine of a fleet, exactly like the Ledger:
// each shard calls SyncRound at its round boundary, the first caller for a
// round advances the controller once from settled spend, and later callers
// (and every bid computation) read the published factors lock-free. Factors
// for round t are therefore a pure function of the schedule and spend
// settled through round t−1 — which is why a sharded and a single-engine
// run over the same deterministic workload pace identically.
//
// The Pacer also owns the lifecycle schedule's budget-refresh epochs:
// applying a refresh means one Deposit on the shared authority, so it must
// happen exactly once per fleet — the round-gated SyncRound gives that for
// free. Join/leave events reset or zero the joining advertiser's controller
// state; engines consume the same schedule independently for participation.
//
// Thread safety: SyncRound, Factor, Round, and Metrics are safe for
// concurrent use by any number of goroutines.
type Pacer struct {
	cfg       PacerConfig
	auth      Authority
	lifecycle *workload.Lifecycle
	budgets   []float64 // initial budgets (the 0-refresh level)

	// synced is the last round the controller stepped, for the lock-free
	// fast path; factorBits[i] is the published math.Float64bits factor.
	synced     atomic.Int64
	factorBits []atomic.Uint64

	mu     sync.Mutex
	cursor int // lifecycle consumption cursor
	active []bool
	// Per-advertiser epoch state: the round the current budget epoch
	// started, settled spend at that point, and the budget to pace over it.
	epochStart  []int
	baseSpend   []float64
	epochBudget []float64
	factor      []float64 // working copy of the published factors
	// stepUp and stepDown are exp(±MaxStep): the multipliers of a clamped
	// step, which is what most rounds take.
	stepUp, stepDown float64

	rounds, epochs int64
	lastTarget     float64 // Σ target spend at the last sync
	lastActual     float64 // Σ realized epoch spend at the last sync
	throttled      int     // advertisers with factor < 1 at the last sync
	absErr         stats.Summary
}

// NewPacer builds a controller over the authority's budget state. budgets
// are the initial (refresh-level-0) budgets, indexed by advertiser ID; the
// lifecycle schedule is optional (nil means every advertiser active, no
// refresh epochs) but must cover the same universe when present.
func NewPacer(auth Authority, budgets []float64, cfg PacerConfig, lc *workload.Lifecycle) (*Pacer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if auth == nil {
		return nil, fmt.Errorf("budget: pacer needs a budget authority")
	}
	if lc != nil && lc.NumAdvertisers() != len(budgets) {
		return nil, fmt.Errorf("budget: lifecycle over %d advertisers, pacer over %d", lc.NumAdvertisers(), len(budgets))
	}
	n := len(budgets)
	p := &Pacer{
		cfg:         cfg,
		auth:        auth,
		lifecycle:   lc,
		budgets:     append([]float64(nil), budgets...),
		factorBits:  make([]atomic.Uint64, n),
		active:      make([]bool, n),
		epochStart:  make([]int, n),
		baseSpend:   make([]float64, n),
		epochBudget: make([]float64, n),
		factor:      make([]float64, n),
		stepUp:      math.Exp(cfg.MaxStep),
		stepDown:    math.Exp(-cfg.MaxStep),
	}
	p.synced.Store(-1)
	for i := 0; i < n; i++ {
		p.active[i] = lc == nil || lc.InitiallyActive(i)
		p.baseSpend[i] = auth.Spent(i)
		p.epochBudget[i] = auth.Remaining(i)
		if p.active[i] {
			p.factor[i] = 1
		}
		p.factorBits[i].Store(math.Float64bits(p.factor[i]))
	}
	return p, nil
}

// N returns the number of advertisers the pacer controls.
func (p *Pacer) N() int { return len(p.factor) }

// Round returns the last round the controller stepped (−1 before any sync).
func (p *Pacer) Round() int { return int(p.synced.Load()) }

// Factor returns advertiser i's current pacing factor in [0, 1]: the
// multiplier engines apply to the stated bid this round. 0 means the
// advertiser is inactive (left, or campaign not started). Lock-free.
func (p *Pacer) Factor(i int) float64 {
	return math.Float64frombits(p.factorBits[i].Load())
}

// SyncRound advances the controller to the given round. It is idempotent
// per round and shared-safe: the first caller for a round applies pending
// lifecycle events (joins, leaves, budget-refresh deposits) and recomputes
// every factor from spend settled so far; callers for already-synced rounds
// return immediately on an atomic fast path. Engines call it at the top of
// Step, before charging the round's clicks, so factors are a function of
// spend through the previous round. Steady-state syncs allocate nothing.
func (p *Pacer) SyncRound(round int) {
	if int64(round) <= p.synced.Load() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if int64(round) <= p.synced.Load() {
		return
	}
	if p.lifecycle != nil {
		p.cursor = p.lifecycle.Apply(p.cursor, round, p.applyEvent)
	}
	p.step(round)
	p.rounds++
	p.synced.Store(int64(round))
}

// applyEvent folds one lifecycle event into the controller state. Called
// with mu held, from SyncRound's cursor walk.
func (p *Pacer) applyEvent(ev workload.LifecycleEvent) {
	i := ev.Advertiser
	switch ev.Kind {
	case workload.LifecycleJoin:
		if p.active[i] {
			return
		}
		p.active[i] = true
		p.epochStart[i] = ev.Round
		p.baseSpend[i] = p.auth.Spent(i)
		p.epochBudget[i] = p.auth.Remaining(i)
		p.factor[i] = 1
	case workload.LifecycleLeave:
		p.active[i] = false
		p.factor[i] = 0
	case workload.LifecycleRefresh:
		want := ev.Budget
		if want <= 0 {
			want = p.budgets[i]
		}
		if cur := p.auth.Remaining(i); want > cur {
			p.auth.Deposit(i, want-cur)
		}
		p.epochStart[i] = ev.Round
		p.baseSpend[i] = p.auth.Spent(i)
		p.epochBudget[i] = p.auth.Remaining(i)
		if p.active[i] {
			p.factor[i] = 1
		}
		p.epochs++
	}
}

// step runs one controller update at the given round: for every active
// advertiser, compare settled epoch spend against the target curve and
// nudge the factor multiplicatively toward it. Called with mu held.
func (p *Pacer) step(round int) {
	var targetSum, actualSum, absErrSum float64
	activeN, throttled := 0, 0
	for i := range p.factor {
		if !p.active[i] {
			p.factorBits[i].Store(math.Float64bits(0))
			continue
		}
		activeN++
		elapsed := float64(round - p.epochStart[i])
		frac := elapsed / float64(p.cfg.Horizon)
		if frac > 1 {
			frac = 1
		}
		target := p.epochBudget[i] * frac
		actual := p.auth.Spent(i) - p.baseSpend[i]
		err := actual - target
		perRound := p.epochBudget[i] / float64(p.cfg.Horizon)
		if perRound < 1e-12 {
			perRound = 1e-12
		}
		adj := -p.cfg.Gain * err / perRound
		f := p.factor[i]
		switch {
		case f == 1 && adj >= 0:
			// exp(adj) ≥ 1 would be clamped straight back to 1.
		case adj >= p.cfg.MaxStep:
			f *= p.stepUp
		case adj <= -p.cfg.MaxStep:
			f *= p.stepDown
		default:
			f *= math.Exp(adj)
		}
		if f < p.cfg.MinFactor {
			f = p.cfg.MinFactor
		} else if f > 1 {
			f = 1
		}
		p.factor[i] = f
		p.factorBits[i].Store(math.Float64bits(f))
		targetSum += target
		actualSum += actual
		if err > 0 {
			absErrSum += err
		} else {
			absErrSum -= err
		}
		if f < 1 {
			throttled++
		}
	}
	p.lastTarget, p.lastActual, p.throttled = targetSum, actualSum, throttled
	if activeN > 0 {
		p.absErr.Add(absErrSum / float64(activeN))
	}
}

// PacingMetrics is the pacing observability snapshot carried in
// server.Metrics. The snake_case JSON tags are part of the stable wire
// schema; stats.Summary's custom codec keeps the error distribution exact
// across a marshal/unmarshal round trip, and Merge aggregates snapshots
// from independent fleets (within one fleet the single shared pacer is
// attached once by the front end, never summed across shards).
type PacingMetrics struct {
	// Enabled reports whether a pacing controller is attached.
	Enabled bool `json:"enabled"`
	// Advertisers is the controlled universe size; Active the advertisers
	// currently active (joined, not left) at the last sync.
	Advertisers int `json:"advertisers"`
	Active      int `json:"active"`
	// Rounds counts controller steps; Epochs counts budget-refresh events
	// applied.
	Rounds int64 `json:"rounds"`
	Epochs int64 `json:"epochs"`
	// TargetSpend and ActualSpend are the fleet sums of the per-advertiser
	// target-curve value and realized epoch spend at the last sync — the
	// two ends of the feedback loop; their gap is the current pacing error.
	TargetSpend float64 `json:"target_spend"`
	ActualSpend float64 `json:"actual_spend"`
	// FactorSum is the sum of active advertisers' pacing factors at the
	// last sync (mean = FactorSum/Active); Throttled counts factors < 1.
	FactorSum float64 `json:"factor_sum"`
	Throttled int     `json:"throttled"`
	// AbsError is the distribution over controller steps of the mean
	// per-advertiser |realized − target| spend.
	AbsError stats.Summary `json:"abs_error"`
}

// Merge returns the field-wise aggregate of two pacing snapshots.
func (pm PacingMetrics) Merge(o PacingMetrics) PacingMetrics {
	out := pm
	out.Enabled = pm.Enabled || o.Enabled
	out.Advertisers += o.Advertisers
	out.Active += o.Active
	out.Rounds += o.Rounds
	out.Epochs += o.Epochs
	out.TargetSpend += o.TargetSpend
	out.ActualSpend += o.ActualSpend
	out.FactorSum += o.FactorSum
	out.Throttled += o.Throttled
	out.AbsError.Merge(o.AbsError)
	return out
}

// Metrics returns the controller's current observability snapshot.
func (p *Pacer) Metrics() PacingMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := PacingMetrics{
		Enabled:     true,
		Advertisers: len(p.factor),
		Rounds:      p.rounds,
		Epochs:      p.epochs,
		TargetSpend: p.lastTarget,
		ActualSpend: p.lastActual,
		Throttled:   p.throttled,
		AbsError:    p.absErr,
	}
	for i, a := range p.active {
		if a {
			m.Active++
			m.FactorSum += p.factor[i]
		}
	}
	return m
}
