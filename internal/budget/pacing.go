package budget

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sync"
	"sync/atomic"

	"sharedwd/internal/stats"
	"sharedwd/internal/workload"
)

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
// instead of front-loading. Spend is observed from the shared Ledger's
// settlements, so pacing reacts to what clicks actually charged, never to
// modeled estimates alone.
//
// A sync updates only the advertisers whose factor can change. Most sit in
// one of two regimes the control law cannot leave while their spend holds
// still: open (factor 1, spend at or below target), which the rising target
// curve only deepens, and floor (factor MinFactor, spend at or above
// target), which lasts until a round computable from the curve. Those are
// parked: open ones until their next charge or lifecycle event, floor ones
// also until that round, kept in an indexed min-heap of wake-up rounds.
// The Ledger flags every charged advertiser for the next sync, and an
// advertiser in neither regime is updated at every sync. Each update is the
// per-advertiser step of the O(advertisers) controller, expression for
// expression, so every factor is bit-identical to stepping everyone
// (DESIGN.md §15, "Stepping only what moved").
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
// applying a refresh means one Deposit on the shared ledger, so it must
// happen exactly once per fleet — the round-gated SyncRound gives that for
// free. Join/leave events reset or zero the joining advertiser's controller
// state; engines consume the same schedule independently for participation.
//
// Thread safety: SyncRound, Factor, Round, and Metrics are safe for
// concurrent use by any number of goroutines.
type Pacer struct {
	cfg       PacerConfig
	ledger    *Ledger
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
	// stepUp and stepDown are exp(±MaxStep): the multipliers of a clamped
	// step, which is what most rounds take.
	stepUp, stepDown float64

	// due is a bitset of the advertisers the next sync updates: interior
	// ones carried from the last sync, then those a lifecycle event, a
	// charge or a wake-up flags. wake holds parked floor advertisers, and
	// unsaturated parked ones, by the round they must next be updated.
	due  []uint64
	wake wakeHeap
	// state holds each advertiser's regime bits; parkedActual the epoch
	// spend it parked with. open and floor hold the parked advertisers'
	// share of the metric sums, linear in the round.
	state        []uint8
	parkedActual []float64
	open, floor  parkedSums

	rounds, epochs int64
	stepped        int64   // per-advertiser updates of active advertisers
	activeN        int     // active advertisers
	lastTarget     float64 // Σ target spend at the last sync
	lastActual     float64 // Σ realized epoch spend at the last sync
	throttled      int     // active advertisers with factor < 1
	absErr         stats.Summary
}

// Regime bits of Pacer.state.
const (
	parkedOpen  uint8 = 1 << iota // parked in open: factor 1, adj ≥ 0
	parkedFloor                   // parked in floor: factor MinFactor, adj ≤ 0
	parkedSat                     // its target curve had saturated when it parked
	inThrottled                   // counted in Pacer.throttled
	resetFactor                   // a join or refresh reset the factor to 1 for the next update
)

// NewPacer builds a controller over the ledger's budget state and attaches
// it to the ledger, which from then on flags every charged advertiser for
// the pacer's next sync; a ledger another pacer already drains is an error.
// budgets are the initial (refresh-level-0) budgets, indexed by advertiser
// ID; the lifecycle schedule is optional (nil means every advertiser
// active, no refresh epochs) but must cover the same universe when present.
func NewPacer(ledger *Ledger, budgets []float64, cfg PacerConfig, lc *workload.Lifecycle) (*Pacer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ledger == nil {
		return nil, fmt.Errorf("budget: pacer needs a budget ledger")
	}
	n := len(budgets)
	if ledger.N() != n {
		return nil, fmt.Errorf("budget: ledger over %d advertisers, pacer over %d", ledger.N(), n)
	}
	if lc != nil && lc.NumAdvertisers() != n {
		return nil, fmt.Errorf("budget: lifecycle over %d advertisers, pacer over %d", lc.NumAdvertisers(), n)
	}
	if err := ledger.attachPacer(); err != nil {
		return nil, err
	}
	p := &Pacer{
		cfg:          cfg,
		ledger:       ledger,
		lifecycle:    lc,
		budgets:      append([]float64(nil), budgets...),
		factorBits:   make([]atomic.Uint64, n),
		active:       make([]bool, n),
		epochStart:   make([]int, n),
		baseSpend:    make([]float64, n),
		epochBudget:  make([]float64, n),
		stepUp:       math.Exp(cfg.MaxStep),
		stepDown:     math.Exp(-cfg.MaxStep),
		due:          make([]uint64, (n+63)/64),
		wake:         newWakeHeap(n),
		state:        make([]uint8, n),
		parkedActual: make([]float64, n),
	}
	p.synced.Store(-1)
	for i := 0; i < n; i++ {
		p.active[i] = lc == nil || lc.InitiallyActive(i)
		p.baseSpend[i] = ledger.Spent(i)
		p.epochBudget[i] = ledger.Remaining(i)
		if p.active[i] {
			p.factorBits[i].Store(math.Float64bits(1))
			p.activeN++
			p.due[i>>6] |= 1 << (i & 63) // the first sync updates everyone
		}
	}
	return p, nil
}

// N returns the number of advertisers the pacer controls.
func (p *Pacer) N() int { return len(p.factorBits) }

// Round returns the last round the controller stepped (−1 before any sync).
func (p *Pacer) Round() int { return int(p.synced.Load()) }

// Factor returns advertiser i's current pacing factor in [0, 1]: the
// multiplier engines apply to the stated bid this round. 0 means the
// advertiser is inactive (left, or campaign not started). Lock-free.
func (p *Pacer) Factor(i int) float64 {
	return math.Float64frombits(p.factorBits[i].Load())
}

// SyncRound advances the controller to the given round. It is idempotent
// per round and shared-safe: the first caller for a round does the work,
// and callers for already-synced rounds return immediately on an atomic
// fast path. The work, in order: apply pending lifecycle events (joins,
// leaves, budget-refresh deposits) and flag their advertisers; drain the
// ledger's charged advertisers and flag them; flag every parked advertiser
// whose wake-up round has come; then update each flagged advertiser once,
// with the interior ones carried from the last sync. Every factor comes
// out as if every advertiser had been stepped from spend settled so far.
// Engines call it at the top of Step, before charging the round's clicks,
// so factors are a function of spend through the previous round.
// Steady-state syncs allocate nothing.
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
	p.ledger.drainCharged(p.markDue)
	for {
		i, at, ok := p.wake.min()
		if !ok || at > round {
			break
		}
		p.markDue(i)
	}
	// Every flagged advertiser has left the parked sums, so they hold this
	// round's terms of the rest; the updates below add their own.
	openTarget, floorTarget := p.open.target(round, p.cfg.Horizon), p.floor.target(round, p.cfg.Horizon)
	openActual, floorActual := p.open.actual.value(), p.floor.actual.value()
	targetSum := openTarget + floorTarget
	actualSum := openActual + floorActual
	absErrSum := (openTarget - openActual) + (floorActual - floorTarget)
	for w := range p.due {
		bits := p.due[w]
		p.due[w] = 0 // an interior advertiser sets its bit again for the next sync
		for ; bits != 0; bits &= bits - 1 {
			i := w<<6 | mathbits.TrailingZeros64(bits)
			if !p.active[i] {
				p.factorBits[i].Store(math.Float64bits(0))
				continue
			}
			target, actual, err := p.update(i, round)
			targetSum += target
			actualSum += actual
			if err > 0 {
				absErrSum += err
			} else {
				absErrSum -= err
			}
		}
	}
	p.lastTarget, p.lastActual = targetSum, actualSum
	if p.activeN > 0 {
		p.absErr.Add(absErrSum / float64(p.activeN))
	}
	p.rounds++
	p.synced.Store(int64(round))
}

// markDue flags advertiser i for the current sync's updates, taking it out
// of the wake-up heap and the parked sums. Called with mu held, before
// anything changes i's epoch state.
func (p *Pacer) markDue(i int) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if p.due[w]&bit != 0 {
		return
	}
	p.due[w] |= bit
	p.wake.remove(i)
	st := p.state[i]
	if st&(parkedOpen|parkedFloor) == 0 {
		return
	}
	sums := &p.open
	if st&parkedFloor != 0 {
		sums = &p.floor
	}
	sums.add(-1, p.parkedActual[i], p.epochBudget[i], p.epochStart[i], st&parkedSat != 0)
	p.state[i] = st &^ (parkedOpen | parkedFloor | parkedSat)
}

// applyEvent folds one lifecycle event into the controller state. Called
// with mu held, from SyncRound's cursor walk.
func (p *Pacer) applyEvent(ev workload.LifecycleEvent) {
	i := ev.Advertiser
	p.markDue(i)
	switch ev.Kind {
	case workload.LifecycleJoin:
		if p.active[i] {
			return
		}
		p.active[i] = true
		p.activeN++
		p.epochStart[i] = ev.Round
		p.baseSpend[i] = p.ledger.Spent(i)
		p.epochBudget[i] = p.ledger.Remaining(i)
		p.state[i] |= resetFactor
	case workload.LifecycleLeave:
		if p.active[i] {
			p.activeN--
		}
		if p.state[i]&inThrottled != 0 {
			p.throttled--
		}
		p.state[i] = 0
		p.active[i] = false
	case workload.LifecycleRefresh:
		want := ev.Budget
		if want <= 0 {
			want = p.budgets[i]
		}
		if cur := p.ledger.Remaining(i); want > cur {
			p.ledger.Deposit(i, want-cur)
		}
		p.epochStart[i] = ev.Round
		p.baseSpend[i] = p.ledger.Spent(i)
		p.epochBudget[i] = p.ledger.Remaining(i)
		if p.active[i] {
			p.state[i] |= resetFactor
		}
		p.epochs++
	}
}

// pressure is the controller's reading of advertiser i at round, given its
// epoch spend actual: the target-curve value, the tracking error, and adj,
// the log-factor step before clamping.
func (p *Pacer) pressure(i, round int, actual float64) (target, err, adj float64) {
	elapsed := float64(round - p.epochStart[i])
	frac := elapsed / float64(p.cfg.Horizon)
	if frac > 1 {
		frac = 1
	}
	target = p.epochBudget[i] * frac
	err = actual - target
	perRound := p.epochBudget[i] / float64(p.cfg.Horizon)
	if perRound < 1e-12 {
		perRound = 1e-12
	}
	adj = -p.cfg.Gain * err / perRound
	return target, err, adj
}

// update runs one controller step on active advertiser i at round — compare
// settled epoch spend against the target curve and nudge the factor
// multiplicatively toward it — and then parks or re-flags i by the regime
// the step left it in. It returns i's terms of this sync's metric sums.
// Called with mu held, at most once per advertiser per sync.
func (p *Pacer) update(i, round int) (target, actual, err float64) {
	actual = p.ledger.Spent(i) - p.baseSpend[i]
	target, err, adj := p.pressure(i, round, actual)
	f := p.Factor(i)
	if p.state[i]&resetFactor != 0 {
		f = 1
	}
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
	p.factorBits[i].Store(math.Float64bits(f))
	p.stepped++

	var st uint8
	if f < 1 {
		st = inThrottled
	}
	if was := p.state[i] & inThrottled; st != was {
		if was == 0 {
			p.throttled++
		} else {
			p.throttled--
		}
	}
	// A curve saturates at end; until then a parked advertiser's target
	// term is linear in the round, so it must be updated by end.
	end := p.epochStart[i] + p.cfg.Horizon
	sat := round >= end
	if sat {
		st |= parkedSat
	}
	switch {
	case f == 1 && adj >= 0:
		// Open: the target does not fall as rounds pass, so adj does not
		// either, and the step above repeats until spend moves.
		p.park(i, st|parkedOpen, &p.open, actual)
		if !sat {
			p.wake.push(i, end)
		}
	case f == p.cfg.MinFactor && adj <= 0:
		// Floor: the step above repeats until adj turns positive.
		p.park(i, st|parkedFloor, &p.floor, actual)
		if at, ok := p.floorWake(i, round, end, actual); ok {
			p.wake.push(i, at)
		}
	default:
		p.state[i] = st & inThrottled
		p.due[i>>6] |= 1 << (i & 63)
	}
	return target, actual, err
}

// park enters advertiser i, just updated with epoch spend actual, into the
// regime's parked sums under state st.
func (p *Pacer) park(i int, st uint8, sums *parkedSums, actual float64) {
	p.state[i] = st
	p.parkedActual[i] = actual
	sums.add(1, actual, p.epochBudget[i], p.epochStart[i], st&parkedSat != 0)
}

// floorWake returns the first round after round at which advertiser i,
// parked at the floor with epoch spend actual, has positive adj and so may
// leave the floor, or end, the round its target curve saturates, if that
// comes first. ok is false when neither comes: the curve has saturated
// below actual. adj does not fall as the round rises, so the search starts
// from where the real-valued curve crosses actual, a round or so early, and
// the exact expression settles it.
func (p *Pacer) floorWake(i, round, end int, actual float64) (at int, ok bool) {
	rises := func(r int) bool {
		_, _, adj := p.pressure(i, r, actual)
		return adj > 0
	}
	if round >= end {
		return round + 1, rises(round + 1)
	}
	if !rises(end) {
		return end, true
	}
	at = round + 1
	if b := p.epochBudget[i]; b > 0 && actual > 0 {
		if est := p.epochStart[i] + int(actual/b*float64(p.cfg.Horizon)); est > at {
			at = min(est, end)
		}
	}
	for at > round+1 && rises(at-1) {
		at--
	}
	for !rises(at) {
		at++
	}
	return at, true
}

// parkedSums holds one regime's share of the metric sums over its parked
// advertisers, in a form a sync reads without visiting them: an
// unsaturated target term epochBudget·(round−epochStart)/Horizon is linear
// in the round. Compensated sums keep the add-and-remove traffic from
// drifting.
type parkedSums struct {
	actual      ksum // Σ epoch spend
	satBudget   ksum // Σ epochBudget over saturated curves
	budget      ksum // Σ epochBudget over unsaturated curves
	budgetStart ksum // Σ epochBudget·epochStart over unsaturated curves
}

// add enters (sign 1) or removes (sign −1) one advertiser's terms.
func (s *parkedSums) add(sign, actual, budget float64, start int, sat bool) {
	s.actual.add(sign * actual)
	if sat {
		s.satBudget.add(sign * budget)
		return
	}
	s.budget.add(sign * budget)
	s.budgetStart.add(sign * budget * float64(start))
}

// target returns Σ target spend at round. The fused product keeps the
// difference exact when every parked curve restarted lately and the two
// sums nearly cancel.
func (s *parkedSums) target(round, horizon int) float64 {
	r := float64(round)
	lin := math.FMA(r, s.budget.sum, -s.budgetStart.sum) + (r*s.budget.comp - s.budgetStart.comp)
	return s.satBudget.value() + lin/float64(horizon)
}

// ksum is a Neumaier-compensated running sum.
type ksum struct{ sum, comp float64 }

func (k *ksum) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.comp += (k.sum - t) + x
	} else {
		k.comp += (x - t) + k.sum
	}
	k.sum = t
}

func (k ksum) value() float64 { return k.sum + k.comp }

// wakeHeap is an indexed binary min-heap of wake-up rounds with one slot per
// advertiser, allocated once.
type wakeHeap struct {
	ids []int32 // heap order
	at  []int   // at[i] is advertiser i's wake-up round while it is queued
	pos []int32 // pos[i] is i's index in ids, −1 when not queued
}

func newWakeHeap(n int) wakeHeap {
	h := wakeHeap{ids: make([]int32, 0, n), at: make([]int, n), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// min returns the queued advertiser with the earliest wake-up round.
func (h *wakeHeap) min() (i, at int, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	i = int(h.ids[0])
	return i, h.at[i], true
}

// push queues advertiser i, which must not be queued, to wake at round at.
func (h *wakeHeap) push(i, at int) {
	h.at[i] = at
	h.pos[i] = int32(len(h.ids))
	h.ids = append(h.ids, int32(i))
	h.up(len(h.ids) - 1)
}

// remove unqueues advertiser i if it is queued.
func (h *wakeHeap) remove(i int) {
	j := int(h.pos[i])
	if j < 0 {
		return
	}
	last := len(h.ids) - 1
	if j != last {
		h.swap(j, last)
	}
	h.ids = h.ids[:last]
	h.pos[i] = -1
	if j != last {
		h.down(j)
		h.up(j)
	}
}

func (h *wakeHeap) less(a, b int) bool { return h.at[h.ids[a]] < h.at[h.ids[b]] }

func (h *wakeHeap) swap(a, b int) {
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
	h.pos[h.ids[a]] = int32(a)
	h.pos[h.ids[b]] = int32(b)
}

func (h *wakeHeap) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			return
		}
		h.swap(j, parent)
		j = parent
	}
}

func (h *wakeHeap) down(j int) {
	n := len(h.ids)
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, j) {
			return
		}
		h.swap(j, c)
		j = c
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
	// Stepped counts per-advertiser controller updates. A sync updates only
	// the advertisers whose factor can change, so Stepped/(Rounds·Active)
	// is the share of the fleet the controller actually visits.
	Stepped int64 `json:"stepped"`
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
	out.Stepped += o.Stepped
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
		Advertisers: len(p.factorBits),
		Rounds:      p.rounds,
		Epochs:      p.epochs,
		Stepped:     p.stepped,
		TargetSpend: p.lastTarget,
		ActualSpend: p.lastActual,
		Throttled:   p.throttled,
		AbsError:    p.absErr,
	}
	for i, a := range p.active {
		if a {
			m.Active++
			m.FactorSum += p.Factor(i)
		}
	}
	return m
}
