package budget

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sharedwd/internal/stats"
	"sharedwd/internal/workload"
)

// refPacer is the O(advertisers) controller Pacer replaced, kept as the
// test oracle: every sync steps every advertiser with the control law
// written once, in its original form. FuzzPacer and
// TestPacerMatchesReference hold Pacer's factors bit-equal to it and its
// metric sums to within rounding. It reads and deposits into its own
// ledger and never drains the charged bits.
type refPacer struct {
	cfg       PacerConfig
	auth      *Ledger
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

// newRefPacer builds the reference controller over the ledger's budget
// state, with NewPacer's arguments.
func newRefPacer(auth *Ledger, budgets []float64, cfg PacerConfig, lc *workload.Lifecycle) (*refPacer, error) {
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
	p := &refPacer{
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

// Round returns the last round the controller stepped (−1 before any sync).
func (p *refPacer) Round() int { return int(p.synced.Load()) }

// Factor returns advertiser i's current pacing factor in [0, 1]: the
// multiplier engines apply to the stated bid this round. 0 means the
// advertiser is inactive (left, or campaign not started). Lock-free.
func (p *refPacer) Factor(i int) float64 {
	return math.Float64frombits(p.factorBits[i].Load())
}

// SyncRound advances the controller to the given round. It is idempotent
// per round and shared-safe: the first caller for a round applies pending
// lifecycle events (joins, leaves, budget-refresh deposits) and recomputes
// every factor from spend settled so far; callers for already-synced rounds
// return immediately on an atomic fast path. Engines call it at the top of
// Step, before charging the round's clicks, so factors are a function of
// spend through the previous round. Steady-state syncs allocate nothing.
func (p *refPacer) SyncRound(round int) {
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
func (p *refPacer) applyEvent(ev workload.LifecycleEvent) {
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
func (p *refPacer) step(round int) {
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

// Metrics returns the controller's current observability snapshot.
func (p *refPacer) Metrics() PacingMetrics {
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

// pacerPair drives a Pacer and the reference through the same history, each
// over its own ledger (a refresh deposits, so one ledger cannot serve both),
// and compares them after every sync.
type pacerPair struct {
	t            *testing.T
	got          *Pacer
	ref          *refPacer
	gotL, refL   *Ledger
	round, syncs int
}

func newPacerPair(t *testing.T, budgets []float64, cfg PacerConfig, lc *workload.Lifecycle, preSpend func(*Ledger)) *pacerPair {
	t.Helper()
	pp := &pacerPair{t: t, gotL: NewLedger(budgets), refL: NewLedger(budgets)}
	if preSpend != nil {
		preSpend(pp.gotL)
		preSpend(pp.refL)
	}
	var err error
	if pp.got, err = NewPacer(pp.gotL, budgets, cfg, lc); err != nil {
		t.Fatal(err)
	}
	if pp.ref, err = newRefPacer(pp.refL, budgets, cfg, lc); err != nil {
		t.Fatal(err)
	}
	return pp
}

// charge charges both ledgers; they must agree on whether it went through.
func (pp *pacerPair) charge(i int, price float64) bool {
	ok := pp.gotL.TryCharge(i, price)
	if ok != pp.refL.TryCharge(i, price) {
		pp.t.Fatalf("round %d: ledgers disagree on charging %v to advertiser %d", pp.round, price, i)
	}
	return ok
}

// sync syncs both controllers at round and compares every factor bit for
// bit, the counters exactly and the metric sums to rounding.
func (pp *pacerPair) sync(round int) {
	t := pp.t
	t.Helper()
	pp.round = round
	pp.got.SyncRound(round)
	pp.ref.SyncRound(round)
	pp.syncs++
	if g, r := pp.got.Round(), pp.ref.Round(); g != r {
		t.Fatalf("round %d: Round() %d, reference %d", round, g, r)
	}
	for i := 0; i < pp.got.N(); i++ {
		g, r := pp.got.Factor(i), pp.ref.Factor(i)
		if math.Float64bits(g) != math.Float64bits(r) {
			t.Fatalf("round %d advertiser %d: factor %v (%#x), reference %v (%#x)",
				round, i, g, math.Float64bits(g), r, math.Float64bits(r))
		}
		if g, r := pp.gotL.Spent(i), pp.refL.Spent(i); math.Float64bits(g) != math.Float64bits(r) {
			t.Fatalf("round %d advertiser %d: ledger spent %v, reference %v", round, i, g, r)
		}
	}
	gm, rm := pp.got.Metrics(), pp.ref.Metrics()
	if gm.Throttled != rm.Throttled || gm.Active != rm.Active || gm.Rounds != rm.Rounds || gm.Epochs != rm.Epochs {
		t.Fatalf("round %d: metrics %+v, reference %+v", round, gm, rm)
	}
	for _, c := range []struct {
		name     string
		got, ref float64
	}{
		{"TargetSpend", gm.TargetSpend, rm.TargetSpend},
		{"ActualSpend", gm.ActualSpend, rm.ActualSpend},
		{"AbsError.Mean", gm.AbsError.Mean(), rm.AbsError.Mean()},
	} {
		if math.Abs(c.got-c.ref) > 1e-9*math.Max(1, math.Abs(c.ref)) {
			t.Fatalf("round %d: %s %v, reference %v", round, c.name, c.got, c.ref)
		}
	}
}

// fuzzBytes reads a fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzPacer holds Pacer to the reference controller over arbitrary
// histories: random charges (some of which a spent budget refuses, and
// bursts scaled by each advertiser's factor so the loop reaches the floor
// and comes back), join, leave and refresh events, syncs that skip rounds
// or repeat one, spend settled before the pacer attaches, and controller
// tunings that put advertisers in every regime from the first sync.
func FuzzPacer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 9, 20, 10, 3, 30, 10, 10, 10, 10, 5, 1, 2, 1, 3, 12, 2, 2, 2, 1, 7, 2, 1, 2, 0, 2, 3, 2, 1})
	f.Add([]byte{7, 3, 255, 60, 1, 0, 40, 40, 1, 200, 60, 90, 0, 8, 5, 0, 1, 9, 1, 2, 20, 2, 0, 3, 6,
		3, 9, 2, 1, 3, 9, 2, 1, 3, 9, 2, 1, 3, 9, 2, 1, 3, 9, 2, 1, 0, 0, 255, 2, 3})
	// Found by the fuzzer: an advertiser parked at the floor must wake at the
	// first round its target passes its spend, not one later.
	f.Add([]byte("X0002000000000000000000000007000021"))
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 6; s++ {
		seed := make([]byte, 400)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%12
		cfg := PacerConfig{
			Horizon:   1 + in.next()%40,
			Gain:      float64(1+in.next()) / 64,
			MaxStep:   float64(1+in.next()) / 128,
			MinFactor: []float64{0.02, 0.3, 0.9, 1}[in.next()%4],
		}
		budgets := make([]float64, n)
		for i := range budgets {
			budgets[i] = float64(in.next()%64) / 2
		}
		pre := make([]float64, n)
		for i := range pre {
			pre[i] = float64(in.next()%16) / 4
		}
		var events []workload.LifecycleEvent
		for e := in.next() % 16; e > 0; e-- {
			ev := workload.LifecycleEvent{
				Round:      in.next() % 64,
				Kind:       workload.LifecycleKind(in.next() % 3),
				Advertiser: in.next() % n,
			}
			if ev.Kind == workload.LifecycleRefresh && in.next()%2 == 0 {
				ev.Budget = float64(in.next()) / 4
			}
			events = append(events, ev)
		}
		var lc *workload.Lifecycle
		if len(events) > 0 {
			var err error
			if lc, err = workload.NewLifecycle(n, events); err != nil {
				t.Fatal(err)
			}
		}
		pp := newPacerPair(t, budgets, cfg, lc, func(l *Ledger) {
			for i, p := range pre {
				l.TryCharge(i, p)
			}
		})
		round := 0
		pp.sync(round)
		for len(in) > 0 {
			switch op := in.next(); op % 4 {
			case 0, 1: // one charge
				pp.charge(in.next()%n, float64(1+in.next())/32)
			case 2: // a sync that repeats this round or skips ahead
				round += in.next() % 4
				pp.sync(round)
			case 3: // a burst that follows the factors, as clicks on paced bids do
				scale := float64(1+in.next()) / 16
				for i := 0; i < n; i++ {
					if f := pp.got.Factor(i); f > 0 {
						pp.charge(i, scale*f*float64(1+i%3))
					}
				}
			}
		}
		pp.sync(round + 1)
	})
}

// TestPacerMatchesReference runs a seeded paced day on Pacer and the
// reference: a few hundred advertisers, clicks whose chance follows each
// pacing factor, budgets of every depth (some run out), churn joins and
// leaves, refresh epochs and syncs that skip rounds. Every factor must be
// bit-equal at every sync, and the run must visit every regime, park
// advertisers and wake them from the floor.
func TestPacerMatchesReference(t *testing.T) {
	const (
		n       = 300
		horizon = 150
		rounds  = 1200
	)
	rng := rand.New(rand.NewSource(7))
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 5 + 95*rng.Float64()
	}
	var events []workload.LifecycleEvent
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			start := rng.Intn(rounds)
			events = append(events, workload.LifecycleEvent{Round: start, Kind: workload.LifecycleJoin, Advertiser: i})
			if end := start + 1 + rng.Intn(rounds-start); end < rounds {
				events = append(events, workload.LifecycleEvent{Round: end, Kind: workload.LifecycleLeave, Advertiser: i})
			}
		}
	}
	for r := 400; r < rounds; r += 400 {
		for i := 0; i < n; i++ {
			events = append(events, workload.LifecycleEvent{Round: r, Kind: workload.LifecycleRefresh, Advertiser: i})
		}
	}
	lc, err := workload.NewLifecycle(n, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	pp := newPacerPair(t, budgets, cfg, lc, nil)
	// Natural spend per round from 0.2× to 5× the target rate.
	price := make([]float64, n)
	for i := range price {
		price[i] = 2 + 2*rng.Float64()
	}
	rate := make([]float64, n)
	for i := range rate {
		rate[i] = (0.2 + 4.8*rng.Float64()) * budgets[i] / horizon / price[i]
	}
	var woken, open, floor, interior int
	for r := 0; r < rounds; r++ {
		if rng.Intn(10) == 0 {
			r++ // skip a round
		}
		if i, at, ok := pp.got.wake.min(); ok && at <= r && pp.got.state[i]&parkedFloor != 0 {
			woken++
		}
		pp.sync(r)
		if rng.Intn(20) == 0 {
			pp.sync(r) // a second engine of the fleet arriving late
		}
		for i := 0; i < n; i++ {
			switch st := pp.got.state[i]; {
			case st&parkedOpen != 0:
				open++
			case st&parkedFloor != 0:
				floor++
			case pp.got.active[i]:
				interior++
			}
			if rng.Float64() < rate[i]*pp.got.Factor(i) {
				pp.charge(i, price[i])
			}
		}
	}
	m := pp.got.Metrics()
	t.Logf("%d syncs: %d updates (%.3f of active×rounds); parked open %d, floor %d, interior %d advertiser-syncs; %d floor wake-ups",
		pp.syncs, m.Stepped, float64(m.Stepped)/float64(m.Rounds*int64(m.Active)), open, floor, interior, woken)
	if open == 0 || floor == 0 || interior == 0 || woken == 0 {
		t.Fatalf("regimes visited: open %d, floor %d, interior %d, floor wake-ups %d; want all", open, floor, interior, woken)
	}
	if m.Stepped >= m.Rounds*int64(n) {
		t.Fatalf("%d updates over %d rounds of %d advertisers: nothing was parked", m.Stepped, m.Rounds, n)
	}
}
