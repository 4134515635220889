package budget

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sharedwd/internal/workload"
)

func TestPacerConfigValidate(t *testing.T) {
	if err := DefaultPacerConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []PacerConfig{
		{Horizon: 0, Gain: 0.1, MaxStep: 0.3, MinFactor: 0.1},
		{Horizon: 100, Gain: -1, MaxStep: 0.3, MinFactor: 0.1},
		{Horizon: 100, Gain: 0.1, MaxStep: 0, MinFactor: 0.1},
		{Horizon: 100, Gain: 0.1, MaxStep: 0.3, MinFactor: -0.1},
		{Horizon: 100, Gain: 0.1, MaxStep: 0.3, MinFactor: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, cfg)
		}
	}
}

func TestNewPacerValidation(t *testing.T) {
	ledger := NewLedger([]float64{10, 10})
	if _, err := NewPacer(nil, []float64{10, 10}, DefaultPacerConfig(), nil); err == nil {
		t.Fatal("nil authority accepted")
	}
	if _, err := NewPacer(ledger, []float64{10, 10}, PacerConfig{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
	lc, err := workload.NewLifecycle(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPacer(ledger, []float64{10, 10}, DefaultPacerConfig(), lc); err == nil {
		t.Fatal("mismatched lifecycle universe accepted")
	}
	if _, err := NewPacer(ledger, []float64{10, 10, 10}, DefaultPacerConfig(), nil); err == nil {
		t.Fatal("mismatched ledger universe accepted")
	}
	if _, err := NewPacer(ledger, []float64{10, 10}, DefaultPacerConfig(), nil); err != nil {
		t.Fatalf("first pacer on a ledger: %v", err)
	}
	// Draining clears the charged bits, so a second pacer would miss the
	// first one's charges and the first the second's.
	if _, err := NewPacer(ledger, []float64{10, 10}, DefaultPacerConfig(), nil); err == nil {
		t.Fatal("second pacer on one ledger accepted")
	}
}

// pacedSim drives the controller against a synthetic spend process where
// realized spend responds linearly to the published factor — each round,
// advertiser i spends rate_i x Factor(i), budget permitting. It is the
// feedback loop the controller faces in the engines, minus the auction.
type pacedSim struct {
	t      *testing.T
	ledger *Ledger
	pacer  *Pacer
	rates  []float64
}

func newPacedSim(t *testing.T, budgets, rates []float64, cfg PacerConfig, lc *workload.Lifecycle) *pacedSim {
	t.Helper()
	ledger := NewLedger(budgets)
	pacer, err := NewPacer(ledger, budgets, cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	return &pacedSim{t: t, ledger: ledger, pacer: pacer, rates: rates}
}

// round syncs the controller and settles one round of factor-scaled spend.
func (s *pacedSim) round(r int) {
	s.pacer.SyncRound(r)
	for i, rate := range s.rates {
		want := rate * s.pacer.Factor(i)
		if want <= 0 {
			continue
		}
		if remaining := s.ledger.Remaining(i); want > remaining {
			want = remaining
		}
		if want > 0 {
			s.ledger.TryCharge(i, want)
		}
	}
}

// TestPacerConvergesToTargetCurve: an advertiser whose natural spend rate
// is 5x its target curve must be throttled onto the curve — the budget
// lasts the horizon (>= 90% spent at the end, not exhausted before 80% of
// it) instead of exhausting front-loaded at ~20%.
func TestPacerConvergesToTargetCurve(t *testing.T) {
	const (
		horizon = 400
		budget  = 100.0
		rate    = 5 * budget / horizon // 5x the per-round target
	)
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	s := newPacedSim(t, []float64{budget}, []float64{rate}, cfg, nil)

	exhaustedAt := -1
	for r := 0; r < horizon; r++ {
		s.round(r)
		if exhaustedAt < 0 && s.ledger.Remaining(0) <= 1e-9 {
			exhaustedAt = r
		}
		// The spend curve must never run far ahead of the target curve:
		// allow slack for the controller's settling transient.
		target := budget * float64(r+1) / horizon
		if spent := s.ledger.Spent(0); spent > target+0.15*budget {
			t.Fatalf("round %d: spent %v, target %v — front-loaded", r, spent, target)
		}
	}
	spent := s.ledger.Spent(0)
	if spent < 0.9*budget {
		t.Fatalf("spent %v of %v by the horizon, want >= 90%%", spent, budget)
	}
	if exhaustedAt >= 0 && exhaustedAt < int(0.8*horizon) {
		t.Fatalf("budget exhausted at round %d, before 80%% of the %d-round horizon", exhaustedAt, horizon)
	}
	m := s.pacer.Metrics()
	if !m.Enabled || m.Rounds != horizon || m.Throttled != 1 {
		t.Fatalf("metrics %+v: want enabled, %d rounds, 1 throttled", m, horizon)
	}
	if f := s.pacer.Factor(0); f >= 1 || f < cfg.MinFactor {
		t.Fatalf("terminal factor %v outside [%v, 1)", f, cfg.MinFactor)
	}
}

// TestPacerStepMatchesFormula holds step's shortcuts — exp(±MaxStep)
// computed once for clamped steps, no exp at all for an open advertiser
// nudged upward — to the controller's formula, factor bits and all:
// f ← clamp(f·exp(clamp(−Gain·err/perRound, ±MaxStep)), MinFactor, 1).
// The spend rates put advertisers in every regime (never throttled, pinned
// at the floor, and hunting around the curve with unclamped steps).
func TestPacerStepMatchesFormula(t *testing.T) {
	const horizon = 200
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	budgets := []float64{100, 100, 100, 100}
	perRound := budgets[0] / horizon
	rates := []float64{0.5 * perRound, 1.02 * perRound, 3 * perRound, 400 * perRound}
	s := newPacedSim(t, budgets, rates, cfg, nil)
	want := []float64{1, 1, 1, 1}
	regimes := map[string]int{}
	for r := 0; r < horizon; r++ {
		for i := range want {
			err := s.ledger.Spent(i) - budgets[i]*(float64(r)/horizon)
			adj := -cfg.Gain * err / perRound
			switch {
			case want[i] == 1 && adj >= 0:
				regimes["open"]++
			case adj >= cfg.MaxStep || adj <= -cfg.MaxStep:
				regimes["clamped"]++
			default:
				regimes["free"]++
			}
			adj = math.Max(-cfg.MaxStep, math.Min(cfg.MaxStep, adj))
			want[i] = math.Max(cfg.MinFactor, math.Min(1, want[i]*math.Exp(adj)))
		}
		s.round(r)
		for i, w := range want {
			if got := s.pacer.Factor(i); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("round %d advertiser %d: factor %v, formula %v", r, i, got, w)
			}
		}
	}
	if regimes["open"] == 0 || regimes["clamped"] == 0 || regimes["free"] == 0 {
		t.Fatalf("regimes visited: %v, want all three", regimes)
	}
}

// TestPacerUnderspenderStaysOpen: an advertiser whose natural rate cannot
// reach the target curve must never be throttled — the factor stays at 1.
func TestPacerUnderspenderStaysOpen(t *testing.T) {
	cfg := DefaultPacerConfig()
	cfg.Horizon = 200
	s := newPacedSim(t, []float64{1000}, []float64{1}, cfg, nil) // target 5/round, rate 1
	for r := 0; r < 200; r++ {
		s.round(r)
		if f := s.pacer.Factor(0); f != 1 {
			t.Fatalf("round %d: underspender throttled to %v", r, f)
		}
	}
	if m := s.pacer.Metrics(); m.Throttled != 0 {
		t.Fatalf("metrics report %d throttled", m.Throttled)
	}
}

// TestPacerRefreshEpoch: a budget-refresh event deposits the top-up into
// the authority exactly once, restarts the target curve, and resets the
// advertiser's factor to 1.
func TestPacerRefreshEpoch(t *testing.T) {
	const (
		horizon = 100
		budget  = 50.0
	)
	lc, err := workload.NewLifecycle(1, []workload.LifecycleEvent{
		{Round: horizon, Kind: workload.LifecycleRefresh, Advertiser: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	s := newPacedSim(t, []float64{budget}, []float64{5 * budget / horizon}, cfg, lc)

	for r := 0; r < horizon; r++ {
		s.round(r)
	}
	preSpent := s.ledger.Spent(0)
	preFactor := s.pacer.Factor(0)
	if preFactor >= 1 {
		t.Fatalf("factor %v not throttled before the refresh", preFactor)
	}

	s.pacer.SyncRound(horizon) // refresh applies at the top of this sync
	if got := s.ledger.Spent(0); got < preSpent {
		t.Fatalf("spent went backwards: %v -> %v", preSpent, got)
	}
	// The deposit restored remaining to the initial budget; round
	// `horizon`'s own spend has not been charged yet.
	if rem := s.ledger.Remaining(0); math.Abs(rem-budget) > 1e-9 {
		t.Fatalf("remaining %v after refresh, want %v", rem, budget)
	}
	m := s.pacer.Metrics()
	if m.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1", m.Epochs)
	}
	// The refresh reset the factor to 1; the same sync's controller step
	// sees a zero-length epoch (target = actual = 0) and leaves it there.
	if f := s.pacer.Factor(0); f != 1 {
		t.Fatalf("factor %v after refresh, want 1 (was %v)", f, preFactor)
	}

	for i, rate := range s.rates { // settle round `horizon` itself
		s.ledger.TryCharge(i, rate*s.pacer.Factor(i))
	}
	for r := horizon + 1; r < 2*horizon; r++ {
		s.round(r)
	}
	// Two fully-paced epochs: total spend exceeds one epoch's budget and
	// stays within both.
	spent := s.ledger.Spent(0)
	if spent <= 1.5*budget || spent > 2*budget+1e-9 {
		t.Fatalf("spent %v over two epochs of %v", spent, budget)
	}
}

// TestPacerJoinLeave: an advertiser joining mid-horizon has factor 0 (does
// not bid) before its join and a live factor after; leaving zeroes it
// again. The Active metric tracks the transitions.
func TestPacerJoinLeave(t *testing.T) {
	lc, err := workload.NewLifecycle(2, []workload.LifecycleEvent{
		{Round: 30, Kind: workload.LifecycleJoin, Advertiser: 1},
		{Round: 60, Kind: workload.LifecycleLeave, Advertiser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPacerConfig()
	cfg.Horizon = 100
	budgets := []float64{100, 100}
	s := newPacedSim(t, budgets, []float64{1, 1}, cfg, lc)

	s.round(0)
	if s.pacer.Factor(1) != 0 {
		t.Fatalf("factor %v before join, want 0", s.pacer.Factor(1))
	}
	if m := s.pacer.Metrics(); m.Active != 1 {
		t.Fatalf("active = %d before join, want 1", m.Active)
	}
	for r := 1; r < 30; r++ {
		s.round(r)
	}
	if s.ledger.Spent(1) != 0 {
		t.Fatalf("inactive advertiser spent %v", s.ledger.Spent(1))
	}
	s.round(30)
	if s.pacer.Factor(1) <= 0 {
		t.Fatalf("factor %v after join, want > 0", s.pacer.Factor(1))
	}
	if m := s.pacer.Metrics(); m.Active != 2 {
		t.Fatalf("active = %d after join, want 2", m.Active)
	}
	for r := 31; r < 60; r++ {
		s.round(r)
	}
	joined := s.ledger.Spent(1)
	if joined <= 0 {
		t.Fatal("joined advertiser never spent")
	}
	s.round(60)
	if s.pacer.Factor(1) != 0 {
		t.Fatalf("factor %v after leave, want 0", s.pacer.Factor(1))
	}
	for r := 61; r < 100; r++ {
		s.round(r)
	}
	if got := s.ledger.Spent(1); got != joined {
		t.Fatalf("left advertiser kept spending: %v -> %v", joined, got)
	}
	if m := s.pacer.Metrics(); m.Active != 1 {
		t.Fatalf("active = %d after leave, want 1", m.Active)
	}
}

// TestPacerSyncRoundIdempotent: concurrent engines (shards) racing to sync
// the same round must apply the controller step exactly once per round —
// the property the fleet's shared controller relies on. Run under -race.
func TestPacerSyncRoundIdempotent(t *testing.T) {
	const (
		shards  = 8
		rounds  = 200
		horizon = 400
	)
	budgets := []float64{100, 100, 100}
	ledger := NewLedger(budgets)
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	pacer, err := NewPacer(ledger, budgets, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < shards; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pacer.SyncRound(r)
				for i := range budgets {
					_ = pacer.Factor(i)
				}
			}()
		}
		wg.Wait()
		for i := range budgets {
			ledger.TryCharge(i, 0.1)
		}
	}
	if m := pacer.Metrics(); m.Rounds != rounds {
		t.Fatalf("controller stepped %d times over %d rounds", m.Rounds, rounds)
	}
	if got := pacer.Round(); got != rounds-1 {
		t.Fatalf("synced round %d, want %d", got, rounds-1)
	}
}

// TestPacerConcurrentCharges: shards charge the shared ledger while the
// pacer drains it. A charge's spend is in the ledger before its bit, so no
// charge goes unseen: once the chargers stop, one more sync leaves every
// parked advertiser's recorded epoch spend equal to the ledger's. Run
// under -race.
func TestPacerConcurrentCharges(t *testing.T) {
	const (
		n       = 200
		shards  = 4
		charges = 2000
	)
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 1e6 // deep enough that everyone stays open
	}
	ledger := NewLedger(budgets)
	cfg := DefaultPacerConfig()
	cfg.Horizon = 1 << 20
	pacer, err := NewPacer(ledger, budgets, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pacer.SyncRound(0)
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for c := 0; c < charges; c++ {
				ledger.TryCharge(rng.Intn(n), 0.01)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	round := 1
	for running := true; running; round++ {
		select {
		case <-done:
			running = false
		default:
		}
		pacer.SyncRound(round)
	}
	pacer.SyncRound(round)
	pacer.mu.Lock()
	defer pacer.mu.Unlock()
	for i := 0; i < n; i++ {
		if pacer.state[i]&parkedOpen == 0 {
			t.Fatalf("advertiser %d not parked open (state %#x)", i, pacer.state[i])
		}
		if got, want := pacer.parkedActual[i], ledger.Spent(i)-pacer.baseSpend[i]; got != want {
			t.Fatalf("advertiser %d parked with epoch spend %v, ledger says %v: a charge went unseen", i, got, want)
		}
	}
}

// TestPacingMetricsMerge: field-wise aggregation across fleets.
func TestPacingMetricsMerge(t *testing.T) {
	a := PacingMetrics{Enabled: true, Advertisers: 2, Active: 1, Rounds: 10, Epochs: 1, Stepped: 4,
		TargetSpend: 5, ActualSpend: 4, FactorSum: 0.5, Throttled: 1}
	b := PacingMetrics{Advertisers: 3, Active: 3, Rounds: 7, Stepped: 9, TargetSpend: 1, ActualSpend: 2, FactorSum: 3}
	got := a.Merge(b)
	if !got.Enabled || got.Advertisers != 5 || got.Active != 4 || got.Rounds != 17 ||
		got.Epochs != 1 || got.Stepped != 13 || got.TargetSpend != 6 || got.ActualSpend != 6 ||
		got.FactorSum != 3.5 || got.Throttled != 1 {
		t.Fatalf("merge = %+v", got)
	}
}

// TestPacerSyncZeroAlloc: a steady-state sync allocates nothing, with
// charges to drain, floor advertisers to wake and interior ones to update
// in every measured sync. Clicks land with a chance that follows each
// factor, as on paced bids; refresh epochs restart every curve.
func TestPacerSyncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	const (
		n       = 1024
		horizon = 400
	)
	var events []workload.LifecycleEvent
	for r := horizon; r < 100*horizon; r += horizon {
		for i := 0; i < n; i++ {
			events = append(events, workload.LifecycleEvent{Round: r, Kind: workload.LifecycleRefresh, Advertiser: i})
		}
	}
	lc, err := workload.NewLifecycle(n, events)
	if err != nil {
		t.Fatal(err)
	}
	// Even advertisers can afford their clicks and stay open; odd ones
	// would overspend their budget threefold and live at the floor.
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 100
		if i%2 == 1 {
			budgets[i] = 10
		}
	}
	cfg := DefaultPacerConfig()
	cfg.Horizon = horizon
	ledger := NewLedger(budgets)
	p, err := NewPacer(ledger, budgets, cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	round := 0
	var charged, woken, interior int
	step := func() {
		for j := 0; j < 256; j++ {
			i := rng.Intn(n)
			if rng.Float64() < p.Factor(i) && ledger.TryCharge(i, 0.3+0.6*rng.Float64()) {
				charged++
			}
		}
		if _, at, ok := p.wake.min(); ok && at <= round {
			woken++
		}
		for _, w := range p.due {
			if w != 0 {
				interior++
				break
			}
		}
		p.SyncRound(round)
		round++
	}
	// Measure between refreshes, once the floor has filled.
	for round < horizon+50 {
		step()
	}
	charged, woken, interior = 0, 0, 0
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("steady-state SyncRound allocated %v times per sync", allocs)
	}
	// AllocsPerRun calls step once more to warm up.
	if charged < runs+1 || woken != runs+1 || interior != runs+1 {
		t.Fatalf("over %d syncs: %d charges, %d with a wake-up, %d with an interior advertiser; want a charge, a wake-up and an interior advertiser in every sync",
			runs+1, charged, woken, interior)
	}
}
