package sharedwd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/pricing"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

// TestSoakEngine runs a long randomized simulation across engine
// configurations — random occurrence patterns, bid walks, budget edits on
// the fly, mixed pricing rules, reserve prices — asserting the global
// invariants after every round:
//
//   - per-advertiser spend never exceeds the (current) budget;
//   - revenue equals total spend;
//   - every winner's price is within [reserve, bid];
//   - winners belong to their phrase's interest set, at most one slot each.
//
// Skipped under -short; the full run is the failure-injection gauntlet.
func TestSoakEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(4242))
	for cfgIdx := 0; cfgIdx < 6; cfgIdx++ {
		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers = 80 + rng.Intn(120)
		wcfg.NumPhrases = 6 + rng.Intn(10)
		wcfg.NumTopics = 2 + rng.Intn(4)
		wcfg.Slots = 1 + rng.Intn(5)
		wcfg.Seed = rng.Int63()
		wcfg.MinBudget, wcfg.MaxBudget = 2, 30 // tight: budget edges matter
		w := workload.Generate(wcfg)

		ecfg := core.DefaultConfig()
		ecfg.Policy = core.BudgetPolicy(rng.Intn(2))
		ecfg.Sharing = core.SharingMode(rng.Intn(2))
		ecfg.Pricing = []pricing.Rule{pricing.FirstPrice, pricing.GSP, pricing.VCG}[rng.Intn(3)]
		ecfg.Reserve = []float64{0, 0.5}[rng.Intn(2)]
		ecfg.ClickHazard = 0.05 + rng.Float64()*0.9
		ecfg.ClickHorizon = 5 + rng.Intn(40)
		eng, err := core.New(w, ecfg)
		if err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 120; round++ {
			var occ []bool
			if rng.Intn(4) > 0 {
				occ = make([]bool, len(w.Interests))
				for q := range occ {
					occ[q] = rng.Intn(3) > 0
				}
			}
			rep := eng.Step(occ)
			for q, slots := range rep.Auctions {
				seen := map[int]bool{}
				for _, s := range slots {
					if seen[s.Advertiser] {
						t.Fatalf("cfg %d round %d: advertiser %d won two slots", cfgIdx, round, s.Advertiser)
					}
					seen[s.Advertiser] = true
					if !w.Interests[q].Contains(s.Advertiser) {
						t.Fatalf("cfg %d: winner %d not interested in phrase %d", cfgIdx, s.Advertiser, q)
					}
					if s.PricePaid < ecfg.Reserve-1e-9 {
						t.Fatalf("cfg %d: price %v below reserve %v", cfgIdx, s.PricePaid, ecfg.Reserve)
					}
					if s.PricePaid > w.Advertisers[s.Advertiser].Bid+1e-9 {
						// Throttled bids can sit below the stated bid, and
						// prices are bounded by the round bid, so the
						// stated bid is still an upper bound.
						t.Fatalf("cfg %d: price %v above stated bid", cfgIdx, s.PricePaid)
					}
				}
			}
			// Mid-flight perturbations: bids drift; occasionally a budget
			// is raised (never below spend — daily budgets don't shrink).
			w.PerturbBids(0.1)
			if rng.Intn(10) == 0 {
				i := rng.Intn(len(w.Advertisers))
				w.Advertisers[i].Budget += rng.Float64() * 5
			}
			checkAccounting(t, eng, w, cfgIdx, round)
		}
		eng.Drain()
		checkAccounting(t, eng, w, cfgIdx, -1)
	}
}

func checkAccounting(t *testing.T, eng *core.Engine, w *workload.Workload, cfg, round int) {
	t.Helper()
	total := 0.0
	for i := range w.Advertisers {
		spent := eng.Spent(i)
		if spent > w.Advertisers[i].Budget+1e-6 {
			t.Fatalf("cfg %d round %d: advertiser %d spent %v of budget %v",
				cfg, round, i, spent, w.Advertisers[i].Budget)
		}
		total += spent
	}
	if math.Abs(total-eng.Stats().Revenue) > 1e-6 {
		t.Fatalf("cfg %d round %d: revenue %v != Σspent %v", cfg, round, eng.Stats().Revenue, total)
	}
}

// TestSoakSortEngine is the per-phrase-quality counterpart, under the
// default throttled policy.
func TestSoakSortEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(777))
	for cfgIdx := 0; cfgIdx < 4; cfgIdx++ {
		wcfg := workload.DefaultConfig()
		wcfg.NumAdvertisers = 60 + rng.Intn(100)
		wcfg.NumPhrases = 6 + rng.Intn(8)
		wcfg.Slots = 1 + rng.Intn(4)
		wcfg.Seed = rng.Int63()
		wcfg.PerPhraseQuality = true
		wcfg.MinBudget, wcfg.MaxBudget = 2, 25
		w := workload.Generate(wcfg)
		ecfg := core.DefaultConfig()
		ecfg.Pricing = []pricing.Rule{pricing.FirstPrice, pricing.GSP, pricing.VCG}[rng.Intn(3)]
		eng, err := core.New(w, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 100; round++ {
			rep := eng.Step(nil)
			for q, slots := range rep.Auctions {
				for _, s := range slots {
					if !w.Interests[q].Contains(s.Advertiser) {
						t.Fatalf("cfg %d: winner %d not interested in phrase %d", cfgIdx, s.Advertiser, q)
					}
				}
			}
			w.PerturbBids(0.1)
		}
		eng.Drain()
		checkAccounting(t, eng, w, cfgIdx, 100)
	}
}

// TestSoakServer hammers the round server from many goroutines with the full
// traffic mix — matched phrases, junk queries, and aggressive deadlines —
// then shuts it down and verifies no goroutine leaks: everything the server
// started (the round loop) must be gone after Close.
func TestSoakServer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 120
	wcfg.NumPhrases = 12
	wcfg.Seed = 31
	w := workload.Generate(wcfg)
	cfg := server.DefaultConfig()
	cfg.RoundInterval = time.Millisecond
	cfg.MaxBatch = 64
	cfg.QueueDepth = 512
	cfg.BidWalkScale = 0.05
	s, err := server.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < 300; i++ {
				query := w.PhraseNames[rng.Intn(len(w.PhraseNames))]
				switch rng.Intn(10) {
				case 0: // junk that matches no phrase
					if _, err := s.Submit(context.Background(), "zzz no such phrase"); !errors.Is(err, ErrNoAuction) {
						t.Errorf("junk query: err = %v, want ErrNoAuction", err)
					}
				case 1: // deadline likely to fire mid-round
					ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
					s.Submit(ctx, query) // success and ctx error both legal
					cancel()
				default:
					if _, err := s.Submit(context.Background(), query); err != nil && !errors.Is(err, ErrOverloaded) {
						t.Errorf("submit: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	m := s.Metrics()
	if m.Answered == 0 {
		t.Fatal("soak answered no queries")
	}
	if m.Unmatched == 0 {
		t.Fatal("soak exercised no unmatched queries")
	}
	s.Close()
	if _, err := s.Submit(context.Background(), w.PhraseNames[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: err = %v, want ErrServerClosed", err)
	}
	// Request-leak check: the drain owes every admitted request — the ones
	// whose callers left at their deadline included — its one completion,
	// so every submitted query is under exactly one outcome counter.
	m = s.Metrics()
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != sum {
		t.Fatalf("after close: submitted %d != answered %d + unmatched %d + shed %d + timed out %d + expired %d",
			m.Submitted, m.Answered, m.Unmatched, m.Shed, m.TimedOut, m.Expired)
	}

	// Goroutine-leak check: after Close returns, the round loop must have
	// exited. Poll briefly — runtime
	// bookkeeping for exiting goroutines is asynchronous.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, after, buf[:n])
	}
}

// TestSoakShardedConcurrentClose is the shutdown gauntlet for a fleet: a
// 2-shard server is closed from several goroutines at once while submitters
// are still hammering it — so Close races in-flight rounds — and afterwards
// nothing the server started may survive.
func TestSoakShardedConcurrentClose(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	before := runtime.NumGoroutine()

	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 150
	wcfg.NumPhrases = 16
	wcfg.Seed = 92
	w := workload.Generate(wcfg)
	cfg := DefaultShardedServerConfig()
	cfg.Shards = 2
	cfg.Worker.RoundInterval = time.Millisecond
	cfg.Worker.MaxBatch = 32
	cfg.Worker.QueueDepth = 256
	s, err := NewShardedServer(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Submitters run until the server refuses them; Close fires mid-flight.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + g)))
			for i := 0; ; i++ {
				query := w.PhraseNames[rng.Intn(len(w.PhraseNames))]
				_, err := s.Submit(context.Background(), query)
				if errors.Is(err, ErrServerClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("submitter %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let several rounds close under load
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			s.Close() // concurrent + repeated Close must all return
		}()
	}
	closers.Wait()
	s.Close()
	wg.Wait()

	if m := s.Metrics(); m.Answered == 0 {
		t.Fatal("concurrent-close soak answered no queries")
	}

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, after, buf[:n])
	}
}

// TestSoakShardedCloseFullQueues is the shutdown regression for the sharded
// server: Close while every shard's round loop is stalled mid-round and
// every admission queue is full must resolve all blocked submitters and
// leak no goroutines. The BeforeResolve hook makes the scenario deterministic:
// each shard's first query enters a resolve and parks the loop; the next
// QueueDepth queries fill that shard's queue behind it; one more sheds.
// Only then is Close raced against the release of the stalled rounds.
func TestSoakShardedCloseFullQueues(t *testing.T) {
	before := runtime.NumGoroutine()

	const shards, queueDepth = 2, 3
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 60
	wcfg.NumPhrases = 10
	wcfg.Seed = 57
	w := workload.Generate(wcfg)

	var stalled atomic.Int32
	release := make(chan struct{})
	scfg := DefaultServerConfig()
	scfg.RoundInterval = time.Hour // no tick: only the loop closes batches
	scfg.MaxBatch = 1
	scfg.QueueDepth = queueDepth
	scfg.BeforeResolve = func() {
		stalled.Add(1)
		<-release
	}
	s, err := NewShardedServer(w, ShardedServerConfig{Worker: scfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	// One phrase per shard to address its queue directly.
	phraseOn := make([]int, shards)
	for sh := range phraseOn {
		phraseOn[sh] = -1
	}
	for q, sh := range s.Assignment() {
		if phraseOn[sh] == -1 {
			phraseOn[sh] = q
		}
	}

	ctx := context.Background()
	var inflight sync.WaitGroup
	submit := func(sh int) {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			// Under shutdown either outcome is legal: answered by a drain
			// round or refused with ErrClosed. Returning is the point.
			if _, err := s.Submit(ctx, w.PhraseNames[phraseOn[sh]]); err != nil && !errors.Is(err, ErrServerClosed) {
				t.Errorf("shard %d submitter: %v", sh, err)
			}
		}()
	}

	// Step 1: park every shard's round loop inside a one-query round.
	for sh := 0; sh < shards; sh++ {
		submit(sh)
	}
	for stalled.Load() < shards {
		time.Sleep(time.Millisecond)
	}

	// Step 2: fill every stalled shard's admission queue to the brim.
	for sh := 0; sh < shards; sh++ {
		for i := 0; i < queueDepth; i++ {
			submit(sh)
		}
	}
	for s.Metrics().QueueDepth < shards*queueDepth {
		time.Sleep(time.Millisecond)
	}

	// Step 3: the queues are provably full — one more query per shard must
	// shed deterministically, with routing context on the error.
	for sh := 0; sh < shards; sh++ {
		_, err := s.Submit(ctx, w.PhraseNames[phraseOn[sh]])
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shard %d: full-queue submit = %v, want ErrOverloaded", sh, err)
		}
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Shard != sh {
			t.Fatalf("shard %d: shed error lacks shard context: %v", sh, err)
		}
	}

	// Step 4: race Close against the stalled rounds, then release them.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	time.Sleep(5 * time.Millisecond) // let Close reach the stalled workers
	close(release)

	done := make(chan struct{})
	go func() {
		inflight.Wait()
		close(done)
	}()
	for _, ch := range []struct {
		name string
		c    chan struct{}
	}{{"Close", closed}, {"submitters", done}} {
		select {
		case <-ch.c:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not finish: shutdown deadlocked with full queues", ch.name)
		}
	}

	// Every admitted query was resolved by a drain round, none abandoned.
	m := s.Metrics()
	if want := int64(shards * (1 + queueDepth)); m.Answered != want {
		t.Fatalf("Answered = %d, want %d (drain rounds must resolve the full queues)", m.Answered, want)
	}
	if m.Shed != int64(shards) {
		t.Fatalf("Shed = %d, want %d", m.Shed, shards)
	}

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, after, buf[:n])
	}
}

// soakDetOutcome is a pure click-fate hash (advertiser, ctr, round), so
// the pacing soak's three phases see reproducible click behavior for the
// same displays without sharing RNG state.
func soakDetOutcome(horizon int) workload.OutcomeFunc {
	return func(adv int, price, ctr float64, round int) (bool, int) {
		x := uint64(adv)*0x9E3779B97F4A7C15 ^ math.Float64bits(ctr) ^ uint64(round)*0xBF58476D1CE4E5B9
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		clicked := float64(x>>40)/float64(1<<24) < ctr
		delay := 1 + int((x&0xFFFF)%uint64(horizon-1))
		return clicked, delay
	}
}

// TestSoakPacingDay is the day-in-the-life pacing soak (EXPERIMENTS.md §
// "Budget pacing"): three phases over one fixed traffic day.
//
//  1. Calibrate: unconstrained budgets measure each advertiser's natural
//     spend. Budgets are then set to 45% of natural for the hot
//     advertisers — demand exceeds budget ~2.2×, the regime pacing is for.
//  2. Unpaced baseline: budgets exhaust front-loaded — most hot
//     advertisers are spent out well before 80% of the day.
//  3. Paced: with the controller on, no advertiser exhausts before 80% of
//     the day, every hot advertiser still spends ≥ 90% of its budget by
//     the end, and the ledger keeps every advertiser within budget.
//
// Skipped under -short.
func TestSoakPacingDay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		day        = 1500
		budgetFrac = 0.45
		hotSpend   = 20.0 // natural spend above which an advertiser is "hot"
	)
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 120
	wcfg.NumPhrases = 16
	wcfg.NumTopics = 4
	wcfg.Seed = 77
	wcfg.MinBudget, wcfg.MaxBudget = 1e9, 1e9

	// One fixed traffic day shared by all phases.
	occRng := rand.New(rand.NewSource(101))
	wRates := workload.Generate(wcfg)
	days := make([][]bool, day)
	for r := range days {
		days[r] = make([]bool, wcfg.NumPhrases)
		for q := range days[r] {
			days[r][q] = occRng.Float64() < wRates.Rates[q]
		}
	}

	ecfg := core.DefaultConfig()
	ecfg.Policy = core.Naive
	ecfg.ClickOutcome = soakDetOutcome(ecfg.ClickHorizon)

	runDay := func(budgets []float64, pcfg *budget.PacerConfig) (*budget.Ledger, *budget.Pacer, []int) {
		w := workload.Generate(wcfg)
		if budgets != nil {
			for i := range w.Advertisers {
				w.Advertisers[i].Budget = budgets[i]
			}
		} else {
			budgets = make([]float64, len(w.Advertisers))
			for i, a := range w.Advertisers {
				budgets[i] = a.Budget
			}
		}
		ledger := budget.NewLedger(budgets)
		cfg := ecfg
		cfg.Ledger = ledger
		var pacer *budget.Pacer
		if pcfg != nil {
			var err error
			pacer, err = budget.NewPacer(ledger, budgets, *pcfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pacer = pacer
		}
		eng, err := core.New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		exhaustedAt := make([]int, len(budgets))
		for i := range exhaustedAt {
			exhaustedAt[i] = -1
		}
		for r := 0; r < day; r++ {
			eng.Step(days[r])
			for i := range budgets {
				// "Exhausted" = spent ≥ 95% of budget: clicks that would
				// overflow the remainder are forgiven, so Remaining never
				// reaches exactly zero.
				if exhaustedAt[i] < 0 && ledger.Spent(i) >= 0.95*budgets[i] {
					exhaustedAt[i] = r
				}
			}
		}
		eng.Drain()
		return ledger, pacer, exhaustedAt
	}

	// Phase 1: natural (unconstrained) spend.
	calib, _, _ := runDay(nil, nil)
	budgets := make([]float64, wcfg.NumAdvertisers)
	var hot []int
	for i := range budgets {
		natural := calib.Spent(i)
		if natural >= hotSpend {
			budgets[i] = budgetFrac * natural
			hot = append(hot, i)
		} else {
			budgets[i] = 1e6 // cold: budget never binds, stays out of the way
		}
	}
	if len(hot) < 12 {
		t.Fatalf("only %d hot advertisers — calibration degenerate", len(hot))
	}

	// Phase 2: unpaced. Demand 2.2× budget burns front-loaded.
	unpacedLedger, _, unpacedExhaust := runDay(budgets, nil)
	early := 0
	for _, i := range hot {
		if r := unpacedExhaust[i]; r >= 0 && r < int(0.8*day) {
			early++
		}
	}
	if early < len(hot)/2 {
		t.Fatalf("unpaced baseline: only %d/%d hot advertisers exhausted before 80%% of the day — not front-loaded, calibration is off", early, len(hot))
	}

	// Phase 3: paced over the same day.
	pcfg := budget.DefaultPacerConfig()
	pcfg.Horizon = day
	// The default 2% bid floor is too high for this workload's strongest
	// advertisers — they keep winning (and spending) even at MinFactor, so
	// give the controller more actuator range for the soak.
	pcfg.MinFactor = 1e-3
	pacedLedger, pacer, pacedExhaust := runDay(budgets, &pcfg)
	for _, i := range hot {
		if r := pacedExhaust[i]; r >= 0 && r < int(0.8*day) {
			t.Errorf("paced: advertiser %d exhausted at round %d, before 80%% of the %d-round day", i, r, day)
		}
		spent := pacedLedger.Spent(i)
		if spent < 0.9*budgets[i] {
			t.Errorf("paced: advertiser %d spent %.3f of budget %.3f (< 90%%)", i, spent, budgets[i])
		}
		if spent > budgets[i]+1e-9 {
			t.Errorf("paced: advertiser %d over budget: %v > %v", i, spent, budgets[i])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	m := pacer.Metrics()
	if m.Throttled == 0 || m.Rounds == 0 {
		t.Fatalf("pacing never engaged: %+v", m)
	}
	// Sanity: pacing should not cost much revenue versus the unpaced run —
	// the same budgets get spent, just spread across the day.
	if up, p := unpacedLedger.TotalSpent(), pacedLedger.TotalSpent(); p < 0.8*up {
		t.Fatalf("paced revenue %v collapsed versus unpaced %v", p, up)
	}
}
