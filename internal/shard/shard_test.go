package shard

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/bitset"
	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

func testWorkload(t *testing.T, advertisers, phrases int, seed int64) *workload.Workload {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = advertisers
	wcfg.NumPhrases = phrases
	wcfg.NumTopics = 4
	wcfg.Seed = seed
	return workload.Generate(wcfg)
}

func testConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Worker.RoundInterval = 2 * time.Millisecond
	cfg.Worker.MaxBatch = 64
	cfg.Worker.QueueDepth = 256
	return cfg
}

// closeAndCheckAccounting closes the fleet and asserts that every submitted
// query was counted under exactly one outcome.
func closeAndCheckAccounting(t *testing.T, s *Server) server.Metrics {
	t.Helper()
	s.Close()
	m := s.Metrics()
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != sum {
		t.Errorf("submitted %d != answered %d + unmatched %d + shed %d + timed out %d + expired %d",
			m.Submitted, m.Answered, m.Unmatched, m.Shed, m.TimedOut, m.Expired)
	}
	return m
}

func TestShardedConfigValidate(t *testing.T) {
	cfg := testConfig(0)
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted zero shards")
	}
	cfg = testConfig(2)
	cfg.Worker.RoundInterval = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted invalid worker config")
	}
	if _, err := New(testWorkload(t, 60, 8, 3), cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
	if _, err := New(testWorkload(t, 60, 2, 3), testConfig(3)); err == nil {
		t.Fatal("New accepted fewer phrases than shards")
	}
	// The placement reads every interest set and rate before any engine
	// checks them: malformed ones are refused, not a panic.
	for name, spoil := range map[string]func(w *workload.Workload){
		"interest capacity": func(w *workload.Workload) { w.Interests[0] = bitset.New(59) },
		"negative rate":     func(w *workload.Workload) { w.Rates[1] = -1 },
		"short rates":       func(w *workload.Workload) { w.Rates = w.Rates[:4] },
	} {
		w := testWorkload(t, 60, 8, 3)
		spoil(w)
		if _, err := New(w, testConfig(2)); err == nil {
			t.Errorf("New accepted a workload with a bad %s", name)
		}
	}
}

// TestShardedServesQueries: every phrase is servable, in either quality
// regime, results carry global phrase IDs and the serving shard, and
// winners are advertisers interested in the (global) phrase.
func TestShardedServesQueries(t *testing.T) {
	perPhrase := testWorkload(t, 120, 16, 7)
	perPhrase.Cfg.PerPhraseQuality = true
	perPhrase = workload.Generate(perPhrase.Cfg)
	if perPhrase.Quality == nil {
		t.Fatal("workload has no per-phrase quality")
	}
	for _, w := range []*workload.Workload{testWorkload(t, 120, 16, 7), perPhrase} {
		testServesQueries(t, w)
	}
}

func testServesQueries(t *testing.T, w *workload.Workload) {
	for _, shards := range []int{1, 2, 4} {
		s, err := New(w, testConfig(shards))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		assign := s.Assignment()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var wg sync.WaitGroup
		results := make([]server.Result, len(w.PhraseNames))
		errs := make([]error, len(w.PhraseNames))
		for q := range w.PhraseNames {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				results[q], errs[q] = s.Submit(ctx, "  "+w.PhraseNames[q]+" ")
			}(q)
		}
		wg.Wait()
		cancel()
		for q := range results {
			if errs[q] != nil {
				t.Fatalf("%d shards: phrase %d: %v", shards, q, errs[q])
			}
			if results[q].Phrase != q {
				t.Errorf("%d shards: result phrase %d, want global %d", shards, results[q].Phrase, q)
			}
			if results[q].Shard != assign[q] {
				t.Errorf("%d shards: phrase %d served by shard %d, assigned %d", shards, q, results[q].Shard, assign[q])
			}
			if len(results[q].Slots) == 0 {
				t.Errorf("%d shards: phrase %d got no slots", shards, q)
			}
			for _, sl := range results[q].Slots {
				if !w.Interests[q].Contains(sl.Advertiser) {
					t.Errorf("%d shards: phrase %d winner %d not interested", shards, q, sl.Advertiser)
				}
			}
		}
		// Outcomes are counted before their completions fire; latencies are
		// recorded after the round's answers, so read them once the loops
		// have exited.
		if m := s.Metrics(); m.Answered != int64(len(w.PhraseNames)) {
			t.Errorf("%d shards: Answered = %d, want %d", shards, m.Answered, len(w.PhraseNames))
		}
		if m := closeAndCheckAccounting(t, s); m.TotalLatency.Count() != len(w.PhraseNames) {
			t.Errorf("%d shards: latency count = %d", shards, m.TotalLatency.Count())
		}
	}
}

// TestIdleWorkerAnswersWithoutTick: on a 2-shard fleet with an hour-long
// round interval and no batch threshold, only a shard loop's idle resolve
// can answer a Submit. It must answer at once, on the phrase's shard, with
// the slots a fresh single engine gives when it resolves that phrase alone.
func TestIdleWorkerAnswersWithoutTick(t *testing.T) {
	w := testWorkload(t, 120, 16, 7)
	cfg := testConfig(2)
	cfg.Worker.RoundInterval = time.Hour
	cfg.Worker.MaxBatch = 0
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for sh := 0; sh < 2; sh++ {
		q := slices.Index(s.Assignment(), sh)
		if q < 0 {
			t.Fatalf("shard %d owns no phrase", sh)
		}
		twin, err := core.New(testWorkload(t, 120, 16, 7), cfg.Worker.Engine)
		if err != nil {
			t.Fatal(err)
		}
		twin.Tick()
		occ := make([]bool, len(w.PhraseNames))
		occ[q] = true
		want := twin.Resolve(occ).Auctions[q]
		if len(want) == 0 {
			t.Fatalf("phrase %d fills no slot", q)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := s.Submit(ctx, w.PhraseNames[q])
		cancel()
		if err != nil {
			t.Fatalf("shard %d: Submit without a tick: %v", sh, err)
		}
		if res.Shard != sh || res.Round != 0 || !slices.Equal(res.Slots, want) {
			t.Fatalf("phrase %d: shard %d round %d slots %v, want shard %d round 0 slots %v", q, res.Shard, res.Round, res.Slots, sh, want)
		}
	}
	if m := closeAndCheckAccounting(t, s); m.Answered != 2 {
		t.Fatalf("Answered %d, want 2", m.Answered)
	}
}

// TestShardedErrorContract: failures carry shard and phrase context through
// *serr.QueryError while errors.Is still matches the sentinels; unmatched
// queries return the bare sentinel (no routing context exists).
func TestShardedErrorContract(t *testing.T) {
	w := testWorkload(t, 60, 8, 5)
	s, err := New(w, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Submit(context.Background(), "zzz nothing"); !errors.Is(err, serr.ErrNoAuction) {
		t.Fatalf("unmatched = %v, want ErrNoAuction", err)
	}
	if got := s.Metrics().Unmatched; got != 1 {
		t.Fatalf("Unmatched = %d, want 1", got)
	}

	s.Close()
	_, err = s.Submit(context.Background(), w.PhraseNames[3])
	if !errors.Is(err, serr.ErrClosed) {
		t.Fatalf("after close = %v, want ErrClosed", err)
	}
	var qe *serr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error %T lacks QueryError context", err)
	}
	if qe.Phrase != 3 {
		t.Fatalf("QueryError.Phrase = %d, want global 3", qe.Phrase)
	}
	if want := s.Assignment()[3]; qe.Shard != want {
		t.Fatalf("QueryError.Shard = %d, want %d", qe.Shard, want)
	}
	closeAndCheckAccounting(t, s)
}

// TestShardedDeadlineCountedOnce: a blocking batch spanning both shards
// whose ctx expires while it waits comes back DeadlineExceeded per item, and
// each item is counted once — timed out, not also expired — by the shard
// that dropped it. Each shard's loop is held in a blocker's resolve while
// the batch waits in its ring.
func TestShardedDeadlineCountedOnce(t *testing.T) {
	w := testWorkload(t, 60, 8, 5)
	cfg := testConfig(2)
	cfg.Worker.RoundInterval = time.Hour
	cfg.Worker.MaxBatch = 0
	entered := make(chan struct{}, 2)
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	var calls atomic.Int32
	cfg.Worker.BeforeResolve = func() {
		if calls.Add(1) <= 2 {
			entered <- struct{}{}
			<-hold
		}
	}
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One blocker per shard, each held inside its shard's resolve.
	blockers := newCollectComp(2)
	var items []server.AsyncItem
	for sh := 0; sh < 2; sh++ {
		for q, at := range s.Assignment() {
			if at == sh {
				items = append(items, server.AsyncItem{Query: w.PhraseNames[q], Done: blockers, Index: sh})
				break
			}
		}
	}
	if len(items) != 2 {
		t.Fatalf("assignment %v leaves a shard without phrases", s.Assignment())
	}
	s.SubmitAsync(items)
	for range items {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("a shard never resolved its blocker")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = s.SubmitBatch(ctx, w.PhraseNames)
	for i, err := range serr.SplitBatch(err, len(w.PhraseNames)) {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("item %d = %v, want DeadlineExceeded", i, err)
		}
	}
	release()
	blockers.wg.Wait()
	if m := closeAndCheckAccounting(t, s); m.TimedOut != int64(len(w.PhraseNames)) || m.Expired != 0 || m.Answered != 2 {
		t.Fatalf("TimedOut = %d, Expired = %d, Answered = %d, want %d, 0 and 2 (the blockers)", m.TimedOut, m.Expired, m.Answered, len(w.PhraseNames))
	}
}

// TestShardedRouters: the fragment partition is deterministic, in range
// and leaves no shard empty, and the fleet it routes serves traffic end to
// end.
func TestShardedRouters(t *testing.T) {
	w := testWorkload(t, 80, 12, 9)
	a1, a2 := assign(w, 4), assign(w, 4)
	count := make([]int, 4)
	for q := range a1 {
		if a1[q] != a2[q] {
			t.Fatalf("non-deterministic assignment at phrase %d", q)
		}
		if a1[q] < 0 || a1[q] >= 4 {
			t.Fatalf("phrase %d out of range: %d", q, a1[q])
		}
		count[a1[q]]++
	}
	if slices.Contains(count, 0) {
		t.Fatalf("assignment left a shard empty: %v", a1)
	}

	cfg := testConfig(3)
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := make(map[int]bool)
	for _, sh := range s.Assignment() {
		seen[sh] = true
	}
	if len(seen) != 3 {
		t.Fatalf("fragment routing left shards empty: %v", s.Assignment())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Submit(ctx, w.PhraseNames[0]); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBudgetContention: all shards hammer auctions whose winners
// share tight budgets. The run must not deadlock, the ledger's Section IV
// invariant must hold for every advertiser, and the engines' summed revenue
// must equal the ledger's settled total exactly (same charges, same order
// of accounting within each advertiser).
func TestShardedBudgetContention(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 60
	wcfg.NumPhrases = 12
	wcfg.NumTopics = 3
	wcfg.MinBudget, wcfg.MaxBudget = 2, 15 // budgets bind quickly
	wcfg.Seed = 13
	w := workload.Generate(wcfg)
	budgets := make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		budgets[i] = a.Budget
	}

	cfg := testConfig(4)
	cfg.Worker.RoundInterval = 500 * time.Microsecond
	cfg.Worker.MaxBatch = 16
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = s.Submit(ctx, w.PhraseNames[(g*5+i)%len(w.PhraseNames)])
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	ledger := s.Ledger()
	for i, b := range budgets {
		if spent := ledger.Spent(i); spent > b+1e-9 {
			t.Fatalf("advertiser %d spent %v over budget %v", i, spent, b)
		}
		if rem := ledger.Remaining(i); rem < 0 {
			t.Fatalf("advertiser %d negative remaining %v", i, rem)
		}
	}
	m := s.Metrics()
	if m.Engine.ClicksCharged == 0 {
		t.Fatal("no clicks charged under contention load")
	}
	if math.Abs(m.Engine.Revenue-ledger.TotalSpent()) > 1e-6 {
		t.Fatalf("engines booked %v revenue, ledger settled %v", m.Engine.Revenue, ledger.TotalSpent())
	}
}

// TestShardedCloseIdempotent: concurrent Closes are safe and return.
func TestShardedCloseIdempotent(t *testing.T) {
	s, err := New(testWorkload(t, 60, 8, 17), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
	closeAndCheckAccounting(t, s)
}

// TestShardedEngineLifecycle: every shard's engine and the fleet's pacer
// replay Worker.Engine.Lifecycle. With every advertiser joining only far in
// the future, no query finds a bidder.
func TestShardedEngineLifecycle(t *testing.T) {
	w := testWorkload(t, 60, 8, 5)
	events := make([]workload.LifecycleEvent, len(w.Advertisers))
	for i := range events {
		events[i] = workload.LifecycleEvent{Round: 1 << 30, Kind: workload.LifecycleJoin, Advertiser: i}
	}
	lc, err := workload.NewLifecycle(len(w.Advertisers), events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	pc := budget.DefaultPacerConfig()
	cfg.Worker.Pacing = &pc
	cfg.Worker.Engine.Lifecycle = lc
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, name := range w.PhraseNames {
		res, err := s.Submit(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Slots) != 0 {
			t.Fatalf("%s: slots %+v although no advertiser has joined", name, res.Slots)
		}
	}
}
