package shard

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

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
}

// TestShardedServesQueries: every phrase is servable, results carry global
// phrase IDs and the serving shard, and winners are advertisers interested
// in the (global) phrase.
func TestShardedServesQueries(t *testing.T) {
	w := testWorkload(t, 120, 16, 7)
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
// whose ctx expires before any round closes comes back DeadlineExceeded per
// item, and each item is counted once — timed out, not also expired — by the
// shard that dropped it.
func TestShardedDeadlineCountedOnce(t *testing.T) {
	w := testWorkload(t, 60, 8, 5)
	cfg := testConfig(2)
	cfg.Worker.RoundInterval = time.Hour // only Close closes a round
	cfg.Worker.MaxBatch = 0
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = s.SubmitBatch(ctx, w.PhraseNames)
	for i, err := range serr.SplitBatch(err, len(w.PhraseNames)) {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("item %d = %v, want DeadlineExceeded", i, err)
		}
	}
	if m := closeAndCheckAccounting(t, s); m.TimedOut != int64(len(w.PhraseNames)) || m.Expired != 0 {
		t.Fatalf("TimedOut = %d, Expired = %d, want %d and 0", m.TimedOut, m.Expired, len(w.PhraseNames))
	}
}

// TestShardedRouters: both routers produce full-range, deterministic,
// non-empty assignments, and the fragment router serves traffic end to end.
func TestShardedRouters(t *testing.T) {
	w := testWorkload(t, 80, 12, 9)
	for name, r := range map[string]Router{"hash": HashRouter{}, "fragment": FragmentRouter{}} {
		a1, err := r.Assign(w, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a2, _ := r.Assign(w, 4)
		for q := range a1 {
			if a1[q] != a2[q] {
				t.Fatalf("%s: non-deterministic assignment at phrase %d", name, q)
			}
			if a1[q] < 0 || a1[q] >= 4 {
				t.Fatalf("%s: phrase %d out of range: %d", name, q, a1[q])
			}
		}
	}

	cfg := testConfig(3)
	cfg.Router = FragmentRouter{}
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

// TestRebalance: empty shards are filled by moving the lowest-rate phrases
// off multi-phrase shards; impossible configurations are rejected.
func TestRebalance(t *testing.T) {
	assign := []int{0, 0, 0, 0}
	rates := []float64{0.9, 0.1, 0.5, 0.7}
	if err := rebalance(assign, rates, 3); err != nil {
		t.Fatal(err)
	}
	count := make([]int, 3)
	for _, s := range assign {
		count[s]++
	}
	for s, c := range count {
		if c == 0 {
			t.Fatalf("shard %d still empty: %v", s, assign)
		}
	}
	if assign[0] != 0 {
		t.Fatalf("highest-rate phrase moved: %v", assign)
	}

	if err := rebalance([]int{0}, []float64{1}, 2); err == nil {
		t.Fatal("accepted fewer phrases than shards")
	}
	if err := rebalance([]int{5}, []float64{1}, 2); err == nil {
		t.Fatal("accepted out-of-range assignment")
	}
	if err := rebalance([]int{0, 0}, []float64{1}, 2); err == nil {
		t.Fatal("accepted length mismatch")
	}
}
