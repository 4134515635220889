package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/workload"
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 120
	wcfg.NumPhrases = 12
	wcfg.NumTopics = 3
	wcfg.Seed = 7
	return workload.Generate(wcfg)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RoundInterval = 2 * time.Millisecond
	cfg.MaxBatch = 64
	cfg.QueueDepth = 256
	return cfg
}

func TestConfigValidate(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero round interval": func(c *Config) { c.RoundInterval = 0 },
		"zero queue depth":    func(c *Config) { c.QueueDepth = 0 },
		"negative max batch":  func(c *Config) { c.MaxBatch = -1 },
		"negative bid walk":   func(c *Config) { c.BidWalkScale = -0.1 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if _, err := New(testWorkload(t), cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestServerServesQueries is the basic happy path: concurrent raw queries
// (messy variants of bid phrases) are matched, batched, auctioned, and each
// caller is woken with its phrase's slot assignment.
func TestServerServesQueries(t *testing.T) {
	w := testWorkload(t)
	s, err := New(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	results := make([]Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Messy variant of a real phrase: the matcher normalizes it.
			q := "  " + w.PhraseNames[i%len(w.PhraseNames)] + "  "
			res, err := s.Submit(ctx, q)
			if err != nil {
				t.Errorf("Submit(%q): %v", q, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if want := i % len(w.PhraseNames); res.Phrase != want {
			t.Errorf("result %d: phrase %d, want %d", i, res.Phrase, want)
		}
		if len(res.Slots) == 0 {
			t.Errorf("result %d: no slots assigned", i)
		}
		for _, sl := range res.Slots {
			if !w.Interests[res.Phrase].Contains(sl.Advertiser) {
				t.Errorf("result %d: winner %d not interested in phrase %d", i, sl.Advertiser, res.Phrase)
			}
			if sl.PricePaid < 0 {
				t.Errorf("result %d: negative price %v", i, sl.PricePaid)
			}
		}
		if res.Latency < 0 || res.AdmissionWait < 0 || res.RoundWait < 0 {
			t.Errorf("result %d: negative latency fields %+v", i, res)
		}
	}
	if m := s.Metrics(); m.Answered != 8 {
		t.Errorf("Answered = %d, want 8", m.Answered)
	}
	// Latencies are recorded after the round's answers: read them once the
	// loop has exited.
	m := closeAndCheckAccounting(t, s)
	if m.TotalLatency.Count() != 8 {
		t.Errorf("TotalLatency.Count = %d, want 8", m.TotalLatency.Count())
	}
	if m.TotalLatency.Max() <= 0 || m.TotalLatency.P95() < 0 {
		t.Errorf("latency distribution not populated: %+v", m.TotalLatency)
	}
}

// closeAndCheckAccounting closes the server and asserts the ROADMAP
// invariant on what it leaves behind: every submitted query was counted
// under exactly one outcome.
func closeAndCheckAccounting(t *testing.T, s *Server) Metrics {
	t.Helper()
	s.Close()
	m := s.Metrics()
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != sum {
		t.Errorf("submitted %d != answered %d + unmatched %d + shed %d + timed out %d + expired %d",
			m.Submitted, m.Answered, m.Unmatched, m.Shed, m.TimedOut, m.Expired)
	}
	return m
}

// TestServerLifecycle covers the failure-mode table: per-request deadlines,
// queue-full shedding, shutdown with in-flight requests, zero-traffic
// ticks, unmatched queries, and submission after Close. Every case ends
// with each submitted query under exactly one outcome counter.
func TestServerLifecycle(t *testing.T) {
	t.Run("deadline exceeded", func(t *testing.T) {
		cfg := testConfig()
		cfg.RoundInterval = time.Hour // rounds effectively never close
		cfg.MaxBatch = 0
		s, err := New(testWorkload(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err = s.Submit(ctx, "topic0/phrase-0")
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Submit = %v, want DeadlineExceeded", err)
		}
		// The outcome is counted where the request is dropped — at the
		// round the final drain closes — and counted once: the caller had
		// left, so it timed out; it did not also expire.
		if m := closeAndCheckAccounting(t, s); m.TimedOut != 1 || m.Expired != 0 {
			t.Fatalf("TimedOut = %d, Expired = %d, want 1 and 0", m.TimedOut, m.Expired)
		}
	})

	t.Run("canceled caller returns before its round", func(t *testing.T) {
		cfg := testConfig()
		cfg.RoundInterval = time.Hour // no round closes while the caller waits
		cfg.MaxBatch = 0
		w := testWorkload(t)
		s, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		start := time.Now()
		_, errs := SubmitBatch(ctx, s, w.PhraseNames[:3])
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("canceled SubmitBatch returned after %v", took)
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("item %d = %v, want Canceled", i, err)
			}
		}
		if m := closeAndCheckAccounting(t, s); m.TimedOut != 3 || m.Answered != 0 {
			t.Fatalf("TimedOut = %d, Answered = %d, want 3 and 0", m.TimedOut, m.Answered)
		}
	})

	t.Run("queue-full shed", func(t *testing.T) {
		hold := make(chan struct{})
		entered := make(chan struct{}, 8)
		cfg := testConfig()
		cfg.RoundInterval = time.Hour
		cfg.MaxBatch = 1 // first admitted request closes a round immediately
		cfg.QueueDepth = 1
		cfg.BeforeStep = func() {
			entered <- struct{}{}
			<-hold
		}
		w := testWorkload(t)
		s, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		ctx := context.Background()
		aDone := make(chan error, 1)
		go func() {
			_, err := s.Submit(ctx, w.PhraseNames[0])
			aDone <- err
		}()
		<-entered // the loop is now dwelling inside the round, not draining

		bDone := make(chan error, 1)
		go func() {
			_, err := s.Submit(ctx, w.PhraseNames[1])
			bDone <- err
		}()
		// Wait until B occupies the queue's single slot.
		deadline := time.Now().Add(2 * time.Second)
		for s.worker.queueLen() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("request B never reached the admission queue")
			}
			time.Sleep(100 * time.Microsecond)
		}

		// The queue is full and the loop is busy: C must shed, not block.
		if _, err := s.Submit(ctx, w.PhraseNames[2]); !errors.Is(err, serr.ErrOverloaded) {
			t.Fatalf("Submit = %v, want ErrOverloaded", err)
		}
		close(hold) // release the round; A resolves now, B next round
		if err := <-aDone; err != nil {
			t.Fatalf("request A failed: %v", err)
		}
		if err := <-bDone; err != nil {
			t.Fatalf("request B failed: %v", err)
		}
		if m := closeAndCheckAccounting(t, s); m.Shed != 1 || m.Answered != 2 {
			t.Fatalf("Shed = %d, Answered = %d, want 1 and 2", m.Shed, m.Answered)
		}
	})

	t.Run("shutdown with in-flight requests", func(t *testing.T) {
		cfg := testConfig()
		cfg.RoundInterval = time.Hour // only Close can resolve these
		cfg.MaxBatch = 0
		w := testWorkload(t)
		s, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Admission is synchronous, so all three are in the ring when
		// SubmitAsync returns.
		cc := newCollectComp(3)
		items := make([]AsyncItem, 3)
		for i := range items {
			items[i] = AsyncItem{Query: w.PhraseNames[i], Done: cc, Index: i}
		}
		s.SubmitAsync(items)
		s.Close() // must resolve all three in the final round
		for i := range items {
			if cc.fired[i] != 1 {
				t.Fatalf("request %d unresolved after Close", i)
			}
			if cc.errs[i] != nil {
				t.Fatalf("request %d: %v", i, cc.errs[i])
			}
			if cc.results[i].Phrase != i {
				t.Fatalf("request %d: phrase %d", i, cc.results[i].Phrase)
			}
		}
		if _, err := s.Submit(context.Background(), w.PhraseNames[0]); !errors.Is(err, serr.ErrClosed) {
			t.Fatalf("Submit after Close = %v, want ErrClosed", err)
		}
		if m := closeAndCheckAccounting(t, s); m.Answered != 3 {
			t.Fatalf("Answered = %d, want 3", m.Answered)
		}
	})

	t.Run("zero-traffic ticks", func(t *testing.T) {
		cfg := testConfig()
		cfg.RoundInterval = time.Millisecond
		s, err := New(testWorkload(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
		m := closeAndCheckAccounting(t, s)
		if m.Rounds < 5 {
			t.Fatalf("Rounds = %d, want ≥ 5 idle ticks", m.Rounds)
		}
		if m.EmptyRounds != m.Rounds {
			t.Fatalf("EmptyRounds = %d of %d rounds with no traffic", m.EmptyRounds, m.Rounds)
		}
		if m.Answered != 0 || m.Engine.AuctionsResolved != 0 {
			t.Fatalf("idle server answered %d / resolved %d auctions", m.Answered, m.Engine.AuctionsResolved)
		}
		// The engine still advanced rounds (delayed-click clock keeps moving).
		if m.Engine.Rounds < 5 {
			t.Fatalf("engine rounds = %d, want ≥ 5", m.Engine.Rounds)
		}
	})

	t.Run("unmatched query", func(t *testing.T) {
		s, err := New(testWorkload(t), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Submit(context.Background(), "zzz no such phrase"); !errors.Is(err, serr.ErrNoAuction) {
			t.Fatalf("Submit = %v, want ErrNoAuction", err)
		}
		if m := closeAndCheckAccounting(t, s); m.Unmatched != 1 {
			t.Fatalf("Unmatched = %d, want 1", m.Unmatched)
		}
	})

	t.Run("close is idempotent", func(t *testing.T) {
		s, err := New(testWorkload(t), testConfig())
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
	})
}

// TestServerRewrites exercises the two-stage matcher through the server: a
// registered synonym maps to its bid phrase's auction.
func TestServerRewrites(t *testing.T) {
	w := testWorkload(t)
	cfg := testConfig()
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Matcher().AddRewrite("sneakers", w.PhraseNames[3])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := s.Submit(ctx, "  SNEAKERS ")
	if err != nil {
		t.Fatal(err)
	}
	if res.Phrase != 3 {
		t.Fatalf("rewrite matched phrase %d, want 3", res.Phrase)
	}
}

// TestServerConcurrentAdmissionAndMetrics is the concurrency-contract
// test: many goroutines submit (including junk and tight deadlines) while
// others continuously read Metrics — exercised under -race in CI.
func TestServerConcurrentAdmissionAndMetrics(t *testing.T) {
	w := testWorkload(t)
	cfg := testConfig()
	cfg.RoundInterval = time.Millisecond
	cfg.MaxBatch = 16
	cfg.BidWalkScale = 0.05
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const submitters, perSubmitter = 8, 100
	var ok, noAuction, timedOut, shedded atomic.Int64
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m := s.Metrics()
					if m.Answered < 0 || m.QueueDepth > m.QueueCap {
						t.Error("inconsistent metrics")
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				q := w.PhraseNames[(g+i)%len(w.PhraseNames)]
				ctx := context.Background()
				var cancel context.CancelFunc
				switch i % 10 {
				case 3:
					q = fmt.Sprintf("junk query %d-%d", g, i)
				case 7:
					// A deadline tight enough to sometimes fire.
					ctx, cancel = context.WithTimeout(ctx, 500*time.Microsecond)
				}
				_, err := s.Submit(ctx, q)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, serr.ErrNoAuction):
					noAuction.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timedOut.Add(1)
				case errors.Is(err, serr.ErrOverloaded):
					shedded.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()

	m := closeAndCheckAccounting(t, s)
	if m.Submitted != submitters*perSubmitter {
		t.Fatalf("Submitted = %d, want %d", m.Submitted, submitters*perSubmitter)
	}
	// A request can be resolved by the loop in the same instant its deadline
	// fires — the submitter sees ctx.Err() while the loop counts it answered
	// — so Answered may exceed ok by at most the timed-out count.
	if m.Answered < ok.Load() || m.Answered > ok.Load()+timedOut.Load() {
		t.Fatalf("Answered = %d outside [%d, %d]", m.Answered, ok.Load(), ok.Load()+timedOut.Load())
	}
	if m.Unmatched != noAuction.Load() {
		t.Fatalf("Unmatched = %d, ErrNoAuction count = %d", m.Unmatched, noAuction.Load())
	}
	if m.Shed != shedded.Load() {
		t.Fatalf("Shed = %d, ErrOverloaded count = %d", m.Shed, shedded.Load())
	}
	if m.Engine.Rounds == 0 || m.RoundsPerSec <= 0 {
		t.Fatalf("no rounds recorded: %+v", m)
	}
	if ok.Load() > 0 && m.TotalLatency.Count() == 0 {
		t.Fatal("latency histogram empty despite answered queries")
	}
}

// TestServerBudgetAccounting: the serving layer preserves the engine's
// budget invariant — no advertiser is charged beyond the daily budget —
// and Close's drain settles all outstanding clicks.
func TestServerBudgetAccounting(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 60
	wcfg.NumPhrases = 8
	wcfg.MinBudget, wcfg.MaxBudget = 2, 20 // tight budgets: edges matter
	wcfg.Seed = 11
	w := workload.Generate(wcfg)
	cfg := testConfig()
	cfg.RoundInterval = 500 * time.Microsecond
	cfg.MaxBatch = 8
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				_, _ = s.Submit(ctx, w.PhraseNames[(g*3+i)%len(w.PhraseNames)])
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	m := s.Metrics()
	if m.Engine.ClicksCharged == 0 {
		t.Fatal("no clicks charged — drain did not settle outstanding ads?")
	}
	if m.Engine.Revenue <= 0 {
		t.Fatalf("revenue = %v", m.Engine.Revenue)
	}
}

// chargeOnlyLedger is a core.BudgetLedger without budget.Authority's Spent
// and Deposit: usable by an engine, not by a pacer.
type chargeOnlyLedger struct{}

func (chargeOnlyLedger) Remaining(int) float64       { return 1e9 }
func (chargeOnlyLedger) TryCharge(int, float64) bool { return true }

// TestNewPacingLedger: with pacing on, New keeps a caller's ledger that is
// a budget.Authority, installs a budget.Ledger when there is none, and
// rejects a ledger the pacer cannot deposit into instead of silently
// replacing it (which would leave the caller's ledger never charged).
func TestNewPacingLedger(t *testing.T) {
	own := budget.NewLedger(make([]float64, 120))
	for _, tc := range []struct {
		name    string
		ledger  core.BudgetLedger
		wantErr bool
	}{
		{"none", nil, false},
		{"authority", own, false},
		{"charge-only", chargeOnlyLedger{}, true},
	} {
		cfg := testConfig()
		pc := budget.DefaultPacerConfig()
		cfg.Pacing = &pc
		cfg.Engine.Ledger = tc.ledger
		s, err := New(testWorkload(t), cfg)
		if tc.wantErr {
			if err == nil {
				s.Close()
				t.Errorf("%s: New accepted a ledger without Spent/Deposit", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		got := s.worker.cfg.Engine.Ledger
		s.Close()
		if _, ok := got.(*budget.Ledger); !ok {
			t.Errorf("%s: engine ledger is %T, want *budget.Ledger", tc.name, got)
		}
		if tc.ledger != nil && got != tc.ledger {
			t.Errorf("%s: caller's ledger was replaced", tc.name)
		}
	}
}

func TestTuneRoundInterval(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 40
	wcfg.NumPhrases = 4
	wcfg.NumTopics = 2
	w := workload.Generate(wcfg)
	arrivals := []float64{0.5, 0.4, 0.3, 0.2} // queries/sec per phrase

	// Median latency ≈ roundLen/2, so 4 s (median 2 s ≤ 2.2 s) is the
	// longest tolerable of these; 8 s (median 4 s) is too long.
	candidates := []time.Duration{time.Second, 4 * time.Second, 8 * time.Second}
	got, err := TuneRoundInterval(w, arrivals, 1e-7, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4*time.Second {
		t.Fatalf("TuneRoundInterval = %v, want 4s", got)
	}

	if _, err := TuneRoundInterval(w, arrivals[:2], 1e-7, candidates); err == nil {
		t.Fatal("accepted mismatched arrival rates")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, nil); err == nil {
		t.Fatal("accepted empty candidates")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, []time.Duration{-time.Second}); err == nil {
		t.Fatal("accepted negative candidate")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, []time.Duration{20 * time.Second}); err == nil {
		t.Fatal("accepted a round length beyond the latency tolerance")
	}

	// The engine config the tuner feeds must also work end to end.
	cfg := testConfig()
	cfg.RoundInterval = got / 1000 // scaled down: tests should not sleep 4s
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}
