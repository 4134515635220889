package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/serr"
)

// --- intake ring ---

// TestIntakeRingExactCapacity pins the property the lifecycle and soak
// tests depend on: the ring's shed onset is exactly the configured depth,
// even though the slot array rounds up to a power of two — including the
// depth-1 degenerate case.
func TestIntakeRingExactCapacity(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 5, 8} {
		r := newIntakeRing(depth)
		if got := r.capacity(); got != depth {
			t.Fatalf("depth %d: capacity() = %d", depth, got)
		}
		reqs := make([]*request, depth+1)
		for i := range reqs {
			reqs[i] = &request{phrase: i}
		}
		for i := 0; i < depth; i++ {
			if !r.push(reqs[i]) {
				t.Fatalf("depth %d: push %d refused below capacity", depth, i)
			}
		}
		if r.push(reqs[depth]) {
			t.Fatalf("depth %d: push beyond capacity admitted", depth)
		}
		if got := r.length(); got != depth {
			t.Fatalf("depth %d: length() = %d at capacity", depth, got)
		}
		// FIFO out, and a freed slot readmits.
		if got := r.pop(); got != reqs[0] {
			t.Fatalf("depth %d: pop = %v, want first request", depth, got)
		}
		if !r.push(reqs[depth]) {
			t.Fatalf("depth %d: push refused after a pop freed a slot", depth)
		}
		for i := 1; i <= depth; i++ {
			if got := r.pop(); got != reqs[i] {
				t.Fatalf("depth %d: pop %d out of order", depth, i)
			}
		}
		if got := r.pop(); got != nil {
			t.Fatalf("depth %d: pop on empty ring = %v", depth, got)
		}
	}
}

// TestIntakeRingConcurrent hammers the MPSC contract under the race
// detector: every push that reported success is popped exactly once, and
// nothing is lost or duplicated across producer bursts.
func TestIntakeRingConcurrent(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	r := newIntakeRing(64)

	var pushed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				req := &request{phrase: p*perProducer + i}
				for !r.push(req) {
					// Full: the consumer will catch up.
				}
				pushed.Add(1)
			}
		}(p)
	}

	seen := make(map[int]bool, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(seen) < producers*perProducer {
			req := r.pop()
			if req == nil {
				continue
			}
			if seen[req.phrase] {
				t.Errorf("phrase %d popped twice", req.phrase)
				return
			}
			seen[req.phrase] = true
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("consumer stalled: %d of %d popped", len(seen), producers*perProducer)
	}
	if got := r.length(); got != 0 {
		t.Fatalf("ring not empty after drain: length %d", got)
	}
}

// TestIntakeRingNeverShedsBelowCapacity: a producer whose tail read goes
// stale while other producers push and the consumer pops past it must retry,
// not read the negative occupancy as a full ring. Each producer keeps at
// most one request in the ring, so occupancy never exceeds the producer
// count and any refusal is spurious.
func TestIntakeRingNeverShedsBelowCapacity(t *testing.T) {
	const producers = 16
	const perProducer = 3000
	r := newIntakeRing(256)

	var refused atomic.Int64
	taken := make([]atomic.Int64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !r.push(&request{phrase: p}) {
					refused.Add(1)
					return
				}
				for taken[p].Load() <= int64(i) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for {
			if req := r.pop(); req != nil {
				taken[req.phrase].Add(1)
				continue
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-consumed
	if n := refused.Load(); n != 0 {
		t.Fatalf("%d pushes refused with at most %d of %d slots occupied", n, producers, r.capacity())
	}
}

// --- pooled request and waiter recycling ---

// TestPooledRequestReuseRace: requests and the blocking adapter's waiters
// are pooled, and a caller leaving at its deadline must never race a late
// round-loop completion into a recycled object. The mix below — tiny
// deadlines straddling a live round loop's interval, single queries and
// batches, under -race — makes the caller-leaves / last-completion-arrives
// race constant; an ownership bug shows up as a race report, a stuck
// Submit, a result for another caller's query, or a waiter handed out
// while a completion was still owed (its slots would not match its call).
func TestPooledRequestReuseRace(t *testing.T) {
	cfg := testConfig()
	cfg.RoundInterval = 500 * time.Microsecond
	w := testWorkload(t)
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const perG = 300
	check := func(query int, res Result, err error) {
		switch {
		case err == nil:
			// A result for another query would betray pool corruption.
			if res.Phrase != query {
				t.Errorf("query for phrase %d answered with phrase %d", query, res.Phrase)
			}
		case !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, serr.ErrOverloaded):
			t.Errorf("phrase %d: %v", query, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Deadlines straddle the round interval, so some calls
				// resolve and some leave first — both orders exercised.
				d := time.Duration(i%5) * 250 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				q := (g + i) % len(w.PhraseNames)
				if i%3 == 0 {
					q2 := (q + 1) % len(w.PhraseNames)
					results, errs := SubmitBatch(ctx, s, []string{w.PhraseNames[q], w.PhraseNames[q2]})
					check(q, results[0], errs[0])
					check(q2, results[1], errs[1])
				} else {
					res, err := s.Submit(ctx, w.PhraseNames[q])
					check(q, res, err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()

	m := closeAndCheckAccounting(t, s)
	if m.Answered == 0 {
		t.Fatal("every request timed out; no completion ever reached a waiting caller")
	}
	if m.TimedOut == 0 {
		t.Fatal("no caller left before its completion; the race never ran")
	}
}

// --- SubmitAsync ---

type collectComp struct {
	mu      sync.Mutex
	results []Result
	errs    []error
	fired   []int32
	wg      sync.WaitGroup
}

func newCollectComp(n int) *collectComp {
	c := &collectComp{
		results: make([]Result, n),
		errs:    make([]error, n),
		fired:   make([]int32, n),
	}
	c.wg.Add(n)
	return c
}

func (c *collectComp) Complete(i int, res Result, err error) {
	if n := atomic.AddInt32(&c.fired[i], 1); n != 1 {
		panic("completion fired twice for one item")
	}
	c.mu.Lock()
	c.results[i], c.errs[i] = res, err
	c.mu.Unlock()
	c.wg.Done()
}

// TestSubmitAsync covers SubmitAsync end to end on one server:
// matched queries resolve through the round loop with the same results
// Submit gives, unmatched ones refuse synchronously, and every completion
// fires exactly once.
func TestSubmitAsync(t *testing.T) {
	w := testWorkload(t)
	s, err := New(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	n := len(w.PhraseNames) + 1
	cc := newCollectComp(n)
	items := make([]AsyncItem, n)
	for i := 0; i < n-1; i++ {
		items[i] = AsyncItem{
			Query:    "  " + w.PhraseNames[i] + "  ", // matcher normalizes
			Deadline: time.Now().Add(5 * time.Second),
			Done:     cc,
			Index:    i,
		}
	}
	items[n-1] = AsyncItem{Query: "no such phrase at all", Done: cc, Index: n - 1}
	s.SubmitAsync(items)
	cc.wg.Wait()

	for i := 0; i < n-1; i++ {
		if cc.errs[i] != nil {
			t.Fatalf("item %d: %v", i, cc.errs[i])
		}
		if cc.results[i].Phrase != i {
			t.Errorf("item %d: phrase %d", i, cc.results[i].Phrase)
		}
		if len(cc.results[i].Slots) == 0 {
			t.Errorf("item %d: no slots", i)
		}
		if cc.results[i].Latency <= 0 {
			t.Errorf("item %d: non-positive latency %v", i, cc.results[i].Latency)
		}
	}
	if !errors.Is(cc.errs[n-1], serr.ErrNoAuction) {
		t.Fatalf("unmatched item: %v, want ErrNoAuction", cc.errs[n-1])
	}
}

// TestSubmitAsyncDeadline pins the async deadline semantics: an admitted
// item whose deadline passes before its batch is resolved is answered with
// context.DeadlineExceeded at the next close, not never. The gate holds the
// loop in another request's resolve while the item's deadline passes.
func TestSubmitAsyncDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.RoundInterval = time.Hour
	cfg.MaxBatch = 0
	entered, release := holdFirstResolve(&cfg)
	defer release()
	w := testWorkload(t)
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocker := submitBlocker(t, s, w.PhraseNames[1], entered)

	cc := newCollectComp(1)
	deadline := time.Now().Add(time.Millisecond)
	s.SubmitAsync([]AsyncItem{{
		Query:    w.PhraseNames[0],
		Deadline: deadline,
		Done:     cc,
	}})
	time.Sleep(time.Until(deadline) + time.Millisecond)
	release()
	cc.wg.Wait()
	blocker.wg.Wait()
	if !errors.Is(cc.errs[0], context.DeadlineExceeded) {
		t.Fatalf("expired async item: %v, want DeadlineExceeded", cc.errs[0])
	}
	if blocker.errs[0] != nil {
		t.Fatalf("blocker: %v", blocker.errs[0])
	}
}

// metricsProbe is a Completion that reads the server's Metrics from inside
// Complete, as a caller reacting to its outcome would.
type metricsProbe struct {
	srv  *Server
	seen chan Metrics
}

func (p metricsProbe) Complete(_ int, _ Result, err error) {
	if err != nil {
		panic(err)
	}
	p.seen <- p.srv.Metrics()
}

// TestOutcomeCountedBeforeCompletion pins that the round loop counts an
// outcome before it fires the Completion: a caller that has its answer
// must see it in Metrics. Sequential one-item submissions make the i-th
// completion's Answered at least i.
func TestOutcomeCountedBeforeCompletion(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	probe := metricsProbe{srv: srv, seen: make(chan Metrics, 1)}
	for i := 1; i <= 5; i++ {
		srv.SubmitAsync([]AsyncItem{{Query: w.PhraseNames[i], Done: probe}})
		if m := <-probe.seen; m.Answered < int64(i) {
			t.Fatalf("completion %d saw Answered = %d", i, m.Answered)
		}
	}
}

// TestSubmitAsyncOverload stalls the round loop with a full ring and
// checks that the overflowing async item refuses synchronously with the
// retryable sentinel while admitted items still resolve.
func TestSubmitAsyncOverload(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	cfg := testConfig()
	cfg.RoundInterval = time.Hour
	cfg.MaxBatch = 1
	cfg.QueueDepth = 1
	cfg.BeforeResolve = func() {
		entered <- struct{}{}
		<-hold
	}
	w := testWorkload(t)
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A dwells inside the round; B fills the single ring slot; C must shed.
	ccA := newCollectComp(1)
	s.SubmitAsync([]AsyncItem{{Query: w.PhraseNames[0], Done: ccA}})
	<-entered

	ccB := newCollectComp(1)
	s.SubmitAsync([]AsyncItem{{Query: w.PhraseNames[1], Done: ccB}})
	deadline := time.Now().Add(2 * time.Second)
	for s.worker.queueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request B never reached the ring")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ccC := newCollectComp(1)
	s.SubmitAsync([]AsyncItem{{Query: w.PhraseNames[2], Done: ccC}})
	ccC.wg.Wait() // synchronous refusal: no round needed
	if !errors.Is(ccC.errs[0], serr.ErrOverloaded) {
		t.Fatalf("overflow item: %v, want ErrOverloaded", ccC.errs[0])
	}

	close(hold)
	ccA.wg.Wait()
	ccB.wg.Wait()
	if ccA.errs[0] != nil || ccB.errs[0] != nil {
		t.Fatalf("admitted items failed: %v / %v", ccA.errs[0], ccB.errs[0])
	}
}

// TestSubmitAsyncConcurrentClose races SubmitAsync against Close under
// the race detector: whatever interleaving wins, every item's completion
// fires exactly once — answered by the final rounds or refused with
// ErrClosed — and nothing deadlocks or leaks.
func TestSubmitAsyncConcurrentClose(t *testing.T) {
	w := testWorkload(t)
	cfg := testConfig()
	cfg.RoundInterval = 200 * time.Microsecond
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 50
	var fired atomic.Int64
	var answered, closed, overloaded atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				cc := newCollectComp(1)
				s.SubmitAsync([]AsyncItem{{
					Query: w.PhraseNames[(g+i)%len(w.PhraseNames)],
					Done:  cc,
				}})
				cc.wg.Wait()
				fired.Add(1)
				switch {
				case cc.errs[0] == nil:
					answered.Add(1)
				case errors.Is(cc.errs[0], serr.ErrClosed):
					closed.Add(1)
				case errors.Is(cc.errs[0], serr.ErrOverloaded):
					overloaded.Add(1)
				default:
					t.Errorf("unexpected async error: %v", cc.errs[0])
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let traffic flow, then slam the door
	s.Close()
	wg.Wait()

	if got := fired.Load(); got != goroutines*perG {
		t.Fatalf("%d completions for %d items", got, goroutines*perG)
	}
	if answered.Load() == 0 {
		t.Error("no item answered before Close")
	}
	if closed.Load() == 0 {
		t.Error("no item refused after Close (Close raced nothing)")
	}
}
