package binproto

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

// The tests in this file run the binary tier over a *real* server.Server,
// so they exercise reader-drain coalescing into SubmitAsync, pooled
// completions resolved by the round loop, and replies flushed by the
// connection writer end to end. The fakeBackend tests in binproto_test.go
// script outcomes to pin the wire-level behaviour of the same read loop.

// startAsyncServer builds a one-worker round server with the given config
// and serves it over the binary protocol.
func startAsyncServer(t *testing.T, wcfg server.Config, bcfg Config) (*Server, *server.Server, *workload.Workload) {
	t.Helper()
	gen := workload.DefaultConfig()
	gen.NumAdvertisers = 120
	gen.NumPhrases = 12
	gen.NumTopics = 3
	gen.Seed = 7
	w := workload.Generate(gen)
	srv, err := server.New(w, wcfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	bs := New(srv, bcfg)
	if err := bs.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { bs.Close() })
	return bs, srv, w
}

// gatedConfig returns a round-server config whose loop parks on hold at
// the head of every round close, with MaxBatch 1 so each admitted request
// occupies its own round and the intake ring fills predictably.
func gatedConfig(depth int, hold <-chan struct{}, entered chan<- struct{}) server.Config {
	cfg := server.DefaultConfig()
	cfg.RoundInterval = time.Hour // only traffic closes rounds
	cfg.MaxBatch = 1
	cfg.QueueDepth = depth
	cfg.BeforeResolve = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	}
	return cfg
}

// TestBatchPartialOverflow pins the batch overload contract: a batch frame
// whose items straddle the admission boundary sheds ONLY the overflowing
// items — each with a retryable overload status — while the admitted item
// resolves normally, the connection stays alive, and nothing (goroutines or
// pooled objects) leaks.
func TestBatchPartialOverflow(t *testing.T) {
	before := runtime.NumGoroutine()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	bs, srv, w := startAsyncServer(t, gatedConfig(3, hold, entered), Config{MaxTimeout: 30 * time.Second})
	c := dialClient(t, bs.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()

	p := w.PhraseNames
	// Request A dwells inside a held round; B and C wait in the intake
	// ring, leaving exactly one free slot for the batch to contend over.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit(ctx, p[i])
		}(i)
		if i == 0 {
			<-entered // A is inside the round before B and C queue up
		}
	}
	waitFor(t, "ring to hold B and C", func() bool {
		return srv.Metrics().QueueDepth == 2
	})

	// The batch straddles the boundary: one slot free, three items.
	batchDone := make(chan struct{})
	var bres []server.Result
	var berr error
	go func() {
		defer close(batchDone)
		bres, berr = c.SubmitBatch(ctx, []string{p[3], p[4], p[5]})
	}()
	waitFor(t, "one batch item admitted", func() bool {
		return srv.Metrics().QueueDepth == 3
	})
	select {
	case <-batchDone:
		t.Fatal("batch reply arrived while its admitted item was still pending")
	default:
	}

	// The connection must stay serviceable mid-overload: stats frames are
	// answered off the round loop.
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("Stats during overload: %v", err)
	}

	close(hold)
	wg.Wait()
	<-batchDone

	for i, err := range errs {
		if err != nil {
			t.Errorf("queued Submit %d = %v, want success", i, err)
		}
	}
	if len(bres) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(bres))
	}
	if berr == nil {
		t.Fatal("partially shed batch returned nil error")
	}
	items := serr.SplitBatch(berr, 3)
	if items[0] != nil {
		t.Errorf("admitted batch item failed: %v", items[0])
	}
	if len(bres[0].Slots) == 0 {
		t.Error("admitted batch item returned no slots")
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(items[i], serr.ErrOverloaded) {
			t.Errorf("overflow batch item %d = %v, want ErrOverloaded", i, items[i])
		}
		if len(bres[i].Slots) != 0 {
			t.Errorf("shed batch item %d carries slots", i)
		}
	}
	if got := srv.Metrics().Shed; got != 2 {
		t.Errorf("backend shed %d requests, want exactly the 2 overflow items", got)
	}

	// The conn survived the partial shed: a fresh query round-trips.
	if _, err := c.Submit(ctx, p[6]); err != nil {
		t.Fatalf("Submit after partial overflow: %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := bs.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	c.Close()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestShutdownDrainsInFlightAsync is the real-backend twin of
// TestShutdownDrainsInFlight: requests parked inside a held round (rather
// than by the fakeBackend) must be answered — not cut off — by a drain, the
// backend must stay open until they resolve, and no goroutine may outlive
// the shutdown.
func TestShutdownDrainsInFlightAsync(t *testing.T) {
	before := runtime.NumGoroutine()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	bs, srv, w := startAsyncServer(t, gatedConfig(16, hold, entered), Config{MaxTimeout: 30 * time.Second})
	c := dialClient(t, bs.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()

	const parked = 8
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit(ctx, w.PhraseNames[i])
		}(i)
	}
	<-entered // one request is mid-round; the rest queue behind it
	waitFor(t, "requests admitted", func() bool {
		m := srv.Metrics()
		return m.Submitted-m.Unmatched >= parked
	})

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		shutdownDone <- bs.Shutdown(sctx)
	}()
	// The drain must wait on the in-flight frames, not abandon them.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while requests were parked in the round loop")
	case <-time.After(100 * time.Millisecond):
	}

	close(hold)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("parked Submit %d = %v, want success (drain must answer admitted frames)", i, err)
		}
	}
	m := srv.Metrics()
	if m.Answered < parked {
		t.Errorf("backend answered %d, want at least the %d drained requests", m.Answered, parked)
	}
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != sum {
		t.Errorf("after drain, submitted %d != answered %d + unmatched %d + shed %d + timed out %d + expired %d",
			m.Submitted, m.Answered, m.Unmatched, m.Shed, m.TimedOut, m.Expired)
	}
	c.Close()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestAsyncConformanceSmoke runs the plain request/reply contract over a
// real round server: queries resolve, junk refuses with a non-retryable
// no-auction status, batches keep item order, and interleaved pipelining
// completes out of order without loss.
func TestAsyncConformanceSmoke(t *testing.T) {
	wcfg := server.DefaultConfig()
	wcfg.RoundInterval = 2 * time.Millisecond
	wcfg.MaxBatch = 64
	wcfg.QueueDepth = 256
	bs, _, w := startAsyncServer(t, wcfg, Config{})
	c := dialClient(t, bs.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	res, err := c.Submit(ctx, w.PhraseNames[0])
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Phrase != 0 || len(res.Slots) == 0 {
		t.Fatalf("Submit result = phrase %d, %d slots", res.Phrase, len(res.Slots))
	}
	if _, err := c.Submit(ctx, "zzzz no such phrase zzzz"); !errors.Is(err, serr.ErrNoAuction) {
		t.Fatalf("junk query = %v, want ErrNoAuction", err)
	}

	queries := []string{w.PhraseNames[1], "zzzz junk zzzz", w.PhraseNames[2]}
	results, berr := c.SubmitBatch(ctx, queries)
	if len(results) != 3 {
		t.Fatalf("batch returned %d results", len(results))
	}
	items := serr.SplitBatch(berr, 3)
	if items[0] != nil || items[2] != nil || !errors.Is(items[1], serr.ErrNoAuction) {
		t.Fatalf("batch item errors = %v", items)
	}
	if results[0].Phrase != 1 || results[2].Phrase != 2 {
		t.Fatalf("batch order lost: phrases %d, %d", results[0].Phrase, results[2].Phrase)
	}

	// Pipelined concurrent submits share one conn and one intake ring.
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit(ctx, w.PhraseNames[i%len(w.PhraseNames)])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined Submit %d: %v", i, err)
		}
	}
}

// TestDrainHonoursDeadline: with a round held in BeforeResolve, Drain stops
// waiting when its ctx ends — it aborts the connection still draining and
// returns DeadlineExceeded — and once the round is released, the held item
// completes exactly once and every goroutine the edge started exits. The
// test's own timer makes an edge that ignores ctx fail instead of hang.
func TestDrainHonoursDeadline(t *testing.T) {
	before := runtime.NumGoroutine()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	bs, srv, w := startAsyncServer(t, gatedConfig(16, hold, entered), Config{MaxTimeout: 30 * time.Second})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	defer release() // never leave the round loop parked

	c := dialClient(t, bs.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()
	submitted := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, w.PhraseNames[0])
		submitted <- err
	}()
	<-entered // the request's round is held

	drained := make(chan error, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer dcancel()
		drained <- bs.Drain(dctx)
	}()
	select {
	case err := <-drained:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Drain = %v, want DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Drain still waiting 1 s into a 100 ms deadline with a round held")
	}
	select {
	case err := <-submitted:
		if err == nil {
			t.Fatal("Submit succeeded over a connection Drain aborted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the client never saw its aborted connection close")
	}

	release()
	srv.Close()
	m := srv.Metrics()
	if sum := m.Answered + m.Unmatched + m.Shed + m.TimedOut + m.Expired; m.Submitted != 1 || sum != 1 {
		t.Errorf("submitted %d, outcomes %d (answered %d, timed out %d, expired %d); want one each",
			m.Submitted, sum, m.Answered, m.TimedOut, m.Expired)
	}
	c.Close()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}
