package binproto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

// fakeBackend scripts outcomes by query string, mirroring the netserve
// handler tests: "slow" queries park until release is closed (or their
// deadline passes), which is how the drain and multiplexing tests hold
// requests in flight.
type fakeBackend struct {
	release chan struct{}
	submits atomic.Int64
	parked  atomic.Int64
	closed  atomic.Bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{release: make(chan struct{})}
}

func (b *fakeBackend) SubmitAsync(items []server.AsyncItem) {
	for _, it := range items {
		b.submits.Add(1)
		switch it.Query {
		case "junk":
			it.Done.Complete(it.Index, server.Result{}, serr.ErrNoAuction)
		case "overload":
			it.Done.Complete(it.Index, server.Result{}, serr.ErrOverloaded)
		case "closing":
			it.Done.Complete(it.Index, server.Result{}, serr.ErrClosed)
		case "boom":
			it.Done.Complete(it.Index, server.Result{}, errors.New("kaput"))
		case "slow":
			b.parked.Add(1)
			go b.park(it)
		default:
			b.answer(it)
		}
	}
}

// park answers a slow item once release closes, or fails it at its
// deadline (the tier always sets one).
func (b *fakeBackend) park(it server.AsyncItem) {
	expire := time.NewTimer(time.Until(it.Deadline))
	defer expire.Stop()
	select {
	case <-b.release:
		b.answer(it)
	case <-expire.C:
		it.Done.Complete(it.Index, server.Result{}, context.DeadlineExceeded)
	}
}

func (b *fakeBackend) answer(it server.AsyncItem) {
	it.Done.Complete(it.Index, server.Result{
		Phrase: 7,
		Shard:  1,
		Round:  42,
		Slots: []core.SlotResult{
			{Slot: 0, Advertiser: 3, PricePaid: 1.25},
			{Slot: 1, Advertiser: 9, PricePaid: 0.75},
		},
		Latency: 3 * time.Millisecond,
	}, nil)
}

func (b *fakeBackend) Metrics() server.Metrics {
	return server.Metrics{Submitted: b.submits.Load(), Answered: b.submits.Load()}
}

func (b *fakeBackend) Close() { b.closed.Store(true) }

// startServer runs a binary tier over a fresh fake backend and tears it
// down with the test.
func startServer(t testing.TB, cfg Config) (*Server, *fakeBackend) {
	t.Helper()
	b := newFakeBackend()
	s := New(b, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, b
}

func dialClient(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSubmitOverBinary(t *testing.T) {
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	res, err := c.Submit(context.Background(), "hiking boots")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Phrase != 7 || res.Shard != 1 || res.Round != 42 || len(res.Slots) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Slots[0] != (core.SlotResult{Slot: 0, Advertiser: 3, PricePaid: 1.25}) {
		t.Fatalf("slot 0 = %+v", res.Slots[0])
	}
}

func TestErrorTaxonomyOverBinary(t *testing.T) {
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	ctx := context.Background()
	for query, want := range map[string]error{
		"junk":     serr.ErrNoAuction,
		"overload": serr.ErrOverloaded,
		"closing":  serr.ErrClosed,
	} {
		if _, err := c.Submit(ctx, query); !errors.Is(err, want) {
			t.Errorf("Submit(%q) = %v, want %v", query, err, want)
		}
	}
	if _, err := c.Submit(ctx, "boom"); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf(`Submit("boom") = %v, want remote "kaput"`, err)
	}
	// A context that expires while the request is parked surfaces as
	// DeadlineExceeded — from the server's side of the wire.
	ctx2, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx2, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf(`Submit("slow") = %v, want DeadlineExceeded`, err)
	}
}

func TestSubmitBatchOverBinary(t *testing.T) {
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	queries := []string{"good", "junk", "also good", "overload"}
	results, err := c.SubmitBatch(context.Background(), queries)
	if err == nil {
		t.Fatal("batch with failures returned nil error")
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(results), len(queries))
	}
	errs := serr.SplitBatch(err, len(queries))
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good items failed: %v", errs)
	}
	if !errors.Is(errs[1], serr.ErrNoAuction) || !errors.Is(errs[3], serr.ErrOverloaded) {
		t.Fatalf("batch errors = %v", errs)
	}
	if results[0].Phrase != 7 || len(results[2].Slots) != 2 {
		t.Fatalf("batch results = %+v", results)
	}
}

func TestStatsOverBinary(t *testing.T) {
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	ctx := context.Background()
	if _, err := c.Submit(ctx, "hiking boots"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	m, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if m.Submitted < 1 {
		t.Fatalf("stats submitted = %d, want ≥ 1", m.Submitted)
	}
}

// rawConn speaks the wire format directly, for tests that need to observe
// frame-level behavior (ordering, statuses) beneath the Client API.
type rawConn struct {
	t    *testing.T
	netc net.Conn
	fr   *frameReader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { netc.Close() })
	if _, err := netc.Write(append([]byte(Magic), Version)); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	return &rawConn{t: t, netc: netc, fr: newFrameReader(netc, 1<<20)}
}

func (rc *rawConn) write(frame []byte) {
	rc.t.Helper()
	if _, err := rc.netc.Write(frame); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) read() (byte, uint64, []byte) {
	rc.t.Helper()
	rc.netc.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, id, payload, err := rc.fr.next()
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return ft, id, append([]byte(nil), payload...)
}

// TestOutOfOrderCompletion pins the multiplexing contract: a fast query
// pipelined behind a parked one overtakes it on the same socket.
func TestOutOfOrderCompletion(t *testing.T) {
	s, b := startServer(t, Config{})
	rc := dialRaw(t, s.Addr())

	rc.write(AppendQuery(nil, 1, 0, "slow"))
	waitFor(t, "slow query parked", func() bool { return b.parked.Load() == 1 })
	rc.write(AppendQuery(nil, 2, 0, "fast"))

	ft, id, _ := rc.read()
	if ft != ftReply || id != 2 {
		t.Fatalf("first reply = (0x%02x, %d), want the fast query (0x%02x, 2)", ft, id, ftReply)
	}
	close(b.release)
	ft, id, payload := rc.read()
	if ft != ftReply || id != 1 {
		t.Fatalf("second reply = (0x%02x, %d), want the slow query", ft, id)
	}
	if res, rerr, perr := parseReply(payload); perr != nil || rerr != nil || res.Phrase != 7 {
		t.Fatalf("slow reply decoded = (%+v, %v, %v)", res, rerr, perr)
	}
}

// TestInFlightOverflow pins connection-level backpressure: a frame beyond
// MaxInFlight is answered immediately with the retryable overflow status,
// while admitted frames still resolve.
func TestInFlightOverflow(t *testing.T) {
	s, b := startServer(t, Config{MaxInFlight: 2})
	rc := dialRaw(t, s.Addr())

	rc.write(AppendQuery(nil, 1, 0, "slow"))
	rc.write(AppendQuery(nil, 2, 0, "slow"))
	waitFor(t, "both queries parked", func() bool { return b.parked.Load() == 2 })
	rc.write(AppendQuery(nil, 3, 0, "fast"))

	ft, id, payload := rc.read()
	if ft != ftReply || id != 3 {
		t.Fatalf("overflow reply = (0x%02x, %d), want id 3", ft, id)
	}
	if payload[0] != StatusOverflow || payload[1]&FlagRetryable == 0 {
		t.Fatalf("overflow status = (%d, %d), want retryable StatusOverflow", payload[0], payload[1])
	}
	close(b.release)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		_, id, _ := rc.read()
		seen[id] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("admitted frames answered = %v, want ids 1 and 2", seen)
	}
}

// The Client maps overflow onto ErrOverloaded, so retry policies written
// against the in-process backpressure signal work unchanged.
func TestOverflowViaClient(t *testing.T) {
	s, b := startServer(t, Config{MaxInFlight: 1})
	c := dialClient(t, s.Addr())
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, "slow")
		done <- err
	}()
	waitFor(t, "slow query parked", func() bool { return b.parked.Load() == 1 })
	if _, err := c.Submit(ctx, "fast"); !errors.Is(err, serr.ErrOverloaded) {
		t.Fatalf("overflowed Submit = %v, want ErrOverloaded", err)
	}
	close(b.release)
	if err := <-done; err != nil {
		t.Fatalf("admitted Submit = %v", err)
	}
}

// TestDuplicateID pins the in-flight table's ID discipline: reusing an ID
// still in flight is a bad request, answered without disturbing the
// original.
func TestDuplicateID(t *testing.T) {
	s, b := startServer(t, Config{})
	rc := dialRaw(t, s.Addr())
	rc.write(AppendQuery(nil, 1, 0, "slow"))
	waitFor(t, "slow query parked", func() bool { return b.parked.Load() == 1 })
	rc.write(AppendQuery(nil, 1, 0, "fast"))
	_, id, payload := rc.read()
	if id != 1 || payload[0] != StatusBadRequest {
		t.Fatalf("duplicate reply = (%d, status %d), want (1, StatusBadRequest)", id, payload[0])
	}
	close(b.release)
	_, id, payload = rc.read()
	if id != 1 || payload[0] != StatusOK {
		t.Fatalf("original reply = (%d, status %d), want (1, StatusOK)", id, payload[0])
	}
}

// TestBadPreamble pins the protocol gate: a connection that opens with
// anything but the magic is dropped before frame parsing.
func TestBadPreamble(t *testing.T) {
	s, _ := startServer(t, Config{})
	netc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer netc.Close()
	// Exactly preamble-sized, so the server's close is a clean FIN.
	fmt.Fprintf(netc, "GET /")
	netc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := netc.Read(buf); err != io.EOF {
		t.Fatalf("read after bad preamble = %v, want EOF", err)
	}
}

// TestHostileLength pins the ws readFrame lesson end-to-end: a frame
// declaring 4 GiB fails the connection without the server allocating for
// it.
func TestHostileLength(t *testing.T) {
	s, _ := startServer(t, Config{MaxFrame: 1 << 16})
	netc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer netc.Close()
	netc.Write(append([]byte(Magic), Version))
	hostile := binary.BigEndian.AppendUint32(nil, 0xffffffff)
	netc.Write(hostile)
	netc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := netc.Read(buf); err != io.EOF {
		t.Fatalf("read after hostile length = %v, want EOF", err)
	}
}

// TestShutdownDrainsInFlight pins the drain contract under multiplexing:
// a Shutdown racing in-flight frames answers every admitted one, refuses
// new ones with StatusClosed, and closes the backend last.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, b := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	ctx := context.Background()

	const parked = 8
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit(ctx, "slow")
		}(i)
	}
	waitFor(t, "queries parked", func() bool { return b.parked.Load() == parked })

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(sctx)
	}()
	// The drain must be waiting on the parked frames, not cutting them off.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while frames were parked")
	case <-time.After(100 * time.Millisecond):
	}
	if b.closed.Load() {
		t.Fatal("backend closed while frames were in flight")
	}
	close(b.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("parked Submit %d = %v, want success (drain must answer admitted frames)", i, err)
		}
	}
	if !b.closed.Load() {
		t.Fatal("Shutdown did not close the backend")
	}
}

// TestDrainRefusesNewFrames: frames arriving during a drain get
// StatusClosed rather than hanging or dropping.
func TestDrainRefusesNewFrames(t *testing.T) {
	s, b := startServer(t, Config{})
	rc := dialRaw(t, s.Addr())
	rc.write(AppendQuery(nil, 1, 0, "slow"))
	waitFor(t, "query parked", func() bool { return b.parked.Load() == 1 })

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(sctx)
	}()
	waitFor(t, "conn draining", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})
	// Give the per-connection draining flag a moment to set, then probe.
	time.Sleep(50 * time.Millisecond)
	rc.write(AppendQuery(nil, 2, 0, "fast"))
	ft, id, payload := rc.read()
	if ft != ftReply || id != 2 || payload[0] != StatusClosed {
		t.Fatalf("mid-drain frame answered (0x%02x, %d, status %d), want StatusClosed", ft, id, payload[0])
	}
	close(b.release)
	_, id, payload = rc.read()
	if id != 1 || payload[0] != StatusOK {
		t.Fatalf("parked frame = (%d, status %d), want (1, OK)", id, payload[0])
	}
	<-drainDone
	if b.closed.Load() {
		t.Fatal("Drain closed the backend; only Shutdown may")
	}
}

// TestClientClose pins the client-side Close contract: outstanding calls
// fail with ErrClosed, later calls fail with ErrClosed, double Close is
// safe.
func TestClientClose(t *testing.T) {
	s, b := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "slow")
		done <- err
	}()
	waitFor(t, "query parked", func() bool { return b.parked.Load() == 1 })
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; !errors.Is(err, serr.ErrClosed) {
		t.Fatalf("outstanding Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Submit(context.Background(), "q"); !errors.Is(err, serr.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	close(b.release)
}

// TestServerCloseFailsClients: when the server goes away abruptly, the
// client surfaces a connection-lost error on outstanding and future calls
// rather than hanging.
func TestServerCloseFailsClients(t *testing.T) {
	s, b := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "slow")
		done <- err
	}()
	waitFor(t, "query parked", func() bool { return b.parked.Load() == 1 })
	// Close while the query is still parked: the abort closes the socket
	// under it, so the client must see its connection die.
	s.Close()
	if err := <-done; err == nil {
		t.Fatal("Submit across server Close = nil, want error")
	}
}

// TestNoGoroutineLeaks runs a multiplexed load burst, shuts everything
// down, and requires the goroutine count to settle back — the whole tier
// (conns, readers, writers) must unwind.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s, b := startServer(t, Config{})
	close(b.release) // nothing parks; plain load
	var clients []*Client
	for i := 0; i < 4; i++ {
		clients = append(clients, dialClient(t, s.Addr()))
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					c.Submit(context.Background(), "hiking boots")
				}
			}(c)
		}
	}
	wg.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	cancel()
	for _, c := range clients {
		c.Close()
	}

	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// waitFor polls cond up to 5s; the test fails with what it was waiting on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTimeoutClamp pins the deadline discipline: a frame asking for more
// than MaxTimeout is clamped, so a parked query fails by the server's
// bound, not the client's request.
func TestTimeoutClamp(t *testing.T) {
	s, _ := startServer(t, Config{MaxTimeout: 100 * time.Millisecond})
	rc := dialRaw(t, s.Addr())
	start := time.Now()
	rc.write(AppendQuery(nil, 1, 60_000, "slow")) // asks for 60s
	_, _, payload := rc.read()
	if payload[0] != StatusDeadline {
		t.Fatalf("status = %d, want StatusDeadline", payload[0])
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("clamped deadline took %v, want ~100ms", elapsed)
	}
}

// TestLargeBatchRefused: a batch wider than MaxBatchItems is refused as a
// bad request without failing the connection.
func TestLargeBatchRefused(t *testing.T) {
	s, _ := startServer(t, Config{MaxBatchItems: 4})
	rc := dialRaw(t, s.Addr())
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = "q"
	}
	rc.write(AppendBatch(nil, 1, 0, queries))
	ft, id, payload := rc.read()
	if ft != ftBatchReply || id != 1 || payload[0] != StatusBadRequest {
		t.Fatalf("oversized batch = (0x%02x, %d, status %d), want bad request", ft, id, payload[0])
	}
	// The connection survives.
	rc.write(AppendQuery(nil, 2, 0, "fast"))
	if _, id, _ := rc.read(); id != 2 {
		t.Fatalf("follow-up reply id = %d, want 2", id)
	}
}
