package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
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

// fakeBackend scripts outcomes by query string, so handler tests cover the
// whole error taxonomy without a real engine. "slow" queries park until
// release is closed (or their deadline passes), which is how the drain
// tests hold requests in flight.
type fakeBackend struct {
	release chan struct{}
	submits atomic.Int64
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
		case "slow":
			go b.park(it)
		default:
			b.answer(it)
		}
	}
}

// park answers a slow item once release closes, or fails it at its
// deadline (the handlers always set one).
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
	m := server.Metrics{
		Uptime:    90 * time.Second,
		Submitted: 100, Answered: 80, Unmatched: 10, Shed: 5, TimedOut: 3, Expired: 2,
		QueueDepth: 4, QueueCap: 64,
		Rounds: 50, EmptyRounds: 20,
		Engine:       core.Stats{Rounds: 30, AuctionsResolved: 75, NodesMaterialized: 40, Revenue: 12.5},
		ReplanFailed: 1,
	}
	m.ReplanBuildLatency.Add(0.25)
	m.ReplanBuildLatency.Add(0.5)
	for i := 0; i < 100; i++ {
		m.TotalLatency.Summary.Add(float64(i) / 1000)
	}
	if sec := m.Uptime.Seconds(); sec > 0 {
		m.RoundsPerSec = float64(m.Rounds) / sec
		m.QueriesPerSec = float64(m.Answered) / sec
	}
	return m
}

func (b *fakeBackend) Close() { b.closed.Store(true) }

// newTestServer builds an unstarted tier over a fresh fake backend.
func newTestServer(t *testing.T, cfg Config) (*Server, *fakeBackend) {
	t.Helper()
	b := newFakeBackend()
	return New(b, nil, cfg), b
}

func postQuery(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestQueryHandler(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name       string
		body       string
		hdr        map[string]string
		wantStatus int
		retryable  bool // checked only on errors
	}{
		{name: "ok", body: `{"query":"hiking boots"}`, wantStatus: http.StatusOK},
		{name: "ok with timeout field", body: `{"query":"boots","timeout":"250ms"}`, wantStatus: http.StatusOK},
		{name: "ok with timeout header", body: `{"query":"boots"}`, hdr: map[string]string{"X-Timeout": "250ms"}, wantStatus: http.StatusOK},
		{name: "empty query", body: `{"query":""}`, wantStatus: http.StatusBadRequest},
		{name: "blank query", body: `{"query":"   "}`, wantStatus: http.StatusBadRequest},
		{name: "bad json", body: `{"query":`, wantStatus: http.StatusBadRequest},
		{name: "bad timeout", body: `{"query":"x","timeout":"soon"}`, wantStatus: http.StatusBadRequest},
		{name: "negative timeout", body: `{"query":"x","timeout":"-1s"}`, wantStatus: http.StatusBadRequest},
		{name: "no auction", body: `{"query":"junk"}`, wantStatus: http.StatusNotFound},
		{name: "overloaded", body: `{"query":"overload"}`, wantStatus: http.StatusTooManyRequests, retryable: true},
		{name: "closed", body: `{"query":"closing"}`, wantStatus: http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postQuery(t, h, tc.body, tc.hdr)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.wantStatus, w.Body)
			}
			if tc.wantStatus == http.StatusOK {
				var resp queryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatalf("bad response JSON: %v", err)
				}
				if resp.Phrase != 7 || resp.Round != 42 || len(resp.Slots) != 2 {
					t.Fatalf("unexpected response %+v", resp)
				}
				if resp.Slots[0].PricePaid != 1.25 {
					t.Fatalf("slot price = %v, want 1.25", resp.Slots[0].PricePaid)
				}
				return
			}
			var er errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, w.Body)
			}
			if er.Error == "" {
				t.Fatal("error body has empty message")
			}
			if er.Retryable != tc.retryable {
				t.Fatalf("retryable = %v, want %v", er.Retryable, tc.retryable)
			}
		})
	}
}

func TestQueryDeadline(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultTimeout: 20 * time.Millisecond})
	w := postQuery(t, s.Handler(), `{"query":"slow"}`, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow query status = %d, want 504 (body %s)", w.Code, w.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !er.Retryable {
		t.Fatalf("timeout should be a retryable JSON error, got %s (err %v)", w.Body, err)
	}
}

func TestQueryBodyBound(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"query":"` + strings.Repeat("x", 200) + `"}`
	w := postQuery(t, s.Handler(), big, nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", w.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status = %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header = %q, want POST", allow)
	}
}

// TestStatsRoundTrip is the wire-schema acceptance check: the /v1/stats
// body must unmarshal back into a server.Metrics equal in every counter
// and distribution to what the backend reported.
func TestStatsRoundTrip(t *testing.T) {
	s, b := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var got server.Metrics
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("stats did not unmarshal into Metrics: %v", err)
	}
	want := b.Metrics()
	if got.Submitted != want.Submitted || got.Answered != want.Answered ||
		got.Shed != want.Shed || got.Uptime != want.Uptime ||
		got.Engine != want.Engine {
		t.Fatalf("decoded metrics differ: got %+v want %+v", got, want)
	}
	for _, key := range []string{`"nodes_cached"`, `"cache_bypassed_rounds"`} {
		if strings.Contains(w.Body.String(), key) {
			t.Fatalf("/v1/stats still carries the removed key %s: %s", key, w.Body.String())
		}
	}
	if got.TotalLatency.Count() != want.TotalLatency.Count() ||
		got.TotalLatency.Mean() != want.TotalLatency.Mean() {
		t.Fatalf("latency distribution did not round-trip: got n=%d mean=%v",
			got.TotalLatency.Count(), got.TotalLatency.Mean())
	}
}

// promLine matches one Prometheus sample line:  name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsPrometheusFormat parses the exposition line by line: every
// non-comment line must be a well-formed sample, every family must carry
// HELP and TYPE, and a few known values must match the backend.
func TestMetricsPrometheusFormat(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}

	types := map[string]string{}
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		samples[name] = line[strings.LastIndex(line, " ")+1:]
	}

	// Every sample belongs to a declared family (summaries declare the
	// base name; _sum/_count ride on it).
	for name := range samples {
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", name)
			}
		}
	}
	for fam, typ := range types {
		switch typ {
		case "counter", "gauge":
			if _, ok := samples[fam]; !ok {
				t.Fatalf("family %q (%s) has no sample", fam, typ)
			}
		case "summary":
			if _, ok := samples[fam+"_count"]; !ok {
				t.Fatalf("summary %q missing _count", fam)
			}
		default:
			t.Fatalf("family %q has unexpected type %q", fam, typ)
		}
	}

	if got := samples["sharedwd_submitted_total"]; got != "100" {
		t.Fatalf("sharedwd_submitted_total = %q, want 100", got)
	}
	if got := samples["sharedwd_engine_auctions_resolved_total"]; got != "75" {
		t.Fatalf("sharedwd_engine_auctions_resolved_total = %q, want 75", got)
	}
	// The deleted cross-round cache's series must stay unexported.
	for _, fam := range []string{"sharedwd_engine_nodes_cached_total", "sharedwd_engine_cache_bypassed_rounds_total"} {
		if _, ok := types[fam]; ok {
			t.Fatalf("removed family %q is still exported", fam)
		}
	}
	if got := samples["sharedwd_engine_nodes_materialized_total"]; got != "40" {
		t.Fatalf("sharedwd_engine_nodes_materialized_total = %q, want 40", got)
	}
	if got := samples["sharedwd_total_latency_seconds_count"]; got != "100" {
		t.Fatalf("sharedwd_total_latency_seconds_count = %q, want 100", got)
	}
	for name, want := range map[string]string{
		"sharedwd_replan_failed_total":        "1",
		"sharedwd_replan_build_seconds_total": "0.75",
		"sharedwd_replan_build_seconds_max":   "0.5",
	} {
		if got := samples[name]; got != want {
			t.Fatalf("%s = %q, want %s", name, got, want)
		}
	}
}

func TestRateLimiterBurstAndRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewRateLimiter(10, 3) // 10 tokens/sec, burst 3
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !l.Allow("a") {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	if l.Allow("a") {
		t.Fatal("request beyond burst admitted")
	}
	if l.Refused() != 1 {
		t.Fatalf("refused = %d, want 1", l.Refused())
	}
	// Other clients have their own buckets.
	if !l.Allow("b") {
		t.Fatal("fresh client refused while another is limited")
	}
	// 100ms refills one token at 10/sec.
	now = now.Add(100 * time.Millisecond)
	if !l.Allow("a") {
		t.Fatal("refilled token refused")
	}
	if l.Allow("a") {
		t.Fatal("second request after single-token refill admitted")
	}
	// A long quiet period refills to burst, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow("a") {
			t.Fatalf("request %d within refilled burst refused", i)
		}
	}
	if l.Allow("a") {
		t.Fatal("bucket refilled beyond burst")
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	s, _ := newTestServer(t, Config{RateLimit: 1, RateBurst: 2})
	h := s.Handler()
	post := func(remote string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query":"hiking boots"}`))
		req.RemoteAddr = remote
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	codes := []int{}
	for i := 0; i < 4; i++ {
		codes = append(codes, post("192.0.2.1:5000")) // same host, varying port later
	}
	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("burst requests got %v, want two 200s first", codes)
	}
	if codes[2] != http.StatusTooManyRequests || codes[3] != http.StatusTooManyRequests {
		t.Fatalf("post-burst requests got %v, want 429s", codes)
	}
	// A different source port is the same client: still limited.
	if code := post("192.0.2.1:6000"); code != http.StatusTooManyRequests {
		t.Fatalf("same host, new port admitted (%d); buckets must key on host", code)
	}
	// A different host is a different client.
	if code := post("192.0.2.2:5000"); code != http.StatusOK {
		t.Fatalf("different host refused (%d)", code)
	}
	// Observability endpoints are exempt: the rate-limited client's host
	// (think a Prometheus scraper behind the same NAT) still scrapes.
	for _, path := range []string{"/v1/stats", "/v1/metrics"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.RemoteAddr = "192.0.2.1:5000"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s from rate-limited host = %d, want 200 (exempt)", path, w.Code)
		}
	}
}

func TestRateLimiterTableBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewRateLimiter(10, 3)
	l.now = func() time.Time { return now }
	// With time frozen, every bucket stays mid-drain (tokens < burst), so
	// full-bucket eviction never applies; the stalest-bucket fallback must
	// still hold the table at maxBuckets as new clients keep arriving.
	for i := 0; i < maxBuckets+64; i++ {
		if !l.Allow(fmt.Sprintf("client-%d", i)) {
			t.Fatalf("fresh client %d refused", i)
		}
		if n := len(l.buckets); n > maxBuckets {
			t.Fatalf("bucket table grew to %d entries, beyond cap %d", n, maxBuckets)
		}
	}
}

// --- WebSocket client helpers (test side of RFC 6455) ---

// wsDial performs the client half of the opening handshake against a
// started Server and returns the raw connection positioned after the 101.
func wsDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	key := base64.StdEncoding.EncodeToString([]byte("0123456789abcdef"))
	fmt.Fprintf(conn, "GET /v1/live HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", addr, key)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	if !strings.Contains(status, "101") {
		t.Fatalf("handshake status = %q, want 101", strings.TrimSpace(status))
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read headers: %v", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Sec-WebSocket-Accept: "); ok {
			accept = v
		}
	}
	if accept != wsAccept(key) {
		t.Fatalf("Sec-WebSocket-Accept = %q, want %q", accept, wsAccept(key))
	}
	return conn, br
}

// wsReadFrame reads one server frame (unmasked) from the test client side.
func wsReadFrame(t *testing.T, br *bufio.Reader) (byte, []byte) {
	t.Helper()
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	length := int(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			t.Fatalf("read extended length: %v", err)
		}
		length = int(binary.BigEndian.Uint16(ext[:]))
	case 127:
		t.Fatal("unexpectedly huge server frame")
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return hdr[0] & 0x0F, payload
}

// wsWriteClientFrame writes one masked client frame.
func wsWriteClientFrame(t *testing.T, conn net.Conn, op byte, payload []byte) {
	t.Helper()
	if len(payload) >= 126 {
		t.Fatal("test helper supports only short frames")
	}
	mask := [4]byte{0x12, 0x34, 0x56, 0x78}
	buf := make([]byte, 0, 6+len(payload))
	buf = append(buf, 0x80|op, 0x80|byte(len(payload)))
	buf = append(buf, mask[:]...)
	for i, b := range payload {
		buf = append(buf, b^mask[i%4])
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("write client frame: %v", err)
	}
}

// startServer starts the tier on a loopback port and returns its address.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return s.Addr()
}

func TestLiveFeedBroadcast(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	addr := startServer(t, s)
	defer s.Close()

	conn, br := wsDial(t, addr)
	defer conn.Close()

	// The subscriber registers asynchronously with the handler goroutine;
	// wait for the hub to see it before broadcasting.
	waitFor(t, func() bool { return s.Hub().Conns() == 1 })

	hook := s.Hub().RoundHook()
	rs := server.RoundSummary{Shard: 2, Round: 9, Queries: 17, P95: 0.004}
	hook(rs)

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, payload := wsReadFrame(t, br)
	if op != opText {
		t.Fatalf("opcode = %#x, want text", op)
	}
	var got server.RoundSummary
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("payload is not a RoundSummary: %v (%s)", err, payload)
	}
	if got != rs {
		t.Fatalf("round summary = %+v, want %+v", got, rs)
	}

	// Ping → pong with the same payload.
	wsWriteClientFrame(t, conn, opPing, []byte("hello"))
	op, payload = wsReadFrame(t, br)
	if op != opPong || string(payload) != "hello" {
		t.Fatalf("ping answer = %#x %q, want pong hello", op, payload)
	}

	// Client close → server echoes the client's status code (RFC 6455
	// §5.5.1), connection unregistered.
	wsWriteClientFrame(t, conn, opClose, closePayload(4000, "done"))
	op, payload = wsReadFrame(t, br)
	if op != opClose || len(payload) < 2 || binary.BigEndian.Uint16(payload) != 4000 {
		t.Fatalf("close answer = %#x %v, want close echoing 4000", op, payload)
	}
	waitFor(t, func() bool { return s.Hub().Conns() == 0 })
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	// A masked frame whose 64-bit extended length is past int64 (or just
	// past the size cap) must be a protocol error — not a negative length
	// that slips past the bound check into make, which panics.
	for _, declared := range []uint64{maxClientFrame + 1, 1 << 63, ^uint64(0)} {
		var buf bytes.Buffer
		buf.Write([]byte{0x80 | opText, 0x80 | 127}) // FIN text, masked, 64-bit length
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], declared)
		buf.Write(ext[:])
		buf.Write([]byte{0x12, 0x34, 0x56, 0x78}) // mask key
		if _, _, err := readFrame(bufio.NewReader(&buf)); err == nil {
			t.Fatalf("frame declaring %d bytes accepted", declared)
		}
	}
}

func TestLiveFeedRejectsOversizedFrame(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	addr := startServer(t, s)
	defer s.Close()

	conn, br := wsDial(t, addr)
	defer conn.Close()
	waitFor(t, func() bool { return s.Hub().Conns() == 1 })

	// 14 bytes claiming a 2^63-byte payload: the server must answer with a
	// protocol-error close and unregister the connection, not panic the
	// handler and leak the hub registration.
	frame := []byte{0x80 | opText, 0x80 | 127}
	var ext [8]byte
	binary.BigEndian.PutUint64(ext[:], 1<<63)
	frame = append(frame, ext[:]...)
	frame = append(frame, 0x12, 0x34, 0x56, 0x78)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write oversized frame: %v", err)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, p := wsReadFrame(t, br)
	if op != opClose || len(p) < 2 || binary.BigEndian.Uint16(p) != 1002 {
		t.Fatalf("answer = %#x %v, want close 1002", op, p)
	}
	waitFor(t, func() bool { return s.Hub().Conns() == 0 })
}

func TestLiveFeedDropsSlowConsumer(t *testing.T) {
	s, _ := newTestServer(t, Config{LiveQueue: 2})
	addr := startServer(t, s)
	defer s.Close()

	conn, br := wsDial(t, addr)
	defer conn.Close()
	waitFor(t, func() bool { return s.Hub().Conns() == 1 })

	// Never read: the send queue (2) plus the socket buffer absorb some
	// frames, then the hub must drop us rather than block.
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 10_000 && s.Hub().Dropped() == 0; i++ {
		s.Hub().Broadcast(payload)
	}
	if s.Hub().Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", s.Hub().Dropped())
	}
	waitFor(t, func() bool { return s.Hub().Conns() == 0 })

	// The dropped client eventually sees a 1008 close frame.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		op, p := wsReadFrame(t, br)
		if op != opClose {
			continue // buffered broadcast frames before the close
		}
		if len(p) < 2 || binary.BigEndian.Uint16(p) != 1008 {
			t.Fatalf("close payload = %v, want status 1008", p)
		}
		break
	}
}

func TestLiveFeedRejectsPlainGET(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/live", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusUpgradeRequired {
		t.Fatalf("plain GET /v1/live = %d, want 426", w.Code)
	}
}

// TestShutdownDrains is the graceful-drain acceptance check: every request
// admitted before Shutdown is answered, the live feed closes cleanly, and
// no goroutine survives.
func TestShutdownDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, b := newTestServer(t, Config{DefaultTimeout: 5 * time.Second})
	addr := startServer(t, s)

	// A live subscriber to drain too.
	wsc, wsbr := wsDial(t, addr)
	defer wsc.Close()
	waitFor(t, func() bool { return s.Hub().Conns() == 1 })

	// Park inFlight requests on the backend.
	const inFlight = 8
	var started, done sync.WaitGroup
	codes := make([]int, inFlight)
	client := &http.Client{}
	for i := 0; i < inFlight; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/query",
				strings.NewReader(`{"query":"slow"}`))
			started.Done()
			resp, err := client.Do(req)
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	started.Wait()
	waitFor(t, func() bool { return b.submits.Load() >= inFlight })

	// Shutdown concurrently with the parked requests; release the backend
	// once the listener has stopped accepting.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// New connections must be refused once the listener closes.
	waitFor(t, func() bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})
	close(b.release)

	done.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request %d answered %d, want 200 (all: %v)", i, code, codes)
		}
	}
	if !b.closed.Load() {
		t.Fatal("backend not closed by Shutdown")
	}

	// The live subscriber got a going-away close frame.
	wsc.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, p := wsReadFrame(t, wsbr)
	if op != opClose || len(p) < 2 || binary.BigEndian.Uint16(p) != 1001 {
		t.Fatalf("live close frame = %#x %v, want close 1001", op, p)
	}

	// Zero goroutine leaks (allow the runtime a moment to reap).
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
