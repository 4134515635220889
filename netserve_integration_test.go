package sharedwd

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestNetServerEndToEnd exercises the whole network path through the
// public facade: NewNetServer over a real sharded fleet, queries over
// real HTTP, /v1/stats decoding back into Metrics, the live WebSocket
// feed carrying genuine round summaries, and a graceful Shutdown.
func TestNetServerEndToEnd(t *testing.T) {
	wcfg := DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 200
	wcfg.NumPhrases = 16
	w := Must(GenerateWorkload(wcfg))

	fleet := DefaultShardedServerConfig()
	fleet.Shards = 2
	fleet.Worker.RoundInterval = 2 * time.Millisecond
	ns, err := NewNetServer(w, NetServerConfig{
		Fleet: fleet,
		HTTP:  &HTTPServerConfig{RateLimit: 10_000, RateBurst: 20_000},
	})
	if err != nil {
		t.Fatalf("NewNetServer: %v", err)
	}
	addr := ns.Addr()
	if addr == "" {
		t.Fatal("NewNetServer returned without a bound address")
	}

	// Subscribe to the live feed before generating traffic, so real round
	// summaries flow to us.
	wsc, wsbr := dialLive(t, addr)
	defer wsc.Close()

	// Real queries through the matcher: phrase names match themselves.
	client := &http.Client{Timeout: 5 * time.Second}
	phrase := w.PhraseNames[0]
	var answered int
	for i := 0; i < 50; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"query":%q,"timeout":"1s"}`, phrase))
		resp, err := client.Post("http://"+addr+"/v1/query", "application/json", body)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var qr struct {
			Phrase int `json:"phrase"`
			Round  int `json:"round"`
		}
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("query %d: bad body: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		answered++
	}

	// A nonsense query is 404 ErrNoAuction on the wire.
	resp, err := client.Post("http://"+addr+"/v1/query", "application/json",
		strings.NewReader(`{"query":"zzzz no such phrase zzzz"}`))
	if err != nil {
		t.Fatalf("junk query: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("junk query status = %d, want 404", resp.StatusCode)
	}

	// /v1/stats decodes into Metrics and reflects the traffic.
	resp, err = client.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if m.Answered < int64(answered) {
		t.Fatalf("stats answered = %d, want ≥ %d", m.Answered, answered)
	}
	if m.TotalLatency.Count() < answered {
		t.Fatalf("latency samples = %d, want ≥ %d", m.TotalLatency.Count(), answered)
	}

	// /v1/metrics serves Prometheus text mentioning the same counter.
	resp, err = client.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(promBody), "sharedwd_answered_total") {
		t.Fatal("prometheus exposition missing sharedwd_answered_total")
	}

	// The live feed delivered at least one real round summary.
	wsc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rs RoundSummary
	for {
		op, payload := readServerFrame(t, wsbr)
		if op != 0x1 {
			continue
		}
		if err := json.Unmarshal(payload, &rs); err != nil {
			t.Fatalf("live frame is not a RoundSummary: %v (%s)", err, payload)
		}
		break
	}
	if rs.Queries <= 0 || rs.Round < 0 {
		t.Fatalf("round summary carries no traffic: %+v", rs)
	}
	if rs.Shard < 0 || rs.Shard > 1 {
		t.Fatalf("round summary shard = %d, want 0 or 1", rs.Shard)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The subscriber sees the going-away close frame.
	wsc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		op, p := readServerFrame(t, wsbr)
		if op != 0x8 {
			continue
		}
		if binary.BigEndian.Uint16(p) != 1001 {
			t.Fatalf("close status = %d, want 1001", binary.BigEndian.Uint16(p))
		}
		break
	}
}

// TestNetServerEdges builds NewNetServer with each combination of edges.
// An edge serves iff its config is set, an off edge reports "" for its
// address, a config with no edge is refused, and Shutdown answers a query
// held mid-round on every serving edge before it returns, leaving no
// goroutine behind. Close, the immediate teardown, leaks none either.
func TestNetServerEdges(t *testing.T) {
	wcfg := DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 60
	wcfg.NumPhrases = 8
	phrase := Must(GenerateWorkload(wcfg)).PhraseNames[0]

	for _, tc := range []struct {
		name         string
		http, binary bool
		// hourRound sets RoundInterval to an hour and stalls no round: the
		// query waits in its worker's batch for a tick that never comes in
		// time, and Shutdown must still answer it and return within 1 s.
		hourRound bool
	}{
		{"http", true, false, false},
		{"binary", false, true, false},
		{"both", true, true, false},
		{"neither", false, false, false},
		{"http-hour-round", true, false, true},
		{"binary-hour-round", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Otherwise the first round to carry a query parks until
			// release, so the query is still in flight when Shutdown starts.
			var stalled atomic.Int32
			release := make(chan struct{})
			cfg := NetServerConfig{Fleet: DefaultShardedServerConfig()}
			cfg.Fleet.Shards = 2
			cfg.Fleet.Worker.RoundInterval = time.Hour
			if !tc.hourRound {
				cfg.Fleet.Worker.RoundInterval = 2 * time.Millisecond
				cfg.Fleet.Worker.BeforeResolve = func() {
					stalled.Add(1)
					<-release
				}
			}
			if tc.http {
				cfg.HTTP = &HTTPServerConfig{}
			}
			if tc.binary {
				cfg.Binary = &BinaryServerConfig{}
			}
			before := runtime.NumGoroutine()
			ns, err := NewNetServer(Must(GenerateWorkload(wcfg)), cfg)
			if !tc.http && !tc.binary {
				if err == nil {
					ns.Close()
					t.Fatal("NewNetServer with no edge returned no error")
				}
				return
			}
			if err != nil {
				t.Fatalf("NewNetServer: %v", err)
			}
			if got := ns.Addr() != ""; got != tc.http {
				t.Fatalf("Addr() = %q with HTTP edge %v", ns.Addr(), tc.http)
			}
			if got := ns.BinaryAddr() != ""; got != tc.binary {
				t.Fatalf("BinaryAddr() = %q with binary edge %v", ns.BinaryAddr(), tc.binary)
			}

			var clients []Client
			if tc.http {
				clients = append(clients, NewHTTPClient(ns.Addr()))
			}
			if tc.binary {
				c, err := NewBinaryClient(ns.BinaryAddr())
				if err != nil {
					t.Fatalf("NewBinaryClient: %v", err)
				}
				clients = append(clients, c)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
			defer cancel()
			errs := make(chan error, len(clients))
			for _, c := range clients {
				go func(c Client) {
					_, err := c.Submit(ctx, phrase)
					errs <- err
				}(c)
			}
			for (!tc.hourRound && stalled.Load() == 0) || ns.Fleet().Metrics().Submitted < int64(len(clients)) {
				if ctx.Err() != nil {
					t.Fatal("queries were never admitted")
				}
				time.Sleep(time.Millisecond)
			}

			if tc.hourRound {
				shutCtx, cancelShut := context.WithTimeout(ctx, time.Second)
				t0 := time.Now()
				err := ns.Shutdown(shutCtx)
				cancelShut()
				if err != nil {
					t.Fatalf("Shutdown with an hour-long round: %v after %v", err, time.Since(t0))
				}
				if d := time.Since(t0); d > time.Second {
					t.Fatalf("Shutdown with an hour-long round took %v, want ≤ 1s", d)
				}
			} else {
				// Release the round once Shutdown has closed the first edge
				// it drains (binary before HTTP): the edge refuses new
				// connections.
				shut := make(chan error, 1)
				go func() { shut <- ns.Shutdown(ctx) }()
				first := ns.Addr()
				if tc.binary {
					first = ns.BinaryAddr()
				}
				for {
					conn, err := net.Dial("tcp", first)
					if err != nil {
						break
					}
					conn.Close()
					time.Sleep(time.Millisecond)
				}
				close(release)
				if err := <-shut; err != nil {
					t.Fatalf("Shutdown: %v", err)
				}
			}
			for range clients {
				if err := <-errs; err != nil {
					t.Errorf("query in flight across Shutdown: %v", err)
				}
			}
			if m := ns.Fleet().Metrics(); m.Answered != int64(len(clients)) {
				t.Errorf("answered %d, want %d", m.Answered, len(clients))
			}
			for _, c := range clients {
				c.Close()
			}
			waitGoroutines(t, "Shutdown", before)

			ns, err = NewNetServer(Must(GenerateWorkload(wcfg)), cfg)
			if err != nil {
				t.Fatalf("NewNetServer: %v", err)
			}
			if err := ns.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			waitGoroutines(t, "Close", before)
		})
	}
}

// waitGoroutines fails the test unless the goroutine count returns to at
// most before within a few seconds.
func waitGoroutines(t *testing.T, after string, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after %s: %d before, %d after\n%s", after, before, n, buf[:runtime.Stack(buf, true)])
	}
}

// dialLive performs the WebSocket opening handshake against /v1/live.
func dialLive(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	key := base64.StdEncoding.EncodeToString([]byte("integrationtest!"))
	fmt.Fprintf(conn, "GET /v1/live HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", addr, key)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "101") {
		t.Fatalf("handshake: %q (%v)", status, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("handshake headers: %v", err)
		}
		if strings.TrimSpace(line) == "" {
			return conn, br
		}
	}
}

// readServerFrame reads one unmasked server WebSocket frame.
func readServerFrame(t *testing.T, br *bufio.Reader) (byte, []byte) {
	t.Helper()
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("frame header: %v", err)
	}
	length := int(hdr[1] & 0x7F)
	if length == 126 {
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			t.Fatalf("frame length: %v", err)
		}
		length = int(binary.BigEndian.Uint16(ext[:]))
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	return hdr[0] & 0x0F, payload
}
