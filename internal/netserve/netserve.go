// Package netserve is the network serving tier: an HTTP/JSON front end
// over a round server (single-engine server.Server or sharded
// shard.Server). It exposes
//
//	POST /v1/query        — submit one query, get winners and prices as JSON
//	POST /v1/query/batch  — submit many queries, resolved in one round per shard
//	GET  /v1/stats        — the merged fleet server.Metrics as JSON
//	GET  /v1/metrics      — the same metrics in Prometheus text format
//	GET  /v1/live         — a WebSocket pushing per-round summaries
//
// The package is split along its concerns: handlers.go maps HTTP to the
// backend and its error taxonomy, codec.go is the query path's JSON codec,
// middleware.go holds the per-client token-bucket rate limiter, and ws.go
// is the hand-rolled RFC 6455 subset behind /v1/live (the repo takes no
// dependencies; the stdlib has no WebSocket support).
//
// The two query endpoints and Client encode and decode their JSON by hand,
// appending into pooled buffers, because reflection JSON cost more CPU
// than the auctions it carried. The wire schema is encoding/json's: the
// encoders write the bytes json.Encoder writes, byte for byte, the request
// decoders accept exactly what json.Decoder accepts, and the fuzzers hold
// both to encoding/json. Everything off the query path — /v1/stats,
// /v1/metrics, error bodies, the live feed — stays on encoding/json.
//
// Robustness at the edge: request bodies are bounded, every request gets a
// deadline (client-chosen, clamped to a server maximum), connections carry
// read/write timeouts, per-client token buckets shed abusive traffic
// before it reaches the admission queue, and Shutdown drains — the
// listener stops accepting, in-flight queries are answered through the
// normal worker drain, live subscribers get a going-away close frame.
package netserve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sharedwd/internal/server"
)

// Backend is the round server the tier fronts — the one fleet-facing
// contract every transport (this HTTP tier, the binary tier in
// internal/binproto, in-process clients) programs against. Both
// server.Server and shard.Server satisfy it; the handlers block on it
// through server.Submit and server.SubmitBatch.
type Backend = server.Backend

// Config tunes the network tier. The zero value serves on a random
// loopback port with production-shaped timeouts and no rate limit.
type Config struct {
	// Addr is the listen address ("" means 127.0.0.1:0 — a random
	// loopback port, the test- and demo-friendly default).
	Addr string

	// ReadTimeout / WriteTimeout / IdleTimeout are the per-connection HTTP
	// timeouts (zero values get 10s / 30s / 60s). WriteTimeout must cover
	// MaxTimeout or slow queries lose their connection mid-reply.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration

	// MaxBodyBytes bounds the /v1/query request body (0 means 4096 —
	// queries are phrases, not documents).
	MaxBodyBytes int64

	// DefaultTimeout is the query deadline applied when the client names
	// none (0 means 2s); MaxTimeout clamps client-requested deadlines
	// (0 means 10s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// RateLimit, when positive, enables the per-client token bucket at
	// RateLimit requests per second with bursts of RateBurst (0 bursts
	// default to 2×RateLimit rounded up). The bucket guards /v1/query and
	// /v1/live; /v1/stats and /v1/metrics are exempt so scrapes survive a
	// chatty co-located client.
	RateLimit float64
	RateBurst int

	// LiveQueue is each /v1/live subscriber's send-queue depth (0 means
	// 256); a subscriber that falls this many round summaries behind is
	// dropped rather than ever stalling the round loop. A summary goes out
	// per resolved batch, thousands a second under load, so the default
	// covers a few milliseconds in which the subscriber's writer goroutine
	// is not scheduled: with 16, a healthy subscriber on a busy 2-core box
	// was dropped after a few dozen sequential queries.
	LiveQueue int
}

// withDefaults returns cfg with zero values replaced by the documented
// defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4096
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Second
	}
	if cfg.RateLimit > 0 && cfg.RateBurst <= 0 {
		cfg.RateBurst = int(2*cfg.RateLimit + 0.999)
	}
	if cfg.LiveQueue <= 0 {
		cfg.LiveQueue = 256
	}
	return cfg
}

// NewHubFor returns the live-feed hub New would create for cfg — for
// callers that must wire the hub's RoundHook into the backend's round
// loops before constructing the tier (the round hook is fixed at worker
// start, so the hub has to exist first).
func NewHubFor(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	return NewHub(cfg.LiveQueue, cfg.WriteTimeout)
}

// Server is the network tier: an http.Server bound to a Backend, with the
// live-feed hub and optional rate limiter in front. Create with New, start
// with Start, stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	backend Backend
	hub     *Hub
	limiter *RateLimiter

	httpSrv  *http.Server
	listener net.Listener
	requests atomic.Int64 // v1 HTTP requests received (rate-limited included)

	done chan struct{} // closed when the serve goroutine exits
	err  atomic.Value  // terminal http.Serve error, if any
}

// New builds the tier over backend. hub carries the /v1/live feed and must
// be the same hub whose RoundHook the backend's workers publish to (the
// facade wires this; a nil hub gets a fresh, unfed one so /v1/live still
// answers the handshake). New does not open the listener — Start does.
func New(backend Backend, hub *Hub, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if hub == nil {
		hub = NewHub(cfg.LiveQueue, cfg.WriteTimeout)
	}
	s := &Server{
		cfg:     cfg,
		backend: backend,
		hub:     hub,
		done:    make(chan struct{}),
	}
	if cfg.RateLimit > 0 {
		s.limiter = NewRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.httpSrv = &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		IdleTimeout:  cfg.IdleTimeout,
	}
	return s
}

// Handler returns the tier's root handler — the v1 mux, with the rate
// limiter wrapped around /v1/query and /v1/live (observability endpoints
// are exempt) — for tests and embedding into an existing mux.
func (s *Server) Handler() http.Handler {
	return s.routes()
}

// Start opens the listener and begins serving in a background goroutine.
// It returns once the port is bound, so Addr is valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	go func() {
		defer close(s.done)
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err.Store(err)
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start) — with Addr
// ":0", this is where the kernel actually put us.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Err returns the terminal serve error, if the serve loop died with one.
func (s *Server) Err() error {
	if v := s.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Shutdown drains the tier: the listener stops accepting, in-flight HTTP
// requests run to completion (bounded by ctx), live subscribers get a
// going-away close frame, and finally the backend drains its own queues.
// Every admitted request is answered. Safe to call once; Close after
// Shutdown is a no-op on the backend side only if the backend tolerates
// double Close (both servers here do).
func (s *Server) Shutdown(ctx context.Context) error {
	// 1. Stop accepting and wait for in-flight handlers. The backend is
	// still open, so /v1/query handlers finish normally. Hijacked /v1/live
	// connections are not tracked by http.Server — the hub owns them.
	err := s.httpSrv.Shutdown(ctx)
	// 2. Close the live feed: close frames out, writer goroutines joined.
	s.hub.Close()
	// 3. Drain the backend (workers answer everything already admitted).
	s.backend.Close()
	if s.listener != nil {
		<-s.done
	}
	return err
}

// Close tears the tier down without waiting for in-flight requests. Use
// Shutdown for a graceful drain.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	s.hub.Close()
	s.backend.Close()
	if s.listener != nil {
		<-s.done
	}
	return err
}

// Hub returns the live-feed hub (for wiring round hooks and tests).
func (s *Server) Hub() *Hub { return s.hub }
