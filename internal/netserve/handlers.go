package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

// The request and response structs below fix the query path's wire
// schema. The handlers and Client encode it with codec.go's hand encoders
// and decode it with its matchers, falling back on encoding/json into these
// structs; encoding/json is also what the tests check the codec against.

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Query is the search phrase to auction.
	Query string `json:"query"`
	// Timeout is the optional per-request deadline as a Go duration string
	// ("250ms", "2s"); the X-Timeout header takes precedence. Absent both,
	// the server's DefaultTimeout applies; either way MaxTimeout clamps.
	Timeout string `json:"timeout,omitempty"`
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	Query  string            `json:"query"`
	Phrase int               `json:"phrase"`
	Shard  int               `json:"shard"`
	Round  int               `json:"round"`
	Slots  []core.SlotResult `json:"slots"`
	// LatencyNS is the backend's submit-to-answer latency in nanoseconds
	// (the network round trip is the client's to measure).
	LatencyNS int64 `json:"latency_ns"`
}

// batchRequest is the POST /v1/query/batch body: many queries resolved in
// (at most) one round per shard via server.SubmitBatch. One Timeout covers
// the whole batch.
type batchRequest struct {
	Queries []string `json:"queries"`
	Timeout string   `json:"timeout,omitempty"`
}

// batchItem is one entry of the POST /v1/query/batch response: the auction
// outcome for queries[i], or that item's error. Code carries the HTTP
// status the same failure maps to on /v1/query, so batch clients reuse the
// single-query status table.
type batchItem struct {
	Query     string            `json:"query"`
	Phrase    int               `json:"phrase,omitempty"`
	Shard     int               `json:"shard,omitempty"`
	Round     int               `json:"round,omitempty"`
	Slots     []core.SlotResult `json:"slots,omitempty"`
	LatencyNS int64             `json:"latency_ns,omitempty"`
	Error     string            `json:"error,omitempty"`
	Retryable bool              `json:"retryable,omitempty"`
	Code      int               `json:"code,omitempty"`
}

// batchResponse is the POST /v1/query/batch success body. The HTTP status
// is 200 whenever the batch itself was accepted — per-item failures live
// in the items.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// routes builds the v1 mux. Method-qualified patterns (Go 1.22 ServeMux)
// give wrong-method requests a 405 with Allow for free. The rate limiter
// guards only the endpoints that reach the backend or pin a connection
// (/v1/query, /v1/query/batch, /v1/live); the observability endpoints stay
// exempt so a Prometheus scraper sharing a host (or NAT) with a chatty
// client never loses a scrape to that client's bucket.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.limited(http.HandlerFunc(s.handleQuery)))
	mux.Handle("POST /v1/query/batch", s.limited(http.HandlerFunc(s.handleBatch)))
	mux.Handle("GET /v1/live", s.limited(http.HandlerFunc(s.handleLive)))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// limited wraps h with the rate limiter when one is configured.
func (s *Server) limited(h http.Handler) http.Handler {
	if s.limiter == nil {
		return h
	}
	return s.limiter.Middleware(h)
}

// requestTimeout resolves the effective deadline for one query: X-Timeout
// header, then the body's timeout field, then DefaultTimeout — clamped to
// MaxTimeout. A malformed or non-positive duration is a client error.
func (s *Server) requestTimeout(r *http.Request, body queryRequest) (time.Duration, error) {
	raw := r.Header.Get("X-Timeout")
	if raw == "" {
		raw = body.Timeout
	}
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// handleQuery submits one query to the backend and renders the auction
// outcome. The serving error taxonomy maps onto HTTP statuses:
//
//	serr.ErrNoAuction       → 404 (the query matches no bid phrase)
//	serr.ErrOverloaded      → 429 + Retry-After (admission backpressure)
//	serr.ErrClosed          → 503 (server draining)
//	context.DeadlineExceeded → 504 (the request's own deadline)
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	data, rerr := readAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), (*buf)[:0])
	*buf = data
	req, err := decodeQueryRequest(data, rerr)
	if badBody(w, err) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "empty query", false)
		return
	}
	timeout, err := s.requestTimeout(r, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := server.Submit(ctx, s.backend, req.Query)
	if err != nil {
		code, retryable := submitStatus(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err.Error(), retryable)
		return
	}

	resp := queryResponse{
		Query:     req.Query,
		Phrase:    res.Phrase,
		Shard:     res.Shard,
		Round:     res.Round,
		Slots:     res.Slots,
		LatencyNS: int64(res.Latency),
	}
	if resp.Slots == nil {
		resp.Slots = []core.SlotResult{}
	}
	var ok bool
	*buf, ok = appendQueryResponse((*buf)[:0], &resp)
	writeReply(w, *buf, ok)
}

// badBody answers a request whose body decodeQueryRequest or
// decodeBatchRequest refused with err: json.Decoder's error, which is the
// read error itself when one cut the value short. That is 413 when the body
// bound did, 400 with the decode error otherwise. It reports whether it
// answered.
func badBody(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), false)
		return true
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), false)
	return true
}

// writeReply writes a query-path reply body in one Write with its
// Content-Length. ok=false means a price was not finite: json.Encoder
// wrote nothing then, and so does writeReply.
func writeReply(w http.ResponseWriter, body []byte, ok bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if !ok {
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// submitStatus maps one serving error onto its HTTP status and retryable
// flag — the single-query table, shared with per-item batch errors:
//
//	serr.ErrNoAuction        → 404 (the query matches no bid phrase)
//	serr.ErrOverloaded       → 429 (admission backpressure; retryable)
//	serr.ErrClosed           → 503 (server draining)
//	context.DeadlineExceeded → 504 (the request's own deadline; retryable)
//	context.Canceled         → 499 (the client went away)
func submitStatus(err error) (code int, retryable bool) {
	switch {
	case errors.Is(err, serr.ErrNoAuction):
		return http.StatusNotFound, false
	case errors.Is(err, serr.ErrOverloaded):
		return http.StatusTooManyRequests, true
	case errors.Is(err, serr.ErrClosed):
		return http.StatusServiceUnavailable, false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, true
	case errors.Is(err, context.Canceled):
		return 499, false
	default:
		return http.StatusInternalServerError, false
	}
}

// maxBatchQueries bounds the queries in one /v1/query/batch request, as
// binproto's default MaxBatchItems bounds a batch frame: the body bound
// alone admits some 65,000 one-byte queries and a reply 40× the request.
const maxBatchQueries = 256

// handleBatch submits many queries in one request via the backend's batch
// path — grouped per shard, resolved in at most one round each — and
// renders per-item outcomes. The response is 200 whenever the batch was
// accepted; each failed item carries its own error, retryable flag, and
// the /v1/query status code the same failure would have produced. A batch
// of more than maxBatchQueries is refused with 400 before any of it
// reaches the backend.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	// The single-query body bound assumes one phrase; scale it by the
	// batch width the backend tolerates.
	data, rerr := readAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes*64), (*buf)[:0])
	*buf = data
	req, err := decodeBatchRequest(data, rerr)
	if badBody(w, err) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch", false)
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries), false)
		return
	}
	timeout, err := s.requestTimeout(r, queryRequest{Timeout: req.Timeout})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	results, errs := server.SubmitBatch(ctx, s.backend, req.Queries)
	var ok bool
	*buf, ok = appendBatchReply((*buf)[:0], req.Queries, results, errs)
	writeReply(w, *buf, ok)
}

// handleStats renders the merged fleet metrics as JSON — the same stable
// snake_case schema server.Metrics marshals to, so the body unmarshals
// back into a server.Metrics that can be re-merged with other replicas'.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.backend.Metrics())
}

// handleMetrics renders the same numbers in Prometheus text exposition
// format, plus the edge tier's own counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	edge := edgeStats{
		liveConns:    s.hub.Conns(),
		liveDropped:  s.hub.Dropped(),
		httpRequests: s.requests.Load(),
	}
	if s.limiter != nil {
		edge.raterefused = s.limiter.Refused()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, s.backend.Metrics(), edge)
}

// handleLive upgrades to WebSocket and subscribes the connection to the
// round feed. The call blocks in the hub's reader loop until the
// connection ends — http.Server has already released the connection to us
// via Hijack, so holding the handler goroutine is the intended shape.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	conn, br := wsUpgrade(w, r)
	if conn == nil {
		return // wsUpgrade wrote the HTTP error
	}
	s.hub.serve(conn, br)
}
