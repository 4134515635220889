package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

// Client is the HTTP dial-side of the tier: the inverse of handlers.go,
// mapping /v1/query (and /v1/query/batch, /v1/stats) responses back onto
// server.Result and the serr taxonomy, so errors.Is retry policies written
// against the in-process servers hold over HTTP. It is safe for concurrent
// use; requests ride the transport's connection pool.
type Client struct {
	base     string
	queryURL string
	batchURL string
	hc       *http.Client
	closed   atomic.Bool
}

// NewClient returns a client for the tier at addr (a host:port, as
// returned by Server.Addr).
func NewClient(addr string) *Client {
	base := "http://" + addr
	return &Client{
		base:     base,
		queryURL: base + "/v1/query",
		batchURL: base + "/v1/query/batch",
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     60 * time.Second,
			},
		},
	}
}

// statusErr is submitStatus's inverse: HTTP statuses map back onto the
// sentinels the backend raised. Unclassified statuses keep the server's
// message.
func statusErr(code int, msg string) error {
	switch code {
	case http.StatusNotFound:
		return serr.ErrNoAuction
	case http.StatusTooManyRequests:
		return serr.ErrOverloaded
	case http.StatusServiceUnavailable:
		return serr.ErrClosed
	case http.StatusGatewayTimeout:
		return context.DeadlineExceeded
	case 499:
		return context.Canceled
	default:
		return fmt.Errorf("netserve: HTTP %d: %s", code, msg)
	}
}

// timeoutValue renders the time left before a deadline as an X-Timeout
// value in whole milliseconds, rounded up and at least 1ms: the server
// refuses a zero timeout, so a live deadline under half a millisecond
// must not round down to one.
func timeoutValue(left time.Duration) string {
	ms := left / time.Millisecond
	if left%time.Millisecond > 0 {
		ms++
	}
	return strconv.FormatInt(int64(max(ms, 1)), 10) + "ms"
}

// roundTrip sends req and returns the response when its status is 200; an
// error body becomes statusErr's error.
func (c *Client) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err // *url.Error unwraps to the context error on deadline
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer closeBody(resp)
	var eresp errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		return nil, statusErr(resp.StatusCode, "")
	}
	return nil, statusErr(resp.StatusCode, eresp.Error)
}

// closeBody drains and closes a response body so the connection can be
// reused.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// post sends the JSON request in *buf to url and reads a 200 reply back
// into *buf. The context's deadline, if any, rides as X-Timeout, so the
// server's clamp applies to the same value the client waits for.
func (c *Client) post(ctx context.Context, url string, buf *[]byte) error {
	// The transport may still read a request body after Do returns, and
	// replays it through GetBody, so the body is a copy of the pooled buffer.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bytes.Clone(*buf)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Timeout", timeoutValue(time.Until(dl)))
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	*buf, err = readAll(resp.Body, (*buf)[:0])
	return err
}

// Submit submits one query via POST /v1/query.
func (c *Client) Submit(ctx context.Context, query string) (server.Result, error) {
	if c.closed.Load() {
		return server.Result{}, serr.ErrClosed
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendQueryRequest((*buf)[:0], query)
	if err := c.post(ctx, c.queryURL, buf); err != nil {
		return server.Result{}, err
	}
	return decodeQueryReply(*buf, query)
}

// SubmitBatch submits many queries via POST /v1/query/batch — the Backend
// batch contract: results always has len(queries), and the error joins one
// *serr.ItemError per failed query (expand with serr.SplitBatch).
func (c *Client) SubmitBatch(ctx context.Context, queries []string) ([]server.Result, error) {
	if c.closed.Load() {
		return nil, serr.ErrClosed
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendBatchRequest((*buf)[:0], queries)
	if err := c.post(ctx, c.batchURL, buf); err != nil {
		return nil, err
	}
	results, errs, err := decodeBatchReply(*buf, queries)
	if err != nil {
		return nil, err
	}
	return results, serr.JoinBatch(errs)
}

// Stats fetches the server's merged fleet metrics from GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (server.Metrics, error) {
	if c.closed.Load() {
		return server.Metrics{}, serr.ErrClosed
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return server.Metrics{}, err
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return server.Metrics{}, err
	}
	defer closeBody(resp)
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return server.Metrics{}, err
	}
	return m, nil
}

// Close releases the connection pool; subsequent calls return
// serr.ErrClosed. It does not touch the server. Idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.hc.CloseIdleConnections()
	return nil
}
