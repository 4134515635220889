package sharedwd

import (
	"context"
	"sync"

	"sharedwd/internal/binproto"
	"sharedwd/internal/netserve"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

// Backend is the one fleet-facing serving contract: callback submission
// (SubmitAsync), a metrics snapshot, and drain-on-Close. Server and
// ShardedServer both satisfy it, and every transport — the in-process
// client, the HTTP tier, the binary tier — programs against it.
type Backend = server.Backend

// Client is the one query-submission surface across every transport. The
// three constructors — NewInprocClient, NewHTTPClient, NewBinaryClient —
// return interchangeable implementations: identical results for identical
// backends, and one error taxonomy (errors.Is against ErrNoAuction,
// ErrOverloaded, ErrServerClosed, and the context errors works the same
// over a function call, an HTTP round trip, or a multiplexed binary
// frame). Load generators and applications written against Client switch
// transports without code changes — cmd/loadgen's -proto flag is exactly
// that switch.
//
// All implementations are safe for concurrent use. Close releases the
// client's resources; calls after Close return ErrServerClosed. Only the
// in-process client owns its backend — closing it drains the fleet, while
// closing a network client leaves the remote server running.
type Client interface {
	// Submit resolves one raw query through the fleet: matched to a bid
	// phrase, batched into that phrase's next round, answered with the
	// auction outcome.
	Submit(ctx context.Context, query string) (QueryResult, error)
	// SubmitBatch resolves many queries at once — the efficient path: one
	// admission pass (and, over the network, one round trip) for the whole
	// batch. Results always has len(queries); the error is nil or joins one
	// per-item failure, expandable with SplitBatchErrors.
	SubmitBatch(ctx context.Context, queries []string) ([]QueryResult, error)
	// Stats returns the fleet's merged metrics snapshot.
	Stats(ctx context.Context) (Metrics, error)
	// Close releases the client. Idempotent.
	Close() error
}

// SplitBatchErrors expands a SubmitBatch error into per-item errors
// (index-aligned, nil for succeeded items). A nil error yields n nils.
func SplitBatchErrors(err error, n int) []error { return serr.SplitBatch(err, n) }

// NewInprocClient wraps a backend (Server or ShardedServer) as a Client —
// the zero-transport baseline the network clients are measured against.
// The client owns the backend: Close drains and closes it.
func NewInprocClient(backend Backend) Client {
	return &inprocClient{backend: backend}
}

type inprocClient struct {
	backend   Backend
	closeOnce sync.Once
}

func (c *inprocClient) Submit(ctx context.Context, query string) (QueryResult, error) {
	return server.Submit(ctx, c.backend, query)
}

func (c *inprocClient) SubmitBatch(ctx context.Context, queries []string) ([]QueryResult, error) {
	results, errs := server.SubmitBatch(ctx, c.backend, queries)
	return results, serr.JoinBatch(errs)
}

func (c *inprocClient) Stats(context.Context) (Metrics, error) {
	return c.backend.Metrics(), nil
}

func (c *inprocClient) Close() error {
	c.closeOnce.Do(c.backend.Close)
	return nil
}

// NewHTTPClient returns a Client speaking the HTTP/JSON tier at addr
// (host:port, as reported by NetServer.Addr): POST /v1/query,
// POST /v1/query/batch, GET /v1/stats, with HTTP statuses mapped back
// onto the serving error taxonomy.
func NewHTTPClient(addr string) Client {
	return netserve.NewClient(addr)
}

// NewBinaryClient dials the binary tier at addr (host:port, as reported
// by NetServer.BinaryAddr) and returns a multiplexing Client: all calls
// share one socket, pipelined and completed out of order, with wire
// statuses mapped back onto the serving error taxonomy. Dialing is the
// only failure mode distinct from the other constructors' — the
// connection is established eagerly.
func NewBinaryClient(addr string) (Client, error) {
	return binproto.Dial(addr)
}

// The network clients satisfy Client structurally; pin it.
var (
	_ Client = (*netserve.Client)(nil)
	_ Client = (*binproto.Client)(nil)
)
