package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is the one fleet-facing serving contract: the method set every
// front end (the HTTP/JSON tier in internal/netserve, the binary tier in
// internal/binproto, and in-process callers through the facade's Client)
// programs against. Both the single-engine Server here and the sharded
// shard.Server satisfy it. Callers that want to block use Submit and
// SubmitBatch below, which wait on SubmitAsync.
//
// The error taxonomy is internal/serr's, and it has one shape: every
// completion receives a bare sentinel — serr.ErrNoAuction,
// serr.ErrOverloaded, serr.ErrClosed — or context.DeadlineExceeded,
// allocation-free. A completion that fails after routing carries the
// query's Phrase and Shard in its Result (the rest zero). Only the sharded
// server's blocking Submit and SubmitBatch turn that into a
// *serr.QueryError; errors.Is matches the sentinels through it.
type Backend interface {
	// SubmitAsync admits a batch of items and returns without blocking;
	// each item's outcome arrives exactly once through its Completion —
	// synchronously for refusals, from a round loop otherwise. The items
	// slice is only read during the call; the caller may reuse it as soon
	// as SubmitAsync returns. Safe for concurrent use.
	SubmitAsync(items []AsyncItem)

	// Metrics returns the merged observability view across the fleet.
	Metrics() Metrics

	// Close drains and stops the backend: admitted items are answered,
	// outstanding clicks settle, and every goroutine the backend started
	// exits. Idempotent and safe to call concurrently.
	Close()
}

// Completion receives one query's outcome. It is an interface rather than
// a func value so implementations can be pooled concrete types — a closure
// per request would put an allocation back on the path the pool exists to
// clear.
//
// Complete fires exactly once per submitted item: from the round loop when
// the item was admitted, or synchronously from SubmitAsync on refusal. It
// runs on the loop goroutine, so it must be fast and must never block —
// hand the result to a writer queue or drop it.
type Completion interface {
	Complete(i int, res Result, err error)
}

// AsyncItem is one query submitted to a Backend. The Done completion is
// invoked with Index, so one Completion can serve a whole batch with each
// item writing a disjoint slot.
type AsyncItem struct {
	// Query is the raw query string (matched by the backend's matcher).
	Query string
	// Deadline bounds how long the item may wait for a round; zero means
	// no deadline. An expired item is answered with
	// context.DeadlineExceeded when the batch it waits in closes.
	Deadline time.Time
	// Done receives the outcome, exactly once.
	Done Completion
	// Index is passed through to Done.Complete.
	Index int
}

var _ Backend = (*Server)(nil)

// Submit is the blocking form of a one-item SubmitAsync: it returns the
// query's outcome once its round resolves or the backend refuses it, or
// ctx.Err() as soon as ctx is done. A ctx deadline bounds the item's wait
// for a round as AsyncItem.Deadline.
func Submit(ctx context.Context, b Backend, query string) (Result, error) {
	var res [1]Result
	var err [1]error
	await(ctx, b, []string{query}, res[:], err[:])
	return res[0], err[0]
}

// SubmitBatch is the blocking form of SubmitAsync over many queries: both
// returned slices have len(queries); results[i] is meaningful when errs[i]
// is nil. Items still unanswered when ctx is done report ctx.Err(); items
// shed or refused individually do not fail their siblings. A batch is
// admitted in one pass and lands in the same round(s) wherever possible.
func SubmitBatch(ctx context.Context, b Backend, queries []string) ([]Result, []error) {
	results, errs := make([]Result, len(queries)), make([]error, len(queries))
	await(ctx, b, queries, results, errs)
	return results, errs
}

// await submits queries to b and blocks until every one has completed or
// ctx is done, then copies the outcomes into results and errs.
func await(ctx context.Context, b Backend, queries []string, results []Result, errs []error) {
	if len(queries) == 0 {
		return
	}
	deadline, _ := ctx.Deadline()
	w := getWaiter(len(queries))
	for i, q := range queries {
		w.items = append(w.items, AsyncItem{Query: q, Deadline: deadline, Done: w, Index: i})
	}
	b.SubmitAsync(w.items)
	select {
	case <-w.done:
	case <-ctx.Done():
		w.mu.Lock()
		if w.pending > 0 {
			// Leave: the round loops see gone and drop this call's remaining
			// items unanswered, and the last of them recycles w.
			w.gone.Store(true)
			copy(results, w.results)
			for i, err := range w.errs {
				if err == errPending {
					err = ctx.Err()
				}
				errs[i] = err
			}
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		<-w.done // every item completed as ctx fired; the signal is in flight
	}
	copy(results, w.results)
	copy(errs, w.errs)
	putWaiter(w)
}

// errPending marks a waiter slot no completion has filled yet.
var errPending = errors.New("server: completion pending")

// waiter is the pooled Completion one blocking call waits on: completions
// fill its slots and count down, and the last one signals done — or, when
// the caller has already left on its ctx, recycles the waiter in its place.
// mu orders slot writes against the caller leaving, so a waiter is never
// recycled while a completion is still owed and no late result reaches the
// pool's next user.
type waiter struct {
	mu      sync.Mutex
	pending int
	results []Result
	errs    []error
	items   []AsyncItem   // the call's submission; only read by SubmitAsync
	done    chan struct{} // cap 1: signalled by the last completion

	// gone is set (under mu) when the caller leaves before every item has
	// completed; round loops read it to skip the call's remaining items.
	gone atomic.Bool
}

var waiterPool = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

func getWaiter(n int) *waiter {
	w := waiterPool.Get().(*waiter)
	w.pending = n
	if cap(w.results) < n {
		w.results, w.errs = make([]Result, n), make([]error, n)
	}
	w.results, w.errs = w.results[:n], w.errs[:n]
	for i := range w.errs {
		w.errs[i] = errPending
	}
	return w
}

// putWaiter clears what the slots borrowed (Slots point into round-loop
// copies) and recycles. The caller must hold the only reference: every
// completion has fired, and done is empty.
func putWaiter(w *waiter) {
	clear(w.results)
	clear(w.errs)
	clear(w.items)
	w.items = w.items[:0]
	w.gone.Store(false)
	waiterPool.Put(w)
}

func (w *waiter) Complete(i int, res Result, err error) {
	w.mu.Lock()
	gone := w.gone.Load()
	if !gone {
		w.results[i], w.errs[i] = res, err
	}
	w.pending--
	last := w.pending == 0
	w.mu.Unlock()
	switch {
	case !last:
	case gone:
		putWaiter(w)
	default:
		w.done <- struct{}{}
	}
}
