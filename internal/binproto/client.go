package binproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

// pendingShards stripes the client's pending-request table: request IDs
// hash (by low bits — IDs are sequential, so consecutive requests land on
// consecutive stripes) onto independent mutex+map pairs, so hundreds of
// concurrent submitters no longer serialize on one table lock. Must be a
// power of two.
const pendingShards = 16

// pendingShard is one stripe of the table. closed latches when the reader
// has swept the stripe on exit: a register that loses that race fails
// with the connection's closed error instead of leaking an entry no one
// will ever route to.
type pendingShard struct {
	mu     sync.Mutex
	m      map[uint64]*call
	closed bool
	_      [24]byte // keep adjacent stripes' locks off one cache line
}

// call is one outstanding request's rendezvous. The reply channel is
// buffered(1) and pooled with the call; the forget-versus-deliver
// discipline in post guarantees it is empty whenever the call returns to
// the pool.
type call struct {
	ch chan wireResp
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan wireResp, 1)} }}

// Client is a multiplexing connection to a binary-tier server: any number
// of goroutines may Submit, SubmitBatch, and Stats concurrently over the
// one socket. Each call registers a pooled rendezvous under a fresh
// request ID in a striped pending table, encodes its frame directly into
// the shared write buffer (no per-request buffer), and parks on its
// reusable reply channel until the reader routes the response back by ID —
// so a slow query never blocks a fast one behind it. The writer yields once
// before it takes the buffer, so the callers the reader has just woken
// append their next frames first and share one write (see writer). Close
// fails all outstanding calls with serr.ErrClosed; so do calls made after
// Close, matching the in-process servers' post-Close contract.
type Client struct {
	netc net.Conn

	nextID atomic.Uint64

	shards [pendingShards]pendingShard

	// mu guards the cold connection state only (Close vs reader-exit);
	// nothing on the per-request path takes it.
	mu      sync.Mutex
	closed  bool
	readErr error // why the reader exited; set before readerDone closes

	// The write path: posters append encoded frames to wbuf under wmu and
	// nudge the writer, which swaps the buffer out and writes it whole.
	// wframes counts the frames in wbuf; the writer moves it into frames
	// when it swaps.
	wmu     sync.Mutex
	wbuf    []byte
	wframes int64
	wdead   bool
	wwake   chan struct{} // cap 1

	writes, frames atomic.Int64 // see WriteCounts

	readerDone chan struct{}
	writerDone chan struct{}
}

// wireResp is one routed response: the reply's decoded content, or the
// connection-level failure that voided it.
type wireResp struct {
	res     server.Result
	err     error
	results []server.Result
	errs    []error
	stats   []byte // owned copy of Metrics JSON
}

// Dial connects to a binary-tier server at addr, sends the protocol
// preamble, and starts the reader and writer goroutines.
func Dial(addr string) (*Client, error) {
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	pre := append([]byte(Magic), Version)
	if _, err := netc.Write(pre); err != nil {
		netc.Close()
		return nil, err
	}
	c := &Client{
		netc:       netc,
		wbuf:       make([]byte, 0, writeBufSize),
		wwake:      make(chan struct{}, 1),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*call)
	}
	go c.reader()
	go c.writer()
	return c, nil
}

// writeBufSize is the starting capacity of each of the client's two write
// buffers. One yield's worth of frames from 64 callers is ≈ 3 KiB; a larger
// run grows the buffer by append.
const writeBufSize = 4 << 10

// WriteCounts is what a binary endpoint has written to its sockets: Writes
// socket writes carrying Frames frames in all. Frames/Writes is how many
// frames one write coalesced.
type WriteCounts struct {
	Writes, Frames int64
}

// WriteCounts reports the socket writes and frames this client's writer
// has issued. A frame is counted when the writer takes it, just before the
// write that carries it.
func (c *Client) WriteCounts() WriteCounts {
	return WriteCounts{Writes: c.writes.Load(), Frames: c.frames.Load()}
}

func (c *Client) shard(id uint64) *pendingShard {
	return &c.shards[id&(pendingShards-1)]
}

// register installs a pooled call under a fresh ID. It fails once the
// client is closed.
func (c *Client) register() (uint64, *call, error) {
	id := c.nextID.Add(1)
	ca := callPool.Get().(*call)
	sh := c.shard(id)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		callPool.Put(ca)
		return 0, nil, serr.ErrClosed
	}
	sh.m[id] = ca
	sh.mu.Unlock()
	return id, ca, nil
}

// forget removes id from the pending table, reporting whether the entry
// was still there. True means the caller reclaimed sole ownership of the
// call (the reader can no longer see it); false means the reader (or its
// exit sweep) already took it and a delivery on the call's channel is
// imminent — the caller must collect it before recycling.
func (c *Client) forget(id uint64) bool {
	sh := c.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	return ok
}

// timeoutMS derives the frame's timeout field from ctx: the remaining
// deadline in milliseconds (rounded up so a live deadline never becomes
// 0 = server default), or 0 when ctx has none.
func timeoutMS(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds() + 1
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return uint32(ms)
}

// post encodes-and-sends via fn and waits for the routed response. A ctx
// that is already done sends nothing: timeoutMS would floor its past
// deadline to 1 ms, and the server would answer a request nobody waits for.
func (c *Client) post(ctx context.Context, fn func(b []byte, id uint64) []byte) (wireResp, error) {
	if err := ctx.Err(); err != nil {
		return wireResp{}, err
	}
	id, ca, err := c.register()
	if err != nil {
		return wireResp{}, c.closedErr()
	}
	c.wmu.Lock()
	if c.wdead {
		c.wmu.Unlock()
		if c.forget(id) {
			callPool.Put(ca)
			return wireResp{}, c.closedErr()
		}
		// The reader's exit sweep owns the call: collect its failure.
		r := <-ca.ch
		callPool.Put(ca)
		return r, nil
	}
	c.wbuf = fn(c.wbuf, id)
	c.wframes++
	c.wmu.Unlock()
	select {
	case c.wwake <- struct{}{}:
	default:
	}
	select {
	case r := <-ca.ch:
		callPool.Put(ca)
		return r, nil
	case <-ctx.Done():
		if c.forget(id) {
			callPool.Put(ca)
			return wireResp{}, ctx.Err()
		}
		// The reader took the entry first, so a delivery is imminent:
		// drain it so the pooled channel is clean, and return it — a real
		// answer that raced the deadline is still an answer.
		r := <-ca.ch
		callPool.Put(ca)
		return r, nil
	}
}

// Submit sends one query and blocks until its reply arrives. Errors map
// back onto the serr sentinels and context errors; see errOf.
func (c *Client) Submit(ctx context.Context, query string) (server.Result, error) {
	ms := timeoutMS(ctx)
	r, err := c.post(ctx, func(b []byte, id uint64) []byte {
		return AppendQuery(b, id, ms, query)
	})
	if err != nil {
		return server.Result{}, err
	}
	return r.res, r.err
}

// SubmitBatch sends many queries in one frame and blocks until the batch
// reply arrives — the Backend batch contract: results always has
// len(queries), and the error joins one *serr.ItemError per failed query.
func (c *Client) SubmitBatch(ctx context.Context, queries []string) ([]server.Result, error) {
	ms := timeoutMS(ctx)
	r, err := c.post(ctx, func(b []byte, id uint64) []byte {
		return AppendBatch(b, id, ms, queries)
	})
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		// Whole-frame refusal: every item failed the same way.
		errs := make([]error, len(queries))
		for i := range errs {
			errs[i] = r.err
		}
		return make([]server.Result, len(queries)), serr.JoinBatch(errs)
	}
	if len(r.results) != len(queries) {
		return nil, fmt.Errorf("binproto: batch reply has %d items, want %d", len(r.results), len(queries))
	}
	return r.results, serr.JoinBatch(r.errs)
}

// Stats fetches the server's merged fleet metrics.
func (c *Client) Stats(ctx context.Context) (server.Metrics, error) {
	r, err := c.post(ctx, func(b []byte, id uint64) []byte {
		return AppendStatsReq(b, id)
	})
	if err != nil {
		return server.Metrics{}, err
	}
	if r.err != nil {
		return server.Metrics{}, r.err
	}
	var m server.Metrics
	if err := json.Unmarshal(r.stats, &m); err != nil {
		return server.Metrics{}, fmt.Errorf("binproto: decoding stats: %w", err)
	}
	return m, nil
}

// closedErr is the error outstanding and future calls see once the
// connection is down: ErrClosed for a local Close, the transport error
// otherwise.
func (c *Client) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.readErr == nil {
		return serr.ErrClosed
	}
	return fmt.Errorf("binproto: connection lost: %w", c.readErr)
}

// Close tears the connection down: outstanding calls fail with
// serr.ErrClosed, the reader and writer exit, and subsequent calls return
// serr.ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readerDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.netc.Close() // unblocks the reader; writer exits on readerDone
	<-c.readerDone
	<-c.writerDone
	return nil
}

// reader routes response frames to their pending calls by request ID. On
// exit — server close, transport error, or local Close — it kills the
// write path, sweeps every stripe closed, and fails the orphans, in that
// order: a poster that passed the write-path liveness check registered
// before the sweep and is therefore guaranteed a delivery.
func (c *Client) reader() {
	fr := newFrameReader(c.netc, 1<<24) // generous: stats JSON and big batches
	var exitErr error
	for {
		ft, id, payload, err := fr.next()
		if err != nil {
			exitErr = err
			break
		}
		var resp wireResp
		switch ft {
		case ftReply:
			res, rerr, perr := parseReply(payload)
			if perr != nil {
				exitErr = perr
				goto out
			}
			resp = wireResp{res: res, err: rerr}
		case ftBatchReply:
			results, errs, frameErr, perr := parseBatchReply(payload)
			if perr != nil {
				exitErr = perr
				goto out
			}
			resp = wireResp{results: results, errs: errs, err: frameErr}
		case ftStatsReply:
			js, frameErr, perr := parseStatsReply(payload)
			if perr != nil {
				exitErr = perr
				goto out
			}
			resp = wireResp{stats: append([]byte(nil), js...), err: frameErr}
		default:
			exitErr = protoErrf("unknown response frame type 0x%02x", ft)
			goto out
		}
		sh := c.shard(id)
		sh.mu.Lock()
		ca := sh.m[id]
		delete(sh.m, id)
		sh.mu.Unlock()
		if ca != nil {
			ca.ch <- resp // buffered; never blocks
		}
	}
out:
	c.mu.Lock()
	c.readErr = exitErr
	failWith := serr.ErrClosed
	if !c.closed {
		if exitErr != nil && !errors.Is(exitErr, net.ErrClosed) {
			failWith = fmt.Errorf("binproto: connection lost: %w", exitErr)
		}
		c.closed = true
		c.netc.Close()
	}
	c.mu.Unlock()
	// Dead the write path BEFORE sweeping the stripes: any poster that saw
	// it alive has already registered, so the sweep below finds its call.
	c.wmu.Lock()
	c.wdead = true
	c.wbuf = c.wbuf[:0]
	c.wmu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.closed = true
		orphans := sh.m
		sh.m = make(map[uint64]*call)
		sh.mu.Unlock()
		for _, ca := range orphans {
			ca.ch <- wireResp{err: failWith}
		}
	}
	close(c.readerDone)
}

// writer swaps the shared encode buffer out under the lock and writes it
// whole. Posters never block on the socket — they append and move on.
//
// Before each swap the writer yields once. A reply batch wakes many parked
// callers at once, and each appends its next frame moments after it runs;
// without the yield the writer takes the buffer as soon as the first frame
// lands and pays one syscall per frame. With it, the woken callers run
// first and one write carries their frames. A lone caller does not wait:
// with nothing else runnable, Gosched returns at once.
func (c *Client) writer() {
	defer close(c.writerDone)
	spare := make([]byte, 0, writeBufSize)
	for {
		select {
		case <-c.wwake:
		case <-c.readerDone:
			return
		}
		for {
			runtime.Gosched()
			c.wmu.Lock()
			buf, n := c.wbuf, c.wframes
			c.wbuf, c.wframes = spare[:0], 0
			c.wmu.Unlock()
			if len(buf) == 0 {
				spare = buf
				break
			}
			c.writes.Add(1)
			c.frames.Add(n)
			_, err := c.netc.Write(buf)
			spare = buf[:0]
			if err != nil {
				// Socket gone: stop accepting frames; the reader notices
				// the dead socket and fails every outstanding call.
				c.wmu.Lock()
				c.wdead = true
				c.wbuf = c.wbuf[:0]
				c.wmu.Unlock()
				return
			}
		}
	}
}
