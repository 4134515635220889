package binproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/server"
)

// Server is the binary tier: a TCP listener whose connections multiplex
// frames against one server.Backend. Create with New, start with Start,
// stop with Shutdown (drain: every admitted frame answered) or Close
// (immediate). Drain stops the edge without closing the backend, for
// facades that share the backend with another transport.
//
// Requests take no goroutine, context or channel each: the per-conn reader
// drains every pipelined frame available in one syscall window into one
// item batch, submits it with one SubmitAsync call, and pooled completions
// enqueue replies straight onto the writer.
type Server struct {
	cfg     Config
	backend server.Backend

	listener net.Listener

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool

	acceptDone chan struct{} // closed when the accept loop exits
}

// New builds the tier over backend. It does not open the listener — Start
// does.
func New(backend server.Backend, cfg Config) *Server {
	return &Server{
		cfg:        cfg.withDefaults(),
		backend:    backend,
		conns:      make(map[*conn]struct{}),
		acceptDone: make(chan struct{}),
	}
}

// Start opens the listener and begins accepting in a background goroutine.
// It returns once the port is bound, so Addr is valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		netc, err := s.listener.Accept()
		if err != nil {
			return // listener closed — Drain or Close
		}
		c := newConn(s, netc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			netc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

func (s *Server) detach(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Drain gracefully stops the binary edge without touching the backend: the
// listener stops accepting, every connection finishes its admitted frames
// through the normal backend path (in-flight items resolve at their next
// round close or their deadline, which the still-open backend guarantees),
// writers flush, sockets close. If ctx ends first, Drain aborts the
// connections still draining and returns without waiting for them: their
// sockets close at once, and completions that arrive later are dropped, so
// every admitted item still completes exactly once. It reports ctx.Err()
// if ctx ran out. The backend stays open, so a facade serving HTTP and
// binary off one backend can drain this edge first and let the HTTP tier's
// Shutdown close the backend.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.acceptDone
		return nil
	}
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.listener != nil {
		s.listener.Close()
		<-s.acceptDone
	}
	drained := make(chan struct{}, len(conns))
	for _, c := range conns {
		go func(c *conn) {
			c.drain()
			drained <- struct{}{}
		}(c)
	}
	for range conns {
		select {
		case <-drained:
		case <-ctx.Done():
			for _, c := range conns {
				c.abort()
			}
			return ctx.Err()
		}
	}
	return ctx.Err()
}

// Shutdown drains the edge (see Drain) and then drains the backend itself.
// Every admitted frame is answered before any socket closes.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx)
	s.backend.Close()
	return err
}

// Close tears the tier down without waiting: listener and sockets close
// immediately, the backend is closed. Use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	wasDraining := s.draining
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.listener != nil && !wasDraining {
		s.listener.Close()
	}
	if s.listener != nil {
		<-s.acceptDone
	}
	for _, c := range conns {
		c.abort()
	}
	s.backend.Close()
	return nil
}

// wireMsg is one completed response handed to the connection's writer: the
// writer encodes it into its reused buffer. bc, when non-nil, is the
// pooled batch completion whose slices the message borrows; the writer
// recycles it after encoding (or the drop path does).
type wireMsg struct {
	ft      byte
	id      uint64
	refused bool // frame-level refusal: encode status/flags/msg only
	status  byte
	flags   byte
	msg     string
	res     server.Result
	err     error
	results []server.Result
	errs    []error
	stats   []byte // Metrics JSON for ftStatsReply
	bc      *batchComp
}

// refusal builds the frame-level refusal answering a request of type ft.
func refusal(ft byte, id uint64, status byte, msg string) wireMsg {
	reply := map[byte]byte{ftQuery: ftReply, ftBatch: ftBatchReply, ftStats: ftStatsReply}[ft]
	return wireMsg{ft: reply, id: id, refused: true, status: status, flags: retryFlag(status), msg: msg}
}

// queryComp is the pooled completion for one ftQuery frame: the round
// loop's Complete enqueues the reply and releases the in-flight slot.
// Pooling a concrete type (rather than closing over c and id) keeps the
// per-request allocation count at zero.
type queryComp struct {
	c  *conn
	id uint64
}

var queryCompPool = sync.Pool{New: func() any { return new(queryComp) }}

// Complete fires exactly once, on the round loop (or synchronously on
// refusal). It recycles itself first — after send nothing may touch q.
func (q *queryComp) Complete(_ int, res server.Result, err error) {
	c, id := q.c, q.id
	q.c = nil
	queryCompPool.Put(q)
	c.send(wireMsg{ft: ftReply, id: id, res: res, err: err})
	c.finish(id)
}

// batchComp is the pooled counting completion for one ftBatch frame: every
// item writes its disjoint slot and decrements; the final decrement emits
// the one batch reply. Items may complete from any mix of round loops
// (sharded backends) and synchronous refusals — the atomic countdown
// publishes all slot writes to whichever caller sends the reply.
type batchComp struct {
	c         *conn
	id        uint64
	remaining atomic.Int32
	results   []server.Result
	errs      []error
}

var batchCompPool = sync.Pool{New: func() any { return new(batchComp) }}

func newBatchComp(c *conn, id uint64, n int) *batchComp {
	b := batchCompPool.Get().(*batchComp)
	b.c, b.id = c, id
	b.remaining.Store(int32(n))
	if cap(b.results) < n {
		b.results = make([]server.Result, n)
		b.errs = make([]error, n)
	} else {
		b.results = b.results[:n]
		b.errs = b.errs[:n]
	}
	return b
}

// putBatchComp clears borrowed references (Slots point into round-loop
// copies; errors may hold backend state) and recycles. Called by the
// writer after encoding, or by the drop path.
func putBatchComp(b *batchComp) {
	for i := range b.results {
		b.results[i] = server.Result{}
		b.errs[i] = nil
	}
	b.c = nil
	batchCompPool.Put(b)
}

func (b *batchComp) Complete(i int, res server.Result, err error) {
	b.results[i] = res
	b.errs[i] = err
	if b.remaining.Add(-1) > 0 {
		return
	}
	// Last item in: emit the reply. The writer (or drop path) recycles b,
	// so read everything needed before send.
	c, id := b.c, b.id
	c.send(wireMsg{ft: ftBatchReply, id: id, results: b.results, errs: b.errs, bc: b})
	c.finish(id)
}

// conn is one multiplexed client connection: a reader goroutine parsing,
// admitting, and batch-submitting frames, and a writer goroutine encoding
// completions back — out of order, as they finish. The writer's intake is a
// mutex-guarded double-buffered slice, so a round loop delivering
// completions can never block on a slow connection; it is naturally bounded
// by MaxInFlight admission.
type conn struct {
	srv  *Server
	netc net.Conn

	// Writer queue. wdead flips once the socket is gone or the writer has
	// exited — after that enqueues are dropped (and their pooled carriers
	// recycled) instead of accumulating unread.
	wmu   sync.Mutex
	wq    []wireMsg
	wdead bool
	wwake chan struct{} // cap 1: non-blocking nudge after enqueue

	stop     chan struct{} // closed (once) to release the writer
	stopOnce sync.Once

	writerDone chan struct{}

	// ids is the bounded in-flight table; idMu also guards draining so an
	// inflight.Add can never race the drain's Wait.
	idMu     sync.Mutex
	ids      map[uint64]struct{}
	draining bool
	inflight sync.WaitGroup
}

func newConn(s *Server, netc net.Conn) *conn {
	return &conn{
		srv:        s,
		netc:       netc,
		wwake:      make(chan struct{}, 1),
		stop:       make(chan struct{}),
		writerDone: make(chan struct{}),
		ids:        make(map[uint64]struct{}),
	}
}

// send enqueues a completion for the writer. It never blocks; once the
// connection is down the message is dropped (the socket is gone) and any
// pooled carrier recycled.
func (c *conn) send(m wireMsg) {
	c.wmu.Lock()
	if c.wdead {
		c.wmu.Unlock()
		if m.bc != nil {
			putBatchComp(m.bc)
		}
		return
	}
	c.wq = append(c.wq, m)
	c.wmu.Unlock()
	select {
	case c.wwake <- struct{}{}:
	default:
	}
}

// admit registers a request ID in the bounded in-flight table. On refusal
// it returns the status to answer with; on success the caller owes a
// finish(id) once the reply has been handed to the writer.
func (c *conn) admit(id uint64) (refuse byte, ok bool) {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if c.draining {
		return StatusClosed, false
	}
	if len(c.ids) >= c.srv.cfg.MaxInFlight {
		return StatusOverflow, false
	}
	if _, dup := c.ids[id]; dup {
		return StatusBadRequest, false
	}
	c.ids[id] = struct{}{}
	c.inflight.Add(1)
	return 0, true
}

func (c *conn) finish(id uint64) {
	c.idMu.Lock()
	delete(c.ids, id)
	c.idMu.Unlock()
	c.inflight.Done()
}

// timeout clamps a frame's requested deadline to the server's bounds.
func (c *conn) timeout(ms uint32) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = c.srv.cfg.DefaultTimeout
	}
	if d > c.srv.cfg.MaxTimeout {
		d = c.srv.cfg.MaxTimeout
	}
	return d
}

// serve runs the connection: preamble check, writer start, then the read
// loop until the client goes away or violates the protocol. Teardown on
// this path waits out the in-flight completions (at most one round interval
// away while the backend lives); the graceful path is drain.
func (c *conn) serve() {
	defer c.srv.detach(c)

	// The preamble distinguishes a binproto client from a stray HTTP
	// request (or port scan) before any frame parsing.
	var magic [5]byte
	c.netc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c.netc, magic[:]); err != nil ||
		string(magic[:4]) != Magic || magic[4] != Version {
		c.netc.Close()
		close(c.writerDone) // writer never started
		return
	}
	c.netc.SetReadDeadline(time.Time{})

	go c.writer()

	c.read(newFrameReader(c.netc, c.srv.cfg.MaxFrame))

	// Reader-exit teardown: no new frames can arrive, so the in-flight
	// count only decreases. Wait everything out, release the writer, close
	// the socket.
	c.inflight.Wait()
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.writerDone
	c.netc.Close()
}

// read is the connection's one read loop: block for one frame, then drain
// every further frame already buffered (one syscall window's worth of
// pipelining), ingest them all into one item batch, and submit the batch
// with a single SubmitAsync call before blocking again.
func (c *conn) read(fr *frameReader) {
	items := make([]server.AsyncItem, 0, 64)
	for {
		ft, id, payload, err := fr.next()
		if err != nil {
			return // EOF, socket error, or protocol violation — all fatal
		}
		ok := c.ingest(ft, id, payload, &items)
		for ok && fr.buffered() {
			ft, id, payload, err = fr.next()
			if err != nil {
				ok = false
				break
			}
			ok = c.ingest(ft, id, payload, &items)
		}
		// Admitted items must be submitted even when a later frame just
		// failed the connection — admission owes each one a completion.
		if len(items) > 0 {
			c.srv.backend.SubmitAsync(items)
			for i := range items {
				items[i] = server.AsyncItem{} // drop refs for the pool's sake
			}
			items = items[:0]
		}
		if !ok {
			return
		}
	}
}

// ingest admits one frame, appending its work items.
// Refusals answer immediately through the writer queue. Returns false on a
// protocol violation that must fail the connection.
func (c *conn) ingest(ft byte, id uint64, payload []byte, items *[]server.AsyncItem) bool {
	switch ft {
	case ftQuery:
		timeoutMS, query, err := parseQuery(payload)
		if err != nil {
			return false
		}
		if refuse, ok := c.admit(id); !ok {
			c.send(refusal(ftQuery, id, refuse, ""))
			return true
		}
		qc := queryCompPool.Get().(*queryComp)
		qc.c, qc.id = c, id
		*items = append(*items, server.AsyncItem{
			Query:    query,
			Deadline: time.Now().Add(c.timeout(timeoutMS)),
			Done:     qc,
		})
		return true

	case ftBatch:
		timeoutMS, queries, err := parseBatch(payload, c.srv.cfg.MaxBatchItems)
		if err != nil {
			// An oversized batch count is a semantic refusal, not a framing
			// violation; answer it and keep the connection.
			var pe *errProtocol
			if errors.As(err, &pe) && len(payload) >= 6 {
				c.send(refusal(ftBatch, id, StatusBadRequest, pe.msg))
				return true
			}
			return false
		}
		if refuse, ok := c.admit(id); !ok {
			c.send(refusal(ftBatch, id, refuse, ""))
			return true
		}
		if len(queries) == 0 {
			c.send(wireMsg{ft: ftBatchReply, id: id})
			c.finish(id)
			return true
		}
		bc := newBatchComp(c, id, len(queries))
		deadline := time.Now().Add(c.timeout(timeoutMS))
		for i, q := range queries {
			*items = append(*items, server.AsyncItem{Query: q, Deadline: deadline, Done: bc, Index: i})
		}
		return true

	case ftStats:
		if len(payload) != 0 {
			return false
		}
		if refuse, ok := c.admit(id); !ok {
			c.send(refusal(ftStats, id, refuse, ""))
			return true
		}
		// Stats marshals a full Metrics snapshot — rare and heavy; keep it
		// off the read loop so it never delays a syscall window's queries.
		go c.answerStats(id)
		return true

	default:
		return false // unknown frame type: connection-fatal
	}
}

func (c *conn) answerStats(id uint64) {
	defer c.finish(id)
	m := c.srv.backend.Metrics()
	js, err := json.Marshal(m)
	if err != nil {
		c.send(refusal(ftStats, id, StatusInternal, err.Error()))
		return
	}
	c.send(wireMsg{ft: ftStatsReply, id: id, stats: js})
}

func retryFlag(status byte) byte {
	if status == StatusOverflow || status == StatusOverloaded {
		return FlagRetryable
	}
	return 0
}

// discardQueue marks the writer intake dead and recycles whatever was
// still queued. After this, send drops messages instead of accumulating
// them unread.
func (c *conn) discardQueue() {
	c.wmu.Lock()
	c.wdead = true
	batch := c.wq
	c.wq = nil
	c.wmu.Unlock()
	for i := range batch {
		if batch[i].bc != nil {
			putBatchComp(batch[i].bc)
		}
	}
}

// writer encodes completions into one reused buffer and coalesces flushes:
// each pass swaps out everything queued, encodes it, and flushes once —
// so a burst of completions costs one syscall, and enqueuers (round-loop
// completions included) never wait on the socket.
func (c *conn) writer() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.netc, 32<<10)
	buf := make([]byte, 0, 4096)
	spare := make([]wireMsg, 0, 64)
	encode := func(m *wireMsg) {
		buf = buf[:0]
		switch {
		case m.refused:
			buf = AppendErrorFrame(buf, m.ft, m.id, m.status, m.flags, m.msg)
		case m.ft == ftReply:
			buf = AppendReply(buf, m.id, &m.res, m.err)
		case m.ft == ftBatchReply:
			buf = AppendBatchReply(buf, m.id, m.results, m.errs)
		case m.ft == ftStatsReply:
			buf = AppendStatsReply(buf, m.id, m.stats)
		}
		bw.Write(buf)
		if m.bc != nil {
			putBatchComp(m.bc)
		}
	}
	// flushAll drains the queue to empty and flushes; false on socket
	// failure.
	flushAll := func() bool {
		for {
			c.wmu.Lock()
			batch := c.wq
			c.wq = spare[:0]
			c.wmu.Unlock()
			if len(batch) == 0 {
				spare = batch
				return true
			}
			for i := range batch {
				encode(&batch[i])
				batch[i] = wireMsg{} // release refs (results, errors, stats)
			}
			spare = batch[:0]
			c.netc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
			if err := bw.Flush(); err != nil {
				return false
			}
		}
	}
	for {
		select {
		case <-c.wwake:
			if !flushAll() {
				// The socket is gone; stop accepting completions and
				// unblock the reader via the closed socket.
				c.stopOnce.Do(func() { close(c.stop) })
				c.discardQueue()
				c.netc.Close()
				return
			}
		case <-c.stop:
			// Final drain: everything already queued still goes out.
			flushAll()
			c.discardQueue()
			return
		}
	}
}

// drain is the graceful path: stop admitting (new frames get
// StatusClosed), wait for in-flight requests (they resolve at their next
// round close or deadline since the backend is still open), then release
// the writer — which flushes everything queued — and close the socket.
func (c *conn) drain() {
	c.idMu.Lock()
	c.draining = true
	c.idMu.Unlock()

	c.inflight.Wait()
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.writerDone
	c.netc.Close()
}

// abort is the immediate path: release the writer and close the socket.
func (c *conn) abort() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.netc.Close()
}
