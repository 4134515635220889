package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/serr"
	"sharedwd/internal/stats"
	"sharedwd/internal/workload"
)

// request is one admitted item on its way through the intake ring and a
// round: the worker-local phrase, the Completion that receives its outcome,
// and the identity the answer reports.
type request struct {
	phrase   int
	enqueued time.Time
	dequeued time.Time
	deadline time.Time // zero means none

	cb      Completion
	cbIndex int

	// resPhrase is the Phrase the outcome reports (the global phrase ID
	// under sharding).
	resPhrase int
}

// requestPool recycles request objects across submissions. The pool is
// shared by every worker in the process — requests carry no per-worker
// state between uses.
var requestPool = sync.Pool{New: func() any { return new(request) }}

// callerGone reports whether the request came from a blocking call that has
// since returned on its ctx (see waiter): nobody is left to read the answer.
func (req *request) callerGone() bool {
	w, ok := req.cb.(*waiter)
	return ok && w.gone.Load()
}

// waits splits the request's latency at a resolve that started at
// closeStart and answered at answerTime: admission wait, round wait, total.
func (req *request) waits(closeStart, answerTime time.Time) (adm, rw, lat time.Duration) {
	return req.dequeued.Sub(req.enqueued), closeStart.Sub(req.dequeued), answerTime.Sub(req.enqueued)
}

// expired reports whether the request's deadline has passed.
func (req *request) expired(now time.Time) bool {
	return !req.deadline.IsZero() && now.After(req.deadline)
}

// Worker is one admission queue + round loop pinned to one core.Engine —
// the per-shard serving unit. Server wraps a single worker behind a query
// matcher; shard.Server runs one worker per shard behind a partitioned
// matcher. A worker speaks phrase IDs local to its workload; query-string
// matching (and the ErrNoAuction path) belongs to the front end.
//
// Thread safety: SubmitPhraseAsync, Metrics, and Close are safe for
// concurrent use by any number of goroutines. The worker owns its workload
// and engine once NewWorker returns.
type Worker struct {
	cfg Config
	eng *core.Engine
	w   *workload.Workload

	// intake is the MPSC ring in front of the loop; wake (cap 1) nudges
	// the loop after a push so an idle loop drains promptly. The order is
	// always push-then-wake: a failed non-blocking wake send means a wake
	// is already pending, so the loop cannot miss work.
	intake *intakeRing
	wake   chan struct{}

	// admitMu makes submission-vs-Close admission exact: requests enter
	// the ring under the read lock; Close flips closed under the write
	// lock, after which no request can enter and the loop's final drain is
	// complete.
	admitMu sync.RWMutex
	closed  bool

	closing   chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	// Outcome counters. Every submitted request is counted under exactly
	// one outcome: shed at admission, or answered, timedOut or expired by
	// the loop. Each is counted before its Completion fires, so a caller
	// that has its outcome sees it in Metrics.
	submitted atomic.Int64
	shed      atomic.Int64
	answered  atomic.Int64
	timedOut  atomic.Int64 // dropped at batch close: the blocking caller had left
	expired   atomic.Int64 // dropped at batch close: the deadline had passed

	// Loop-owned observability, guarded by mu for Metrics.
	mu            sync.Mutex
	start         time.Time
	rounds        int64
	emptyRounds   int64
	admissionHist *stats.Histogram
	roundHist     *stats.Histogram
	wdHist        *stats.Histogram
	latencyHist   *stats.Histogram
	admissionSum  stats.Summary
	roundSum      stats.Summary
	wdSummary     stats.Summary
	latencySum    stats.Summary
	engStats      core.Stats

	// slab is the slot slab closeRound copies answered phrases' slots
	// into. Each resolve appends its copies and hands out capped
	// sub-slices, so a Result's Slots aliases neither engine scratch nor
	// another phrase's slots, and a new slab is allocated only when the
	// rest of its capacity cannot hold a resolve: allocations follow slots
	// answered, not resolves. slotAt[q] is where phrase q's copy sits in
	// it, valid when its epoch is the resolve's. Loop-owned.
	slab      []core.SlotResult
	slotAt    []slotSpan
	slotEpoch uint32
}

// slotSpan is slab[lo:hi], phrase q's slots in the resolve numbered epoch.
type slotSpan struct {
	epoch  uint32
	lo, hi int32
}

// slabSlots is the slot capacity of a fresh slab: the answers of tens of
// resolves at a handful of slots each, in one allocation. A result a
// caller keeps pins its slab, so it stays small.
const slabSlots = 256

// NewWorker builds the engine for the workload and starts the round loop.
// The worker takes ownership of the workload: the caller must not mutate or
// step it while the worker runs. Close must be called to release the loop.
func NewWorker(w *workload.Workload, cfg Config) (*Worker, error) {
	wk, err := newWorker(w, cfg)
	if err != nil {
		return nil, err
	}
	go wk.loop()
	return wk, nil
}

// newWorker builds a worker without starting its loop.
func newWorker(w *workload.Workload, cfg Config) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := core.New(w, cfg.Engine)
	if err != nil {
		return nil, err
	}
	hi := 10 * cfg.RoundInterval.Seconds() // latency histograms' upper bound
	wk := &Worker{
		cfg:      cfg,
		eng:      eng,
		w:        w,
		intake:   newIntakeRing(cfg.QueueDepth),
		wake:     make(chan struct{}, 1),
		closing:  make(chan struct{}),
		loopDone: make(chan struct{}),
		start:    time.Now(),

		admissionHist: stats.NewHistogram(0, hi, 256),
		roundHist:     stats.NewHistogram(0, hi, 256),
		wdHist:        stats.NewHistogram(0, hi, 256),
		latencyHist:   stats.NewHistogram(0, hi, 256),

		slotAt: make([]slotSpan, len(w.Interests)),
	}
	return wk, nil
}

// queueLen is the intake ring's current occupancy (test and Metrics view).
func (wk *Worker) queueLen() int { return wk.intake.length() }

// wakeLoop nudges the round loop after a push. Non-blocking: a full wake
// buffer already guarantees the loop will drain again.
func (wk *Worker) wakeLoop() {
	select {
	case wk.wake <- struct{}{}:
	default:
	}
}

// SubmitPhraseAsync admits one already-matched phrase (an ID into this
// worker's workload) and returns immediately — the one way into a worker.
// The outcome is delivered exactly once through done.Complete(index, ...):
// from the round loop when the request was admitted, or synchronously from
// this call on refusal (serr.ErrOverloaded / serr.ErrClosed). deadline zero
// means no deadline; an expired request is answered with
// context.DeadlineExceeded when its batch closes. resPhrase is the phrase
// ID the outcome reports (the global ID under sharding). enqueued stamps
// admission time (callers submitting a batch pass one timestamp for the
// whole batch). Safe for concurrent use.
func (wk *Worker) SubmitPhraseAsync(phrase, resPhrase int, deadline, enqueued time.Time, done Completion, index int) {
	wk.admitMu.RLock()
	if wk.closed {
		wk.admitMu.RUnlock()
		done.Complete(index, Result{Phrase: resPhrase, Shard: wk.cfg.ShardID}, serr.ErrClosed)
		return
	}
	wk.submitted.Add(1)
	req := requestPool.Get().(*request)
	*req = request{
		phrase:    phrase,
		enqueued:  enqueued,
		deadline:  deadline,
		cb:        done,
		cbIndex:   index,
		resPhrase: resPhrase,
	}
	ok := wk.intake.push(req)
	wk.admitMu.RUnlock()
	if !ok {
		wk.shed.Add(1)
		wk.complete(req, Result{}, serr.ErrOverloaded)
		return
	}
	wk.wakeLoop()
}

// complete stamps the outcome with the request's routing identity (all a
// failure carries), recycles the request, and hands the outcome to its
// Completion — the worker's only reply path.
func (wk *Worker) complete(req *request, res Result, err error) {
	res.Phrase, res.Shard = req.resPhrase, wk.cfg.ShardID
	cb, idx := req.cb, req.cbIndex
	*req = request{}
	requestPool.Put(req)
	cb.Complete(idx, res, err)
}

// Close stops admission, resolves every in-flight request in a final round,
// drains the engine's outstanding clicks (so end-of-day budget accounting
// is complete), and waits for the round loop to exit. It is idempotent and
// safe to call concurrently.
func (wk *Worker) Close() {
	wk.closeOnce.Do(func() {
		wk.admitMu.Lock()
		wk.closed = true
		wk.admitMu.Unlock()
		close(wk.closing)
		<-wk.loopDone
	})
}

// loop is the single goroutine that owns the engine. Time and batches are
// separate: every RoundInterval tick advances the engine's round (and walks
// the bids), and a batch is resolved as soon as the loop is idle — the ring
// stayed empty across one yield after a drain — or holds MaxBatch requests.
// A tick resolves whatever is pending with it, so a loop that never falls
// idle still answers within one interval.
func (wk *Worker) loop() {
	defer close(wk.loopDone)
	ticker := time.NewTicker(wk.cfg.RoundInterval)
	defer ticker.Stop()

	wk.eng.Tick() // open round 0, so requests need not wait for the first tick
	var pending []*request
	occ := make([]bool, len(wk.w.Interests))
	for {
		pending = wk.drainInto(pending)
		if len(pending) > 0 {
			select {
			case <-ticker.C:
				pending = wk.tick(pending, occ)
				continue
			default:
			}
			if wk.cfg.MaxBatch > 0 && len(pending) >= wk.cfg.MaxBatch {
				// A full batch closes at once, so backpressure propagates
				// (the ring fills, and submits shed).
				pending = wk.closeRound(pending, occ)
				continue
			}
			// Give the submitters of a burst in progress one yield to
			// join the batch. Whatever that drain brings, yield again;
			// when it brings nothing the loop is idle, and resolves.
			n := len(pending)
			runtime.Gosched()
			if pending = wk.drainInto(pending); len(pending) == n {
				pending = wk.closeRound(pending, occ)
			}
			continue
		}
		select {
		case <-wk.wake:
			// New arrivals; loop back to drain them into the batch.
		case <-ticker.C:
			pending = wk.tick(pending, occ)
		case <-wk.closing:
			// closed was set before closing fired, so the ring can no
			// longer grow — but it can hold many more requests than one
			// MaxBatch round. Keep resolving bounded batches until every
			// admitted request has been answered; a single capped drain
			// here would strand the rest of a full ring forever.
			for pending = wk.drainInto(pending); len(pending) > 0; pending = wk.drainInto(pending) {
				pending = wk.closeRound(pending, occ)
			}
			wk.eng.Drain()
			wk.mu.Lock()
			wk.engStats = wk.eng.Stats()
			wk.mu.Unlock()
			return
		}
	}
}

// tick advances the engine one round of time and walks the bids, then
// closes whatever is pending. A tick with nothing pending is an empty
// round: it still delivers delayed clicks and settles budgets, so
// zero-traffic time is not a stall.
func (wk *Worker) tick(pending []*request, occ []bool) []*request {
	wk.eng.Tick()
	if wk.cfg.BidWalkScale > 0 {
		wk.w.PerturbBids(wk.cfg.BidWalkScale)
	}
	return wk.closeRound(wk.drainInto(pending), occ)
}

// drainInto moves whatever is queued into the batch, up to MaxBatch.
func (wk *Worker) drainInto(pending []*request) []*request {
	var now time.Time
	for wk.cfg.MaxBatch == 0 || len(pending) < wk.cfg.MaxBatch {
		req := wk.intake.pop()
		if req == nil {
			return pending
		}
		if now.IsZero() {
			now = time.Now()
		}
		// One clock read per drain. A request stamped after that read was
		// popped after its stamp, so it cannot have waited less than zero.
		if req.enqueued.After(now) {
			now = req.enqueued
		}
		req.dequeued = now
		pending = append(pending, req)
	}
	return pending
}

// closeRound resolves the pending batch in the engine's open round and
// answers every request. A request nobody waits for any more is dropped
// before the resolve, so it forces no auction. A batch with no live
// request — an empty tick's included — runs no resolve and counts as an
// empty round. Returns the reusable empty batch.
func (wk *Worker) closeRound(pending []*request, occ []bool) []*request {
	closeStart := time.Now()
	for i := range occ {
		occ[i] = false
	}
	live := pending[:0]
	var timedOut, expired int64
	for _, req := range pending {
		switch {
		case req.callerGone():
			wk.timedOut.Add(1)
			timedOut++
			wk.complete(req, Result{}, context.Canceled)
		case req.expired(closeStart):
			wk.expired.Add(1)
			expired++
			wk.complete(req, Result{}, context.DeadlineExceeded)
		default:
			occ[req.phrase] = true
			live = append(live, req)
		}
	}

	round := wk.eng.Round() - 1
	var rep core.RoundReport
	var wdDur time.Duration
	if len(live) > 0 {
		if wk.cfg.BeforeResolve != nil {
			wk.cfg.BeforeResolve()
		}
		wdStart := time.Now()
		rep = wk.eng.Resolve(occ)
		wdDur = time.Since(wdStart)
		wk.copySlots(live, rep)
	}

	// Record first, answer after: a caller that holds its reply finds the
	// request counted and its latency sampled in Metrics.
	answerTime := time.Now()
	nlive := len(live)
	wk.mu.Lock()
	wk.answered.Add(int64(nlive))
	wk.rounds++
	if nlive == 0 {
		wk.emptyRounds++
	} else {
		wk.wdHist.Add(wdDur.Seconds())
		wk.wdSummary.Add(wdDur.Seconds())
	}
	for _, req := range live {
		adm, rw, lat := req.waits(closeStart, answerTime)
		wk.admissionHist.Add(adm.Seconds())
		wk.admissionSum.Add(adm.Seconds())
		wk.roundHist.Add(rw.Seconds())
		wk.roundSum.Add(rw.Seconds())
		wk.latencyHist.Add(lat.Seconds())
		wk.latencySum.Add(lat.Seconds())
	}
	wk.engStats = wk.eng.Stats()
	var summary RoundSummary
	if skipped := int(timedOut + expired); wk.cfg.OnRound != nil && nlive+skipped > 0 {
		summary = RoundSummary{
			Shard:   wk.cfg.ShardID,
			Round:   round,
			Queries: nlive,
			Expired: skipped,
			Shed:    wk.shed.Load(),
			P50:     wk.latencyHist.Quantile(0.5),
			P95:     wk.latencyHist.Quantile(0.95),
		}
	}
	wk.mu.Unlock()

	for _, req := range live {
		adm, rw, lat := req.waits(closeStart, answerTime)
		var slots []core.SlotResult
		if sp := wk.slotAt[req.phrase]; sp.lo < sp.hi {
			slots = wk.slab[sp.lo:sp.hi:sp.hi]
		}
		wk.complete(req, Result{
			Round:         round,
			Slots:         slots,
			AdmissionWait: adm,
			RoundWait:     rw,
			Latency:       lat,
		}, nil)
	}

	// Publish outside the metrics lock: the hook must not block, but even a
	// fast hook has no business extending the Metrics critical section.
	if wk.cfg.OnRound != nil && summary.Queries+summary.Expired > 0 {
		wk.cfg.OnRound(summary)
	}

	// Drop the (possibly recycled) request pointers before reuse.
	for i := range pending {
		pending[i] = nil
	}
	return pending[:0]
}

// copySlots copies the slots of each phrase the live requests asked for
// out of the resolve's report, which views engine scratch the next Resolve
// overwrites, into the slab: once per phrase, however many requests share
// it, and after this call slotAt says where each copy is.
func (wk *Worker) copySlots(live []*request, rep core.RoundReport) {
	if wk.slotEpoch++; wk.slotEpoch == 0 { // wrapped: no stale span may match
		clear(wk.slotAt)
		wk.slotEpoch = 1
	}
	// The resolve fills at most k slots for each phrase it answers.
	if need := min(len(live), len(rep.Auctions)) * len(wk.w.SlotFactors); cap(wk.slab)-len(wk.slab) < need {
		wk.slab = make([]core.SlotResult, 0, max(slabSlots, need))
	}
	for _, req := range live {
		q := req.phrase
		if wk.slotAt[q].epoch == wk.slotEpoch {
			continue
		}
		lo := len(wk.slab)
		wk.slab = append(wk.slab, rep.Auctions[q]...)
		wk.slotAt[q] = slotSpan{epoch: wk.slotEpoch, lo: int32(lo), hi: int32(len(wk.slab))}
	}
}

// Metrics returns the worker's current observability counters and latency
// distributions. Safe for concurrent use with SubmitPhraseAsync and the
// round loop.
func (wk *Worker) Metrics() Metrics {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	up := time.Since(wk.start)
	answered := wk.answered.Load()
	m := Metrics{
		Uptime:      up,
		Submitted:   wk.submitted.Load(),
		Answered:    answered,
		Shed:        wk.shed.Load(),
		TimedOut:    wk.timedOut.Load(),
		Expired:     wk.expired.Load(),
		QueueDepth:  wk.intake.length(),
		QueueCap:    wk.intake.capacity(),
		Rounds:      wk.rounds,
		EmptyRounds: wk.emptyRounds,
		Engine:      wk.engStats,

		AdmissionWait:       LatencyDist{Summary: wk.admissionSum, Hist: wk.admissionHist.Clone()},
		RoundWait:           LatencyDist{Summary: wk.roundSum, Hist: wk.roundHist.Clone()},
		WinnerDetermination: LatencyDist{Summary: wk.wdSummary, Hist: wk.wdHist.Clone()},
		TotalLatency:        LatencyDist{Summary: wk.latencySum, Hist: wk.latencyHist.Clone()},
	}
	if sec := up.Seconds(); sec > 0 {
		m.RoundsPerSec = float64(wk.rounds) / sec
		m.QueriesPerSec = float64(answered) / sec
	}
	return m
}
