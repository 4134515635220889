package plan

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a persistent, bounded worker group for parallel plan execution.
// A pool of size w provides w-way parallelism counting the caller: w−1
// helper goroutines are started once and live until Close, and the caller's
// goroutine always works alongside them as worker 0. Work is distributed
// dynamically — helpers and caller claim cost-balanced chunks from a shared
// atomic cursor — so a straggling chunk is stolen, not waited on.
//
// Two entry points share the helpers:
//
//   - Broadcast hands every worker (caller included) one call of fn with a
//     stable worker index in [0, Workers) — the primitive the Runner's
//     frontier executor builds on, and the hook for per-worker scratch.
//   - RunRange splits [0, n) into grain-sized half-open intervals claimed
//     off a shared cursor, for data-parallel loops such as leaf scoring.
//
// Dispatch sends fixed-size task structs over per-helper buffered channels
// and reuses pinned closures plus one WaitGroup, so a steady-state call
// performs no allocations. Neither entry point is reentrant or safe for
// concurrent use with the other; the engine serializes them within a
// round.
type Pool struct {
	workers int
	tasks   []chan poolTask // one per helper goroutine (workers 1..w−1)
	done    sync.WaitGroup  // per-call barrier
	stopped sync.WaitGroup  // helper exit barrier for Close
	closed  sync.Once

	// cursor is RunRange's shared claim point, padded so helpers hammering
	// it do not false-share the pool's cold fields.
	cursor paddedCounter

	// Pinned dispatch state (set before a Broadcast, read after the
	// channel-send happens-before edge) and the pinned worker closure, so
	// steady-state calls allocate nothing.
	rangeN    int
	rangeGrin int
	rangeFn   func(worker, lo, hi int)
	rangeWkr  func(worker int)
}

// paddedCounter is an atomic counter alone on its cache line.
type paddedCounter struct {
	_ [64]byte
	v atomic.Int64
	_ [64]byte
}

type poolTask struct {
	fn   func(worker int)
	done *sync.WaitGroup
}

// NewPool starts a pool providing `workers`-way parallelism (≥ 1): the
// caller's goroutine plus workers−1 helpers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("plan: pool needs ≥ 1 worker, got %d", workers))
	}
	p := &Pool{workers: workers, tasks: make([]chan poolTask, workers-1)}
	p.rangeWkr = func(worker int) {
		n, grain, fn := int64(p.rangeN), int64(p.rangeGrin), p.rangeFn
		for {
			lo := p.cursor.v.Add(grain) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(worker, int(lo), int(hi))
		}
	}
	p.stopped.Add(workers - 1)
	for i := range p.tasks {
		ch := make(chan poolTask, 1)
		p.tasks[i] = ch
		go p.work(ch, i+1)
	}
	return p
}

// Workers returns the pool's parallelism (caller included).
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) work(ch chan poolTask, worker int) {
	defer p.stopped.Done()
	for t := range ch {
		t.fn(worker)
		t.done.Done()
	}
}

// Broadcast calls fn once on every worker — the caller as worker 0 and each
// helper with its fixed index — and returns when all calls finish. fn must
// claim actual work from shared state (e.g. an atomic cursor): worker
// indices name scratch regions, they do not partition work. Broadcast must
// not be called concurrently with itself or RunRange.
func (p *Pool) Broadcast(fn func(worker int)) {
	if p.workers == 1 {
		fn(0)
		return
	}
	p.done.Add(len(p.tasks))
	for _, ch := range p.tasks {
		ch <- poolTask{fn: fn, done: &p.done}
	}
	fn(0)
	p.done.Wait()
}

// RunRange applies fn to half-open sub-intervals covering [0, n), each at
// most grain wide, claimed from a shared cursor, so a straggling interval
// is stolen, not waited on. fn receives the executing worker's index for
// per-worker scratch. Single-worker pools and ranges of at most grain elements run as
// one inline fn(0, 0, n) call on the caller.
func (p *Pool) RunRange(n, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.workers == 1 || n <= grain {
		fn(0, 0, n)
		return
	}
	p.rangeN, p.rangeGrin, p.rangeFn = n, grain, fn
	p.cursor.v.Store(0)
	p.Broadcast(p.rangeWkr)
	p.rangeFn = nil
}

// Close shuts the helpers down and waits for them to exit. Close is
// idempotent and safe to call from multiple goroutines; every call returns
// only once the helpers are gone. The pool must not be used afterwards.
func (p *Pool) Close() {
	p.closed.Do(func() {
		for _, ch := range p.tasks {
			close(ch)
		}
	})
	p.stopped.Wait()
}
