package server

import (
	"sync/atomic"
)

// intakeRing is the bounded multi-producer single-consumer queue in front
// of the round loop: submitters push under the admission read lock, the
// loop pops between rounds. It replaces the old buffered channel so that
// concurrent submitters contend on one CAS instead of the channel's
// single lock, and so the loop can drain a burst without a per-element
// select.
//
// Producers claim a position with one CAS on tail and then publish the
// request into its slot; the consumer takes the slot at head once it is
// non-nil, clears it and advances head. An explicit occupancy gate keeps
// the *logical* capacity exactly the configured QueueDepth even though the
// slot array is rounded up to a power of two for cheap masking. The gate
// can only over-estimate occupancy (head is monotonic), so the ring never
// admits beyond capacity; with a stalled consumer the shed onset is exact,
// which the queue-full lifecycle and soak tests depend on. The gate is
// also what makes a slot free when a producer claims it: position pos is
// claimed only once head > pos − len(slots), and the consumer clears a slot
// before it advances head past it. So a slot is one pointer, nil when
// empty, with no sequence word beside it.
//
// Thread safety: any number of goroutines may push; exactly one goroutine
// (the round loop) may pop. length and capacity are safe anywhere.
type intakeRing struct {
	slots []atomic.Pointer[request]
	mask  uint64
	cap   uint64 // logical capacity: the configured QueueDepth

	_    [64]byte // keep the producer and consumer cursors off one line
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
}

// newIntakeRing builds a ring with logical capacity depth (≥ 1). The slot
// array is the next power of two ≥ max(depth, 2); the extra physical slots
// are unreachable past the occupancy gate.
func newIntakeRing(depth int) *intakeRing {
	n := 2
	for n < depth {
		n <<= 1
	}
	return &intakeRing{
		slots: make([]atomic.Pointer[request], n),
		mask:  uint64(n - 1),
		cap:   uint64(depth),
	}
}

// push enqueues req, returning false when the ring already holds cap
// requests (the caller sheds). Safe for concurrent producers.
func (r *intakeRing) push(req *request) bool {
	for {
		pos := r.tail.Load()
		head := r.head.Load()
		if head > pos {
			// pos went stale: other producers pushed and the consumer
			// popped past it between the two loads. Retry with a fresh
			// tail rather than read the wrapped difference as full.
			continue
		}
		if pos-head >= r.cap {
			// head was loaded after tail and only grows, so a full verdict
			// here is exact whenever the consumer is not mid-pop. One fresh
			// re-read settles the race with a concurrent pop.
			if h := r.head.Load(); h <= pos && pos-h >= r.cap {
				return false
			}
			continue
		}
		if r.tail.CompareAndSwap(pos, pos+1) {
			r.slots[pos&r.mask].Store(req)
			return true
		}
		// Another producer claimed pos first; retry with a fresh tail.
	}
}

// pop dequeues one request, or nil when the ring is empty (or a producer
// has claimed a slot but not yet published it — the caller retries on its
// next drain). Single consumer only.
func (r *intakeRing) pop() *request {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	req := slot.Load()
	if req == nil {
		return nil
	}
	slot.Store(nil)
	r.head.Store(pos + 1)
	return req
}

// length is the current occupancy: exact when the ring is quiescent, an
// upper bound while producers are mid-claim. Safe anywhere.
func (r *intakeRing) length() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// capacity is the configured logical capacity.
func (r *intakeRing) capacity() int { return int(r.cap) }
