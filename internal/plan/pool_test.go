package plan_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"sharedwd/internal/plan"
)

// TestPoolRunRange pins RunRange: the claimed intervals tile [0, n) exactly,
// each at most grain wide, and worker indices stay within [0, Workers).
func TestPoolRunRange(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := plan.NewPool(workers)
		for _, n := range []int{0, 1, 5, 64, 777} {
			covered := make([]int32, n)
			pool.RunRange(n, 16, func(worker, lo, hi int) {
				if worker < 0 || worker >= pool.Workers() {
					t.Errorf("worker index %d out of range", worker)
				}
				if lo >= hi {
					t.Errorf("bad interval [%d, %d)", lo, hi)
				}
				if workers > 1 && hi-lo > 16 {
					t.Errorf("interval [%d, %d) wider than grain", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
		pool.Close()
	}
}

// TestPoolBroadcast pins the per-worker contract: fn runs exactly once per
// worker index, 0 through Workers−1, with the caller as worker 0.
func TestPoolBroadcast(t *testing.T) {
	for _, workers := range []int{1, 2, 6} {
		pool := plan.NewPool(workers)
		seen := make([]int32, workers)
		for round := 0; round < 3; round++ {
			pool.Broadcast(func(w int) {
				atomic.AddInt32(&seen[w], 1)
			})
		}
		for w, c := range seen {
			if c != 3 {
				t.Fatalf("workers=%d: worker %d ran %d times, want 3", workers, w, c)
			}
		}
		pool.Close()
	}
}

// TestPoolCloseIdempotent pins the hardening satellite: Close may be called
// repeatedly and concurrently, and every call returns only after the helper
// goroutines have exited.
func TestPoolCloseIdempotent(t *testing.T) {
	pool := plan.NewPool(4)
	pool.Broadcast(func(int) {})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Close()
		}()
	}
	wg.Wait()
	pool.Close() // and once more, sequentially
}
