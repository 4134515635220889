package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharedwd/internal/serr"
	"sharedwd/internal/server"
)

type collectComp struct {
	mu      sync.Mutex
	results []server.Result
	errs    []error
	fired   []int32
	wg      sync.WaitGroup
}

func newCollectComp(n int) *collectComp {
	c := &collectComp{
		results: make([]server.Result, n),
		errs:    make([]error, n),
		fired:   make([]int32, n),
	}
	c.wg.Add(n)
	return c
}

func (c *collectComp) Complete(i int, res server.Result, err error) {
	if n := atomic.AddInt32(&c.fired[i], 1); n != 1 {
		panic("completion fired twice for one item")
	}
	c.mu.Lock()
	c.results[i], c.errs[i] = res, err
	c.mu.Unlock()
	c.wg.Done()
}

// TestShardedSubmitAsync: SubmitAsync routes every phrase to
// the worker owning it, results come back with global phrase IDs and the
// serving shard (matching the routing table), and an unmatched query
// refuses synchronously with ErrNoAuction.
func TestShardedSubmitAsync(t *testing.T) {
	w := testWorkload(t, 120, 16, 7)
	for _, shards := range []int{1, 2, 4} {
		s, err := New(w, testConfig(shards))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		assign := s.Assignment()
		n := len(w.PhraseNames) + 1
		cc := newCollectComp(n)
		items := make([]server.AsyncItem, n)
		for q := 0; q < n-1; q++ {
			items[q] = server.AsyncItem{
				Query:    "  " + w.PhraseNames[q] + " ",
				Deadline: time.Now().Add(5 * time.Second),
				Done:     cc,
				Index:    q,
			}
		}
		items[n-1] = server.AsyncItem{Query: "no such phrase", Done: cc, Index: n - 1}
		s.SubmitAsync(items)
		cc.wg.Wait()

		for q := 0; q < n-1; q++ {
			if cc.errs[q] != nil {
				t.Fatalf("%d shards: phrase %d: %v", shards, q, cc.errs[q])
			}
			if cc.results[q].Phrase != q {
				t.Errorf("%d shards: result phrase %d, want global %d",
					shards, cc.results[q].Phrase, q)
			}
			if cc.results[q].Shard != assign[q] {
				t.Errorf("%d shards: phrase %d served by shard %d, routed to %d",
					shards, q, cc.results[q].Shard, assign[q])
			}
			if len(cc.results[q].Slots) == 0 {
				t.Errorf("%d shards: phrase %d: no slots", shards, q)
			}
		}
		if !errors.Is(cc.errs[n-1], serr.ErrNoAuction) {
			t.Fatalf("%d shards: unmatched item: %v, want ErrNoAuction", shards, cc.errs[n-1])
		}
		m := s.Metrics()
		if m.Unmatched != 1 {
			t.Errorf("%d shards: unmatched counter %d, want 1", shards, m.Unmatched)
		}
		closeAndCheckAccounting(t, s)
	}
}

// TestShardedSubmitAsyncAfterClose: refusals on a closed fleet arrive
// synchronously with the bare ErrClosed sentinel, one per item.
func TestShardedSubmitAsyncAfterClose(t *testing.T) {
	w := testWorkload(t, 60, 8, 3)
	s, err := New(w, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	cc := newCollectComp(len(w.PhraseNames))
	items := make([]server.AsyncItem, len(w.PhraseNames))
	for q := range items {
		items[q] = server.AsyncItem{Query: w.PhraseNames[q], Done: cc, Index: q}
	}
	s.SubmitAsync(items)
	cc.wg.Wait()
	for q := range items {
		if !errors.Is(cc.errs[q], serr.ErrClosed) {
			t.Fatalf("phrase %d after Close: %v, want ErrClosed", q, cc.errs[q])
		}
	}
	closeAndCheckAccounting(t, s)
}
