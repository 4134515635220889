package netserve

import (
	"context"
	"sync"
	"testing"
	"time"

	"sharedwd/internal/server"
)

func TestTimeoutValue(t *testing.T) {
	for _, tc := range []struct {
		left time.Duration
		want string
	}{
		{200 * time.Microsecond, "1ms"},
		{time.Nanosecond, "1ms"},
		{0, "1ms"},
		{-time.Second, "1ms"},
		{time.Millisecond, "1ms"},
		{1500 * time.Microsecond, "2ms"},
		{300 * time.Millisecond, "300ms"},
		{1<<63 - 1, "9223372036855ms"},
	} {
		if got := timeoutValue(tc.left); got != tc.want {
			t.Errorf("timeoutValue(%v) = %q, want %q", tc.left, got, tc.want)
		}
	}
}

// deadlineBackend answers every item at once and records how long each
// had left before its deadline when it arrived.
type deadlineBackend struct {
	*fakeBackend
	mu   sync.Mutex
	left []time.Duration
}

func (b *deadlineBackend) SubmitAsync(items []server.AsyncItem) {
	b.mu.Lock()
	for _, it := range items {
		b.left = append(b.left, time.Until(it.Deadline))
	}
	b.mu.Unlock()
	b.fakeBackend.SubmitAsync(items)
}

// TestClientForwardsDeadline: the caller's deadline reaches the backend
// on both query paths, not the server's 2 s DefaultTimeout.
func TestClientForwardsDeadline(t *testing.T) {
	b := &deadlineBackend{fakeBackend: newFakeBackend()}
	s := New(b, nil, Config{})
	c := NewClient(startServer(t, s))
	defer s.Close()
	defer c.Close()

	const budget, slack = 300 * time.Millisecond, 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if _, err := c.SubmitBatch(ctx, []string{"a", "b"}); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if _, err := c.Submit(ctx, "c"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.left) != 3 {
		t.Fatalf("backend saw %d items, want 3", len(b.left))
	}
	for i, left := range b.left {
		if left <= 0 || left > budget+slack {
			t.Errorf("item %d reached the backend with %v left, want within the caller's %v (+%v)", i, left, budget, slack)
		}
	}
}
