package binproto

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExpiredContextSendsNothing pins that a call whose ctx is already done
// fails with the ctx's error before anything reaches the socket: the
// server never sees the request, so it cannot answer it.
func TestExpiredContextSendsNothing(t *testing.T) {
	s, b := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.Submit(dead, "hiking boots"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Submit = %v, want context.DeadlineExceeded", err)
	}
	if _, err := c.SubmitBatch(dead, []string{"hiking boots", "tent"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SubmitBatch = %v, want context.DeadlineExceeded", err)
	}
	if _, err := c.Stats(dead); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Stats = %v, want context.DeadlineExceeded", err)
	}
	if wc := c.WriteCounts(); wc != (WriteCounts{}) {
		t.Errorf("client wrote %+v, want nothing", wc)
	}
	// A live call after the expired ones is answered, and is the only
	// request the backend ever saw.
	if _, err := c.Submit(context.Background(), "hiking boots"); err != nil {
		t.Fatalf("live Submit: %v", err)
	}
	if n := b.submits.Load(); n != 1 {
		t.Errorf("backend submits = %d, want 1", n)
	}
}

// TestWriteCountsSequential: a caller that waits for each reply before it
// sends the next request leaves nothing to coalesce, on either end: one
// write per frame.
func TestWriteCountsSequential(t *testing.T) {
	const n = 50
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	for i := 0; i < n; i++ {
		if _, err := c.Submit(context.Background(), "hiking boots"); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	want := WriteCounts{Writes: n, Frames: n}
	if wc := c.WriteCounts(); wc != want {
		t.Errorf("client counts = %+v, want %+v", wc, want)
	}
	if wc := s.WriteCounts(); wc != want {
		t.Errorf("server counts = %+v, want %+v", wc, want)
	}
}

// TestWriteCountsConcurrent: under 64 concurrent callers every request is
// one frame on each end, and a write carries at least one frame. How many
// it carries depends on scheduling, so no ratio is asserted.
func TestWriteCountsConcurrent(t *testing.T) {
	const callers, each = 64, 20
	s, _ := startServer(t, Config{})
	c := dialClient(t, s.Addr())
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Submit(context.Background(), "hiking boots"); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d submits failed", n)
	}
	for _, end := range []struct {
		name string
		wc   WriteCounts
	}{{"client", c.WriteCounts()}, {"server", s.WriteCounts()}} {
		if end.wc.Frames != callers*each {
			t.Errorf("%s frames = %d, want %d", end.name, end.wc.Frames, callers*each)
		}
		if end.wc.Writes < 1 || end.wc.Writes > end.wc.Frames {
			t.Errorf("%s writes = %d, want 1..%d", end.name, end.wc.Writes, end.wc.Frames)
		}
	}
}

// BenchmarkClientSubmit times single-query Submit round trips over one
// loopback connection to the fake backend: a lone sequential caller, whose
// frames have nothing to coalesce with, and 64 concurrent callers, whose
// frames share writes. writes/op and frames/write are the client's.
func BenchmarkClientSubmit(b *testing.B) {
	for _, bc := range []struct {
		name    string
		callers int
	}{{"sequential", 1}, {"parallel64", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			s, _ := startServer(b, Config{})
			c := dialClient(b, s.Addr())
			ctx := context.Background()
			start := c.WriteCounts()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < bc.callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := c.Submit(ctx, "hiking boots"); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			wc := c.WriteCounts()
			writes, frames := wc.Writes-start.Writes, wc.Frames-start.Frames
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
			if writes > 0 {
				b.ReportMetric(float64(frames)/float64(writes), "frames/write")
			}
		})
	}
}
