package sharedwd

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestClientConformance runs one suite of behavioural assertions against
// all three Client implementations — in-process, HTTP, and binary — and
// requires them to be observationally identical: the same auction outcome
// for the same query, the same error taxonomy under errors.Is, the same
// batch contract, and the same post-Close behaviour. The workload is
// pinned deterministic (no bid walk, budgets so large that clicks never
// bind them) so every round of every fleet computes the same slot
// assignment and strict equality across transports is meaningful.
func TestClientConformance(t *testing.T) {
	wcfg := DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 150
	wcfg.NumPhrases = 12
	wcfg.MinBudget, wcfg.MaxBudget = 1e6, 2e6 // budgets never bind

	fleet := DefaultShardedServerConfig()
	fleet.Shards = 2
	fleet.Worker.RoundInterval = 2 * time.Millisecond

	w := Must(GenerateWorkload(wcfg))
	ns, err := NewNetServer(w, NetServerConfig{
		Fleet:  fleet,
		HTTP:   &HTTPServerConfig{RateLimit: 100_000, RateBurst: 100_000},
		Binary: &BinaryServerConfig{},
	})
	if err != nil {
		t.Fatalf("NewNetServer: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ns.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// The in-process client gets its own fleet built from an identical
	// workload (same config, same seed): with the deterministic knobs above,
	// both fleets produce the same slot assignment for every phrase.
	inprocFleet, err := NewShardedServer(Must(GenerateWorkload(wcfg)), fleet)
	if err != nil {
		t.Fatalf("NewShardedServer: %v", err)
	}

	binc, err := NewBinaryClient(ns.BinaryAddr())
	if err != nil {
		t.Fatalf("NewBinaryClient: %v", err)
	}
	clients := []struct {
		name string
		c    Client
	}{
		{"inproc", NewInprocClient(inprocFleet)},
		{"http", NewHTTPClient(ns.Addr())},
		{"binary", binc},
	}

	phrase, phrase2 := w.PhraseNames[0], w.PhraseNames[1]
	slotsSeen := make(map[string][]any) // name → [slots(phrase), slots(phrase2)]

	for _, tc := range clients {
		tc := tc
		ok := t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			// A real phrase query resolves with a non-empty slot assignment.
			res, err := c.Submit(ctx, phrase)
			if err != nil {
				t.Fatalf("Submit(%q): %v", phrase, err)
			}
			if len(res.Slots) == 0 {
				t.Fatalf("Submit(%q): empty slot assignment", phrase)
			}

			// A junk query is ErrNoAuction on every transport.
			if _, err := c.Submit(ctx, "zzzz no such phrase zzzz"); !errors.Is(err, ErrNoAuction) {
				t.Fatalf("junk query error = %v, want ErrNoAuction", err)
			}

			// SubmitBatch keeps item order, reports per-item errors through
			// SplitBatchErrors, and its successes match single submission.
			queries := []string{phrase, "zzzz junk zzzz", phrase2}
			results, berr := c.SubmitBatch(ctx, queries)
			if len(results) != len(queries) {
				t.Fatalf("SubmitBatch returned %d results, want %d", len(results), len(queries))
			}
			if berr == nil {
				t.Fatal("SubmitBatch with a junk item returned nil error")
			}
			items := SplitBatchErrors(berr, len(queries))
			if items[0] != nil || items[2] != nil {
				t.Fatalf("batch item errors = [%v %v %v], want failures only at index 1", items[0], items[1], items[2])
			}
			if !errors.Is(items[1], ErrNoAuction) {
				t.Fatalf("batch junk item error = %v, want ErrNoAuction", items[1])
			}
			if !reflect.DeepEqual(results[0].Slots, res.Slots) {
				t.Fatalf("batch slots diverge from single submit:\n batch: %+v\nsingle: %+v", results[0].Slots, res.Slots)
			}
			slotsSeen[tc.name] = []any{res.Slots, results[2].Slots}

			// An already-expired context surfaces as context.DeadlineExceeded.
			dead, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer dcancel()
			if _, err := c.Submit(dead, phrase); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired-context error = %v, want context.DeadlineExceeded", err)
			}

			// Stats reflects the traffic this suite generated.
			m, err := c.Stats(ctx)
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if m.Answered < 3 {
				t.Fatalf("Stats answered = %d, want ≥ 3", m.Answered)
			}

			// Close is idempotent; calls after Close are ErrServerClosed.
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := c.Submit(context.Background(), phrase); !errors.Is(err, ErrServerClosed) {
				t.Fatalf("post-Close Submit error = %v, want ErrServerClosed", err)
			}
			if _, err := c.SubmitBatch(context.Background(), queries); !errors.Is(err, ErrServerClosed) {
				t.Fatalf("post-Close SubmitBatch error = %v, want ErrServerClosed", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
		if !ok {
			t.Fatalf("%s client failed conformance; skipping cross-transport comparison", tc.name)
		}
	}

	// Every transport produced the same slot assignment for the same query.
	want := slotsSeen["inproc"]
	for _, tc := range clients[1:] {
		got := slotsSeen[tc.name]
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s slots diverge from inproc for query %d:\n   got: %+v\n  want: %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}
