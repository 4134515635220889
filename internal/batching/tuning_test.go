package batching

import (
	"testing"
	"time"

	"sharedwd/internal/server"
	"sharedwd/internal/workload"
)

func TestTuneRoundInterval(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = 40
	wcfg.NumPhrases = 4
	wcfg.NumTopics = 2
	w := workload.Generate(wcfg)
	arrivals := []float64{0.5, 0.4, 0.3, 0.2} // queries/sec per phrase

	// Median latency ≈ roundLen/2, so 4 s (median 2 s ≤ 2.2 s) is the
	// longest tolerable of these; 8 s (median 4 s) is too long.
	candidates := []time.Duration{time.Second, 4 * time.Second, 8 * time.Second}
	got, err := TuneRoundInterval(w, arrivals, 1e-7, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4*time.Second {
		t.Fatalf("TuneRoundInterval = %v, want 4s", got)
	}

	if _, err := TuneRoundInterval(w, arrivals[:2], 1e-7, candidates); err == nil {
		t.Fatal("accepted mismatched arrival rates")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, nil); err == nil {
		t.Fatal("accepted empty candidates")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, []time.Duration{-time.Second}); err == nil {
		t.Fatal("accepted negative candidate")
	}
	if _, err := TuneRoundInterval(w, arrivals, 1e-7, []time.Duration{20 * time.Second}); err == nil {
		t.Fatal("accepted a round length beyond the latency tolerance")
	}

	// The engine config the tuner feeds must also work end to end.
	cfg := server.DefaultConfig()
	cfg.RoundInterval = got / 1000 // scaled down: tests should not sleep 4s
	s, err := server.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}
