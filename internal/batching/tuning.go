package batching

import (
	"fmt"
	"time"

	"sharedwd/internal/plan"
	"sharedwd/internal/workload"
)

// TuneRoundInterval picks a round length for the workload by reusing the
// §I batching latency model (Sweep): it simulates Poisson query
// arrivals at the given per-phrase rates against the workload's shared
// aggregation plan and returns the longest candidate whose simulated median
// latency stays within the paper's user-tolerance threshold
// (ToleranceMedian, 2.2 s). Longer rounds batch more simultaneous
// auctions per round — more sharing — so the longest tolerable round is the
// sweet spot the paper's introduction argues for.
//
// arrivalsPerSecond must have one rate per workload phrase. wdSecondsPerOp
// converts aggregation operations to winner-determination seconds (measure
// it, or pass ~1e-7 for this implementation's in-memory merges). An error
// is returned when no candidate is tolerable or the inputs are malformed.
func TuneRoundInterval(w *workload.Workload, arrivalsPerSecond []float64, wdSecondsPerOp float64, candidates []time.Duration) (time.Duration, error) {
	if len(arrivalsPerSecond) != len(w.Interests) {
		return 0, fmt.Errorf("batching: %d arrival rates for %d phrases", len(arrivalsPerSecond), len(w.Interests))
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("batching: no candidate round lengths")
	}
	if wdSecondsPerOp < 0 {
		return 0, fmt.Errorf("batching: negative WD cost %v", wdSecondsPerOp)
	}
	queries := make([]plan.Query, len(w.Interests))
	for q := range w.Interests {
		queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
	}
	inst, err := plan.NewInstance(len(w.Advertisers), queries)
	if err != nil {
		return 0, fmt.Errorf("batching: building batching instance: %w", err)
	}
	lengths := make([]float64, 0, len(candidates))
	longest := time.Duration(0)
	for _, d := range candidates {
		if d <= 0 {
			return 0, fmt.Errorf("batching: non-positive candidate round length %v", d)
		}
		if d > longest {
			longest = d
		}
		lengths = append(lengths, d.Seconds())
	}
	// Simulate long enough that even the longest candidate sees many rounds.
	sim := 200 * longest.Seconds()
	if sim < 10 {
		sim = 10
	}
	points := Sweep(Config{
		ArrivalsPerSecond: arrivalsPerSecond,
		Instance:          inst,
		WDSecondsPerOp:    wdSecondsPerOp,
		SimSeconds:        sim,
		Seed:              1,
	}, lengths)
	best := MaxTolerableRound(points)
	if best < 0 {
		return 0, fmt.Errorf("batching: no candidate round length within the %.1fs median-latency tolerance", ToleranceMedian)
	}
	return time.Duration(best * float64(time.Second)), nil
}
