package core

import (
	"fmt"

	"sharedwd/internal/auction"
	"sharedwd/internal/bitset"
	"sharedwd/internal/workload"
)

// GamingResult summarizes the Section-IV gaming experiment for one budget
// policy: how much click value the near-broke "gamer" extracted versus what
// he could actually pay.
type GamingResult struct {
	Policy BudgetPolicy

	GamerBudget float64
	// GamerPaid is what the gamer was actually charged (≤ budget, always).
	GamerPaid float64
	// GamerClickValue is the total price of all the gamer's clicks —
	// charged or forgiven. Under a naive policy this exceeds the budget;
	// the excess is the search provider's lost revenue.
	GamerClickValue float64
	// GamerWins counts auctions the gamer won.
	GamerWins int

	Revenue       float64
	ForgivenValue float64
}

// OverDelivery is the ratio of click value the gamer received to his
// budget; values materially above 1 mean the system was gamed.
func (g GamingResult) OverDelivery() float64 {
	if g.GamerBudget == 0 {
		return 0
	}
	return g.GamerClickValue / g.GamerBudget
}

// RunGamingExperiment repeats RunGamingScenario over reps independent
// seeds and returns the averaged result. A single run is noisy — one
// early-arriving click ends the attack — so the paper-style comparison
// between policies is made on the mean.
func RunGamingExperiment(seed int64, rounds, reps int, policy BudgetPolicy) (GamingResult, error) {
	if reps <= 0 {
		return GamingResult{}, fmt.Errorf("core: reps must be positive")
	}
	var avg GamingResult
	for r := 0; r < reps; r++ {
		res, err := RunGamingScenario(seed+int64(r)*7919, rounds, policy)
		if err != nil {
			return GamingResult{}, err
		}
		avg.GamerBudget = res.GamerBudget
		avg.GamerPaid += res.GamerPaid
		avg.GamerClickValue += res.GamerClickValue
		avg.GamerWins += res.GamerWins
		avg.Revenue += res.Revenue
		avg.ForgivenValue += res.ForgivenValue
	}
	f := float64(reps)
	avg.Policy = policy
	avg.GamerPaid /= f
	avg.GamerClickValue /= f
	avg.GamerWins = avg.GamerWins / reps
	avg.Revenue /= f
	avg.ForgivenValue /= f
	return avg, nil
}

// RunGamingScenario reproduces the Section-IV demonstration: one
// high-volume bid phrase; a "gamer" (advertiser 0) with a high bid but a
// budget worth roughly one click; competitors with ample budgets. Clicks
// are slow to arrive, so a naive policy lets the gamer win round after
// round before any click lands — and then forgives the payments his budget
// cannot cover. The throttled policy drives b̂ toward zero as his
// outstanding ads pile up.
func RunGamingScenario(seed int64, rounds int, policy BudgetPolicy) (GamingResult, error) {
	w, cfg, err := gamingSetup(seed, policy)
	if err != nil {
		return GamingResult{}, err
	}
	eng, err := New(w, cfg)
	if err != nil {
		return GamingResult{}, err
	}

	res := GamingResult{Policy: policy, GamerBudget: w.Advertisers[0].Budget}
	occurring := []bool{true}
	countRound := func(rep RoundReport) {
		for _, slots := range rep.Auctions {
			for _, s := range slots {
				if s.Advertiser == 0 {
					res.GamerWins++
				}
			}
		}
		for _, c := range rep.Clicks {
			if c.Advertiser == 0 {
				res.GamerClickValue += c.Price
			}
		}
	}
	for r := 0; r < rounds; r++ {
		countRound(eng.Step(occurring))
	}
	// Let every outstanding click resolve before accounting.
	none := []bool{false}
	for eng.clicks.PendingCount() > 0 {
		countRound(eng.Step(none))
	}
	res.GamerPaid = eng.Spent(0)
	res.Revenue = eng.Stats().Revenue
	res.ForgivenValue = eng.Stats().ForgivenValue
	if res.GamerPaid > res.GamerBudget+1e-9 {
		return res, fmt.Errorf("core: charged the gamer %v above budget %v", res.GamerPaid, res.GamerBudget)
	}
	return res, nil
}

// gamingSetup builds RunGamingScenario's market: one phrase that occurs
// every round, the gamer as advertiser 0, and a slow click model.
func gamingSetup(seed int64, policy BudgetPolicy) (*workload.Workload, Config, error) {
	const n = 6
	advertisers := make([]auction.Advertiser, n)
	// The gamer: top effective bid, tiny budget (≈ one click at GSP price).
	advertisers[0] = auction.Advertiser{ID: 0, Bid: 4.0, Quality: 1.0, Budget: 4.0}
	for i := 1; i < n; i++ {
		advertisers[i] = auction.Advertiser{
			ID: i, Bid: 3.0 - 0.2*float64(i), Quality: 1.0, Budget: 1e6,
		}
	}
	everyone := bitset.New(n)
	for i := 0; i < n; i++ {
		everyone.Add(i)
	}
	w, err := workload.NewCustom(advertisers,
		[]bitset.Set{everyone}, []float64{1}, []float64{0.9, 0.5}, seed)
	if err != nil {
		return nil, Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.ClickHazard = 0.08 // slow clicks: many auctions before payment is known
	cfg.ClickHorizon = 60
	return w, cfg, nil
}
