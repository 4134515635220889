// Command quickstart walks through the paper's running example (Figures
// 1–3): three advertisers, two ad slots, separable click-through rates —
// then resolves a few engine rounds end to end with GSP pricing and budget
// accounting.
package main

import (
	"fmt"

	"sharedwd"
)

func main() {
	fmt.Println("== Single-auction winner determination (Figures 1–3) ==")
	// Separable CTRs: ctr_ij = c_i·d_j with c = (1.2, 1.1, 1.3) and
	// d = (0.3, 0.2) — exactly Figure 2's factors.
	advertisers := []sharedwd.Advertiser{
		{ID: 0, Bid: 10, Quality: 1.2, Budget: 100}, // A
		{ID: 1, Bid: 9, Quality: 1.1, Budget: 100},  // B
		{ID: 2, Bid: 1, Quality: 1.3, Budget: 100},  // C
	}
	slotFactors := []float64{0.3, 0.2}
	assignment := sharedwd.SolveSeparable(advertisers, slotFactors)
	names := []string{"A", "B", "C"}
	for j, adv := range assignment.Slots {
		fmt.Printf("  slot %d → advertiser %s (effective bid %.2f)\n",
			j+1, names[adv], advertisers[adv].EffectiveBid())
	}
	fmt.Printf("  expected value of assignment: %.4f\n", assignment.Value)

	fmt.Println("\n== GSP prices for the winners ==")
	ranked := []sharedwd.RankedBidder{
		{ID: 0, Bid: 10, Quality: 1.2},
		{ID: 1, Bid: 9, Quality: 1.1},
		{ID: 2, Bid: 1, Quality: 1.3},
	}
	prices := sharedwd.Prices(sharedwd.GSP, ranked, slotFactors)
	for j, p := range prices {
		fmt.Printf("  slot %d winner pays %.4f per click (bid %.2f)\n", j+1, p, ranked[j].Bid)
	}

	fmt.Println("\n== End-to-end rounds over a synthetic workload ==")
	wcfg := sharedwd.DefaultWorkloadConfig()
	wcfg.NumAdvertisers = 200
	wcfg.NumPhrases = 12
	w, err := sharedwd.GenerateWorkload(wcfg)
	if err != nil {
		panic(err)
	}
	eng, err := sharedwd.NewEngine(w, sharedwd.DefaultEngineConfig())
	if err != nil {
		panic(err)
	}
	for r := 0; r < 20; r++ {
		eng.Step(nil) // sample occurring phrases from their search rates
	}
	eng.Drain()
	st := eng.Stats()
	fmt.Printf("  rounds: %d   auctions resolved: %d\n", st.Rounds, st.AuctionsResolved)
	fmt.Printf("  threshold candidates: %d, auctions left short and scanned: %d (%d aggregation ops)\n",
		st.Candidates, st.ShortAuctions, st.NodesMaterialized)
	fmt.Printf("  ads displayed: %d, clicks charged: %d, revenue: %.2f\n",
		st.AdsDisplayed, st.ClicksCharged, st.Revenue)
	fmt.Printf("  clicks forgiven (budget exhausted): %d worth %.2f\n",
		st.ClicksForgiven, st.ForgivenValue)
}
