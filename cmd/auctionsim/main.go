// Command auctionsim is the end-to-end round simulator: it generates a
// synthetic workload, builds the winner-determination engine, and
// processes rounds of simultaneous auctions with delayed clicks and budget
// accounting, reporting per-policy / per-mode comparisons as CSV.
//
// Usage:
//
//	auctionsim [-advertisers 2000] [-phrases 64] [-topics 8] [-slots 4]
//	           [-rounds 200] [-seed 1] [-policy throttled] [-sharing shared]
//	           [-pricing gsp] [-perturb 0.05] [-csv] [-compare]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/pricing"
	"sharedwd/internal/workload"
)

func main() {
	advertisers := flag.Int("advertisers", 2000, "number of advertisers")
	phrases := flag.Int("phrases", 64, "number of bid phrases")
	topics := flag.Int("topics", 8, "number of interest topics")
	slots := flag.Int("slots", 4, "ad slots per result page")
	rounds := flag.Int("rounds", 200, "rounds to simulate")
	seed := flag.Int64("seed", 1, "random seed")
	policyName := flag.String("policy", "throttled", "budget policy: naive|throttled")
	sharingName := flag.String("sharing", "shared", "winner determination: shared|independent")
	pricingName := flag.String("pricing", "gsp", "pricing rule: first|gsp|vcg")
	perturb := flag.Float64("perturb", 0.05, "per-round bid random-walk scale (0 = static bids)")
	csv := flag.Bool("csv", false, "emit per-round CSV instead of a summary")
	compare := flag.Bool("compare", false, "run every policy × sharing combination and print a comparison table")
	flag.Parse()

	if *compare {
		runComparison(*advertisers, *phrases, *topics, *slots, *rounds, *seed, *perturb)
		return
	}

	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers = *advertisers
	wcfg.NumPhrases = *phrases
	wcfg.NumTopics = *topics
	wcfg.Slots = *slots
	wcfg.Seed = *seed
	w := workload.Generate(wcfg)

	ecfg := core.DefaultConfig()
	switch *policyName {
	case "naive":
		ecfg.Policy = core.Naive
	case "throttled":
		ecfg.Policy = core.Throttled
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	switch *sharingName {
	case "shared":
		ecfg.Sharing = core.SharedAggregation
	case "independent":
		ecfg.Sharing = core.Independent
	default:
		fmt.Fprintf(os.Stderr, "unknown sharing mode %q\n", *sharingName)
		os.Exit(2)
	}
	switch *pricingName {
	case "first":
		ecfg.Pricing = pricing.FirstPrice
	case "gsp":
		ecfg.Pricing = pricing.GSP
	case "vcg":
		ecfg.Pricing = pricing.VCG
	default:
		fmt.Fprintf(os.Stderr, "unknown pricing rule %q\n", *pricingName)
		os.Exit(2)
	}

	buildStart := time.Now()
	eng, err := core.New(w, ecfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buildTime := time.Since(buildStart)

	if *csv {
		fmt.Println("round,auctions,materialized,clicks,revenue_cum")
	}
	simStart := time.Now()
	for r := 0; r < *rounds; r++ {
		rep := eng.Step(nil)
		w.PerturbBids(*perturb)
		if *csv {
			fmt.Printf("%d,%d,%d,%d,%.2f\n",
				rep.Round, len(rep.Auctions), rep.Materialized, len(rep.Clicks), eng.Stats().Revenue)
		}
	}
	eng.Drain()
	simTime := time.Since(simStart)

	st := eng.Stats()
	if !*csv {
		fmt.Printf("workload: %d advertisers, %d phrases, %d slots (seed %d)\n",
			*advertisers, *phrases, *slots, *seed)
		fmt.Printf("engine:   %s winner determination, %s budgets, %s pricing\n",
			ecfg.Sharing, ecfg.Policy, ecfg.Pricing)
		fmt.Printf("engine build time: %v\n", buildTime)
		fmt.Printf("simulated %d rounds in %v (%.2f ms/round)\n",
			*rounds, simTime, float64(simTime.Milliseconds())/float64(*rounds))
		fmt.Printf("auctions resolved:       %d\n", st.AuctionsResolved)
		fmt.Printf("aggregation ops:         %d (%.1f per auction)\n",
			st.NodesMaterialized, float64(st.NodesMaterialized)/float64(max(1, st.AuctionsResolved)))
		if ecfg.Sharing == core.SharedAggregation {
			fmt.Printf("threshold candidates:    %d (%.1f per auction, %d auctions short)\n",
				st.Candidates, float64(st.Candidates)/float64(max(1, st.AuctionsResolved)), st.ShortAuctions)
		}
		fmt.Printf("ads displayed:           %d\n", st.AdsDisplayed)
		fmt.Printf("clicks charged/forgiven: %d / %d\n", st.ClicksCharged, st.ClicksForgiven)
		fmt.Printf("revenue:                 $%.2f (forgiven $%.2f)\n", st.Revenue, st.ForgivenValue)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runComparison simulates the same workload under every policy × sharing
// combination and prints a table of the metrics the paper's evaluation
// cares about. In shared mode aggOps/auction counts the short phrases'
// scans only; candidates/auction and short % say what the threshold
// pass did (both 0 for Independent).
func runComparison(advertisers, phrases, topics, slots, rounds int, seed int64, perturb float64) {
	fmt.Printf("# %d advertisers, %d phrases, %d slots, %d rounds (seed %d, perturb %g)\n",
		advertisers, phrases, slots, rounds, seed, perturb)
	fmt.Println("sharing\tpolicy\tms/round\taggOps/auction\tcandidates/auction\tshort %\trevenue\tforgiven\tclicks")
	for _, sharing := range []core.SharingMode{core.SharedAggregation, core.Independent} {
		for _, policy := range []core.BudgetPolicy{core.Naive, core.Throttled} {
			wcfg := workload.DefaultConfig()
			wcfg.NumAdvertisers = advertisers
			wcfg.NumPhrases = phrases
			wcfg.NumTopics = topics
			wcfg.Slots = slots
			wcfg.Seed = seed
			w := workload.Generate(wcfg)
			ecfg := core.DefaultConfig()
			ecfg.Sharing = sharing
			ecfg.Policy = policy
			eng, err := core.New(w, ecfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			start := time.Now()
			for r := 0; r < rounds; r++ {
				eng.Step(nil)
				w.PerturbBids(perturb)
			}
			eng.Drain()
			elapsed := time.Since(start)
			st := eng.Stats()
			auctions := float64(max(1, st.AuctionsResolved))
			fmt.Printf("%s\t%s\t%.2f\t%.1f\t%.1f\t%.2f\t$%.0f\t$%.0f\t%d\n",
				sharing, policy,
				float64(elapsed.Microseconds())/1000/float64(rounds),
				float64(st.NodesMaterialized)/auctions,
				float64(st.Candidates)/auctions,
				100*float64(st.ShortAuctions)/auctions,
				st.Revenue, st.ForgivenValue, st.ClicksCharged)
		}
	}
}
