// Command servedemo runs the online round server under synthetic load: a
// pool of client goroutines draws messy raw queries from a QueryStream
// (case variants, synonyms, junk) and submits them with per-request
// deadlines, while the server batches them into rounds and resolves each
// round's auctions with one shared threshold pass. The bid-phrase universe
// is partitioned across -shards engine shards — each with its own round
// loop, phrases sharing Section II fragments placed together — and
// advertiser budgets settle through the central ledger. Live
// per-second snapshots show throughput, queue depth, shed/timeout
// counters, and the per-stage latency distribution; a final summary
// reports the lifetime totals, the engines' counters, the ledger and each
// shard's share. The demo is a client of the sharedwd facade only: it
// serves through NewNetServer when an edge is requested and through
// NewShardedServer otherwise.
//
// Usage:
//
//	servedemo [-advertisers 2000] [-phrases 64] [-seed 1]
//	          [-clients 64] [-duration 10s] [-round 5ms] [-batch 256]
//	          [-queue 4096] [-deadline 100ms] [-junk 0.05]
//	          [-shards 1]
//	          [-pacing 0] [-churn 0] [-refresh-every 0]
//	          [-listen :8080] [-listen-binary :8081] [-rate-limit 0]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -listen additionally serves the network tier on the given address while
// the synthetic load runs: POST /v1/query answers external queries,
// GET /v1/stats and /v1/metrics expose the same metrics the snapshots
// print (JSON and Prometheus text), and GET /v1/live streams per-round
// summaries over a WebSocket — point a browser or `curl` at it while the
// demo runs. -rate-limit enables the edge's per-client token bucket at
// that many requests per second.
//
// -listen-binary serves the multiplexed binary protocol on the given
// address against the same backend — point any sharedwd.NewBinaryClient
// at it. Both edges can run at once; NetServer.Shutdown drains them and
// then the fleet.
//
// -pacing N turns on the budget-pacing controller with an N-round horizon:
// one shared Pacer throttles advertiser bids toward a smooth spend curve
// (fleet-shared across shards, spend exact through the central ledger).
// -churn gives that fraction of advertisers sub-day campaign windows and
// -refresh-every schedules periodic budget-refresh epochs; both consume
// the same synthetic lifecycle schedule. The final summary reports the
// spend curve, throttle activity, and epoch count.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run (load
// generation plus serving), for digging into where round time goes — leaf
// scoring, the threshold pass, the click simulator, or the serving layers
// around them. Inspect with `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd"
)

func main() {
	advertisers := flag.Int("advertisers", 2000, "number of advertisers")
	phrases := flag.Int("phrases", 64, "number of bid phrases")
	seed := flag.Int64("seed", 1, "random seed")
	clients := flag.Int("clients", 64, "concurrent client goroutines")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	round := flag.Duration("round", 5*time.Millisecond, "round interval")
	batch := flag.Int("batch", 256, "max queries per round (early close)")
	queue := flag.Int("queue", 4096, "admission queue depth (per shard)")
	deadline := flag.Duration("deadline", 100*time.Millisecond, "per-request deadline")
	junk := flag.Float64("junk", 0.05, "fraction of junk queries matching no phrase")
	shards := flag.Int("shards", 1, "engine shards (each phrase partition gets its own round loop)")
	pacing := flag.Int("pacing", 0, "budget pacing horizon in rounds (0 disables the pacing controller)")
	churn := flag.Float64("churn", 0, "fraction of advertisers running sub-day campaign windows (needs -pacing)")
	refreshEvery := flag.Int("refresh-every", 0, "budget-refresh epoch period in rounds, 0 disables (needs -pacing)")
	listen := flag.String("listen", "", "also serve HTTP on this address (/v1/query, /v1/stats, /v1/metrics, /v1/live)")
	listenBinary := flag.String("listen-binary", "", "also serve the binary protocol on this address (sharedwd.NewBinaryClient)")
	rateLimit := flag.Float64("rate-limit", 0, "edge rate limit in requests/sec per client (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		defer f.Close()
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	wcfg := sharedwd.DefaultWorkloadConfig()
	wcfg.NumAdvertisers = *advertisers
	wcfg.NumPhrases = *phrases
	wcfg.Seed = *seed
	w, err := sharedwd.GenerateWorkload(wcfg)
	exitOn(err)

	cfg := sharedwd.DefaultShardedServerConfig()
	cfg.Shards = *shards
	cfg.Worker.RoundInterval = *round
	cfg.Worker.MaxBatch = *batch
	cfg.Worker.QueueDepth = *queue
	cfg.Worker.BidWalkScale = 0.02

	if *pacing > 0 {
		pc := sharedwd.DefaultPacerConfig()
		pc.Horizon = *pacing
		cfg.Worker.Pacing = &pc
		if *churn > 0 || *refreshEvery > 0 {
			cfg.Worker.Engine.Lifecycle, err = sharedwd.GenerateLifecycle(w, sharedwd.LifecycleConfig{
				Rounds:        *pacing,
				ChurnFraction: *churn,
				RefreshEvery:  *refreshEvery,
				Seed:          *seed,
			})
			exitOn(err)
		}
	}

	// Each client owns a private stream; distinct seeds keep the traffic
	// independent.
	streams := make([]*sharedwd.QueryStream, *clients)
	for c := range streams {
		streams[c], err = sharedwd.NewQueryStream(w, *junk, *seed+int64(c)*7919)
		exitOn(err)
	}

	var ns *sharedwd.NetServer
	var fleet *sharedwd.ShardedServer
	if *listen != "" || *listenBinary != "" {
		ncfg := sharedwd.NetServerConfig{Fleet: cfg}
		if *listen != "" {
			ncfg.HTTP = &sharedwd.HTTPServerConfig{Addr: *listen, RateLimit: *rateLimit}
		}
		if *listenBinary != "" {
			ncfg.Binary = &sharedwd.BinaryServerConfig{Addr: *listenBinary}
		}
		ns, err = sharedwd.NewNetServer(w, ncfg)
		exitOn(err)
		fleet = ns.Fleet()
	} else {
		fleet, err = sharedwd.NewShardedServer(w, cfg)
		exitOn(err)
	}

	fmt.Printf("workload: %d advertisers, %d phrases (seed %d)\n",
		*advertisers, *phrases, *seed)
	fmt.Printf("server:   %d shard(s), %v rounds, batch %d, queue %d, %d clients, %v deadlines\n",
		*shards, *round, *batch, *queue, *clients, *deadline)
	if ns != nil && ns.Addr() != "" {
		fmt.Printf("http:     listening on %s (POST /v1/query, GET /v1/stats /v1/metrics /v1/live)\n", ns.Addr())
	}
	if ns != nil && ns.BinaryAddr() != "" {
		fmt.Printf("binary:   listening on %s (multiplexed frames; sharedwd.NewBinaryClient)\n", ns.BinaryAddr())
	}
	fmt.Println()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := streams[c]
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for !stop.Load() {
				queries := qs.Round()
				if len(queries) == 0 {
					continue
				}
				query := queries[rng.Intn(len(queries))]
				ctx, cancel := context.WithTimeout(context.Background(), *deadline)
				fleet.Submit(ctx, query) // shed/unmatched/timeout all show in the snapshot
				cancel()
			}
		}(c)
	}

	// One snapshot per whole second of -duration, then the rest of it on
	// the deadline timer: the load stops at the deadline, not at the first
	// tick after it.
	end := time.NewTimer(*duration)
	ticker := time.NewTicker(time.Second)
	fmt.Println("uptime   qps      p50ms   p95ms   queue  shed   timeout unmatched")
	for n := int(*duration / time.Second); n > 0; n-- {
		<-ticker.C
		m := fleet.Metrics()
		fmt.Printf("%-8s %-8.0f %-7.2f %-7.2f %-6d %-6d %-7d %d\n",
			m.Uptime.Round(time.Second), m.QueriesPerSec,
			m.TotalLatency.P50()*1e3, m.TotalLatency.P95()*1e3,
			m.QueueDepth, m.Shed, m.TimedOut, m.Unmatched)
	}
	ticker.Stop()
	<-end.C

	stop.Store(true)
	wg.Wait()
	if ns != nil {
		// Graceful drain: the edges stop accepting and answer their
		// in-flight requests, the live feed closes, then the fleet drains.
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ns.Shutdown(shCtx)
		cancel()
	} else {
		fleet.Close()
	}

	m := fleet.Metrics()
	fmt.Printf("\nsubmitted %d, answered %d (%.0f/sec) over %d rounds (%d empty)\n",
		m.Submitted, m.Answered, m.QueriesPerSec, m.Rounds, m.EmptyRounds)
	fmt.Printf("shed %d, timed out %d, unmatched %d\n", m.Shed, m.TimedOut, m.Unmatched)
	fmt.Printf("latency ms: admission p95 %.2f, round wait p95 %.2f, total p95 %.2f (max %.2f)\n",
		m.AdmissionWait.P95()*1e3, m.RoundWait.P95()*1e3,
		m.TotalLatency.P95()*1e3, m.TotalLatency.Max()*1e3)
	fmt.Printf("winner determination per round: mean %.3fms, p95 %.3fms\n",
		m.WinnerDetermination.Mean()*1e3, m.WinnerDetermination.P95()*1e3)
	fmt.Printf("engine: %d auctions, %d ads displayed, $%.2f revenue\n",
		m.Engine.AuctionsResolved, m.Engine.AdsDisplayed, m.Engine.Revenue)
	if m.Pacing.Enabled {
		meanFactor := 1.0
		if m.Pacing.Active > 0 {
			meanFactor = m.Pacing.FactorSum / float64(m.Pacing.Active)
		}
		fmt.Printf("pacing: %d/%d active, %d throttled (mean factor %.3f), target $%.2f vs actual $%.2f over %d steps (%d advertiser updates), %d refresh epochs\n",
			m.Pacing.Active, m.Pacing.Advertisers, m.Pacing.Throttled, meanFactor,
			m.Pacing.TargetSpend, m.Pacing.ActualSpend, m.Pacing.Rounds, m.Pacing.Stepped, m.Pacing.Epochs)
	}
	fmt.Printf("ledger:  $%.2f settled across %d shards\n",
		fleet.Ledger().TotalSpent(), fleet.Shards())
	for i := 0; i < fleet.Shards(); i++ {
		sm := fleet.ShardMetrics(i)
		fmt.Printf("  shard %d: answered %d over %d rounds, p95 %.2fms\n",
			i, sm.Answered, sm.Rounds, sm.TotalLatency.P95()*1e3)
	}
}

// exitOn prints err and exits 1 when err is non-nil.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
