package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sharedwd/internal/core"
)

// runConfig is one run's parameters. Only seed reaches the generated
// inputs.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func (rc runConfig) span(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

// warmUp is discarded load before anything is measured: a fifth of the run,
// at most two seconds.
func (rc runConfig) warmUp() time.Duration {
	if w := rc.span(0.2); w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// value is one reported number. n is the sample count behind a timing, 0
// for a number that is not a sample statistic.
type value struct {
	v float64
	n int
}

// result is one run of one workload: untraced it carries the end-to-end
// metrics, traced the per-layer ones.
type result struct {
	sp        *spec
	traced    bool
	metrics   map[string]value
	attempted int64
	failed    int64
	// problems are the oracle, reply and accounting checks that did not
	// pass; the run is correct when there are none. warnings say the box, not
	// the program, spoiled the run.
	problems  []string
	warnings  []string
	verifyS   float64
	tail      string // highest percentile the sample supports
	tracePath string
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

// latency fills lat_ms_p50 and lat_ms_p90 — each the interquartile mean over
// ten equal stretches of the timed region of that stretch's percentile — from
// raw nanosecond samples taken at the given times, and notes the whole-run
// tail.
func (r *result) latency(at, ns []float64, d time.Duration) {
	n := len(ns)
	r.set("lat_ms_p50", windowedQuantile(at, ns, float64(d), 0.5)/1e6, n)
	r.set("lat_ms_p90", windowedQuantile(at, ns, float64(d), 0.9)/1e6, n)
	if q := supportedTail(n); q > 0 {
		r.tail = fmt.Sprintf("whole-run p%g = %.4f ms over %d samples", q*100, quantile(sortedCopy(ns), q)/1e6, n)
	}
}

func runWorkload(sp *spec, rc runConfig) (*result, error) {
	res := &result{sp: sp, traced: rc.trace, metrics: map[string]value{}}
	var err error
	if sp.loop == loopRounds {
		err = runRounds(sp, rc, res)
	} else {
		err = runServe(sp, rc, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return res, nil
}

// An untraced run sets up at least minSetups times, and up to maxSetups
// while less than a second has gone into it (a 40 ms fleet start needs more
// repeats than a 1.4 s plan build to give a steady median); setup_s is the
// median. A traced run does not report it and sets up once.
const (
	minSetups = 3
	maxSetups = 9
)

// repeatSetup builds the workload's rig repeatedly, closing all but the
// last, and returns the median build time and how many builds it is over.
func repeatSetup[T any](rc runConfig, build func() (T, error), closeRig func(T)) (T, float64, int, error) {
	least, most := minSetups, maxSetups
	if rc.trace {
		least, most = 1, 1
	}
	var rig T
	var secs []float64
	total := 0.0
	for i := 0; i < most && (i < least || total < 1); i++ {
		if i > 0 {
			closeRig(rig)
		}
		t0 := time.Now()
		var err error
		if rig, err = build(); err != nil {
			return rig, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
	}
	return rig, median(secs), len(secs), nil
}

func runRounds(sp *spec, rc runConfig, res *result) error {
	rig, setupS, setups, err := repeatSetup(rc,
		func() (*roundsRig, error) { return buildRounds(sp, rc.seed, rigOpts{sharing: core.SharedAggregation}) },
		(*roundsRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	indep, err := buildRounds(sp, rc.seed, rigOpts{sharing: core.Independent})
	if err != nil {
		return err
	}
	defer indep.close()

	t0 := time.Now()
	if err := verifyAgainstOracle(rig, indep, verifyRounds); err != nil {
		res.problem("oracle: %v", err)
	}
	res.verifyS = time.Since(t0).Seconds()

	origin := time.Now()
	rig.drive(rc.warmUp(), nil, origin)
	if !rc.trace {
		heap := liveHeapMiB()
		before := snapProc()
		run := rig.drive(rc.span(1), nil, origin)
		after := snapProc()
		res.attempted = int64(len(run.stepNS))
		res.set("setup_s", setupS, setups)
		res.set("heap_mb", heap, 0)
		res.latency(run.atNS, run.stepNS, rc.span(1))
		res.set("ops_per_s", float64(run.auctions)/run.stepSum.Seconds(), len(run.stepNS))
		res.set("cpu_us_per_op", float64(after.cpu-before.cpu)/1e3/float64(run.auctions), 0)
		return nil
	}

	m := map[string]float64{}
	base := sortedCopy(rig.drive(rc.span(0.15), nil, origin).stepNS)
	tr := &tracer{}
	stats0, round0, before := rig.eng.Stats(), rig.eng.Round(), snapProc()
	run := rig.drive(rc.span(0.35), tr.buf(traceRing), origin)
	stats1, round1, after := rig.eng.Stats(), rig.eng.Round(), snapProc()
	steps := sortedCopy(run.stepNS)
	res.attempted = int64(len(steps))
	if p50 := quantile(base, 0.5); p50 > 0 {
		m["trace.overhead_share"] = (quantile(steps, 0.5) - p50) / p50
	}
	m["loadgen.lat_ms_p99"] = quantile(steps, 0.99) / 1e6
	allocs := float64(after.mallocs-before.mallocs) / float64(len(steps))
	m["core.allocs_per_round"] = allocs
	m["loadgen.allocs_per_op"] = allocs
	if auctions := stats1.AuctionsResolved - stats0.AuctionsResolved; auctions > 0 {
		ops := stats1.NodesMaterialized + stats1.NodesCached - stats0.NodesMaterialized - stats0.NodesCached
		m["sharedagg.agg_ops_per_auction"] = float64(ops) / float64(auctions)
	}
	if rig.lc != nil {
		events := rig.lc.Events()
		lo := sort.Search(len(events), func(i int) bool { return events[i].Round >= round0 })
		hi := sort.Search(len(events), func(i int) bool { return events[i].Round >= round1 })
		m["workload.lifecycle_events_per_round"] = float64(hi-lo) / float64(round1-round0)
		if pm := rig.pacer.Metrics(); pm.Active > 0 {
			m["budget.pacer_throttled_share"] = float64(pm.Throttled) / float64(pm.Active)
		}
	}
	return finishTraced(rig, indep, rc, steps, float64(run.auctions)/float64(len(steps)), tr, m, res)
}

// finishTraced runs what every traced run ends with — the core twins, the
// layer probes — and moves the per-layer numbers into the result.
func finishTraced(rig, indep *roundsRig, rc runConfig, steps []float64, auctionsPerRound float64, tr *tracer, m map[string]float64, res *result) error {
	if err := coreProbe(rig, indep, rc.seed, steps, rc.span(0.08), m); err != nil {
		return err
	}
	pool, err := buildPool(rig.w, rc.seed)
	if err != nil {
		return err
	}
	if rig.sp.loop != loopRounds {
		if err := ladder(rig.sp, rig, pool, rc.seed, rc.span(0.04), m); err != nil {
			return err
		}
	}
	if err := probeLayers(rig, pool, rc.seed, rc.span(0.015), m); err != nil {
		return err
	}
	planUS := m["plan.run_us_p50"]
	if rig.sp.ecfg.IncrementalCache {
		planUS = m["plan.run_incremental_us_p50"]
	}
	m["core.step_self_us_p50"] = m["core.step_us_p50"] - planUS - m["pricing.prices_ns_per_auction"]*auctionsPerRound/1e3

	m["loadgen.self_share"] = tr.selfShare()
	m["trace.spans"] = float64(tr.spanCount())
	m["loadgen.failed_share"] = float64(res.failed) / float64(res.attempted)
	path, err := tr.write(rc.outDir, rig.sp.name)
	if err != nil {
		return err
	}
	res.tracePath = path
	for _, def := range perLayer {
		res.set(def.name, m[def.name], 0)
	}
	return nil
}

func runServe(sp *spec, rc runConfig, res *result) error {
	f, setupS, setups, err := repeatSetup(rc,
		func() (*fleetRig, error) { return buildFleet(sp, rc.seed) },
		func(f *fleetRig) { f.shutdown() })
	if err != nil {
		return err
	}
	m := map[string]float64{}
	tr := &tracer{}
	run, err := f.measure(rc, tr, m, res)
	res.set("setup_s", setupS, setups)
	if serr := f.shutdown(); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return err
	}

	res.attempted, res.failed = run.attempted, run.bad
	if run.firstErr != nil {
		res.problem("%d of %d replies failed their check, first: %v", run.bad, run.attempted, run.firstErr)
	}
	if aerr := checkAccounting(f.fleet.Metrics(), f.fleet.Ledger().TotalSpent()); aerr != nil {
		res.problem("accounting: %v", aerr)
	}
	if run.shed > 0 {
		res.warn("%d of %d queries were shed and resubmitted with at most %d in flight against queues of %d",
			run.shed, run.attempted, runtime.NumCPU()*callersPerConn, queueDepth)
	}
	if st := run.open; st != nil {
		if lag := quantile(st.sendLagNS, 0.99) / 1e6; lag > 1 {
			res.warn("invalid run: the open-loop generator ran %.3f ms late at p99 (limit 1 ms)", lag)
		}
	}
	if !rc.trace {
		res.latency(run.atNS, run.latNS, run.span)
		return nil
	}

	m["loadgen.lat_ms_p99"] = quantile(sortedCopy(run.latNS), 0.99) / 1e6
	edge := sortedCopy(run.edgeNS)
	switch sp.loop {
	case loopBinary:
		m["binproto.edge_ms_p50"], m["binproto.edge_ms_p99"] = quantile(edge, 0.5)/1e6, quantile(edge, 0.99)/1e6
	case loopHTTPBatch:
		m["netserve.edge_ms_p50"], m["netserve.edge_ms_p99"] = quantile(edge, 0.5)/1e6, quantile(edge, 0.99)/1e6
	case loopOpen:
		st := run.open
		for p, key := range []string{"r1", "r2", "r3"} {
			m["loadgen."+key+".lat_ms_p99"] = quantile(st.phases[p].latNS, 0.99) / 1e6
		}
		m["loadgen.r1.within_limit_share"] = st.phases[0].withinLimit
		m["loadgen.r3.within_limit_share"] = st.phases[2].withinLimit
		m["loadgen.backlog_growth_r3"] = float64(st.phases[2].backlogGrow)
		m["loadgen.max_ok_rate_qps"] = st.maxOKRate(openRates[:])
		m["loadgen.send_lag_ms_p99"] = quantile(st.sendLagNS, 0.99) / 1e6
	}

	// The core probes and the ladder run on this workload's universe with
	// its engine configuration, outside the fleet.
	rig, err := buildRounds(sp, rc.seed, rigOpts{sharing: core.SharedAggregation})
	if err != nil {
		return err
	}
	defer rig.close()
	indep, err := buildRounds(sp, rc.seed, rigOpts{sharing: core.Independent})
	if err != nil {
		return err
	}
	defer indep.close()
	origin := time.Now()
	rig.drive(rc.span(0.02), nil, origin)
	before := snapProc()
	probe := rig.drive(rc.span(0.08), nil, origin)
	after := snapProc()
	rounds := float64(len(probe.stepNS))
	m["core.allocs_per_round"] = float64(after.mallocs-before.mallocs) / rounds
	return finishTraced(rig, indep, rc, sortedCopy(probe.stepNS), float64(probe.auctions)/rounds, tr, m, res)
}

// measure warms the fleet up and drives the workload's loop over it: once,
// for the whole run, when untraced; as an untraced and then a traced
// stretch when traced, with the server's own view of the traced stretch read
// into m. It returns the stretch the result is taken from.
func (f *fleetRig) measure(rc runConfig, tr *tracer, m map[string]float64, res *result) (serveRun, error) {
	// The open loop's end-to-end run holds the middle rate for its whole
	// length; the traced run sweeps all three.
	rates, headline := openRates[headlinePhase:headlinePhase+1], 0
	if rc.trace {
		rates, headline = openRates[:], headlinePhase
	}
	drive := func(d time.Duration, tr *tracer, origin time.Time) (serveRun, error) {
		if f.sp.loop != loopOpen {
			return f.driveClosed(d, tr, origin), nil
		}
		o, err := f.driveOpen(rates, d, rc.seed)
		if err != nil {
			return serveRun{}, err
		}
		if tr != nil {
			o.spans(tr.buf(traceRing))
		}
		return o.summarize(len(rates), headline, d), nil
	}

	// Warm-up: the closed loops at full load, the open loop at its lowest rate.
	origin := time.Now()
	if f.sp.loop == loopOpen {
		if _, err := f.driveOpen(openRates[:1], rc.warmUp(), rc.seed+1); err != nil {
			return serveRun{}, err
		}
	} else {
		f.driveClosed(rc.warmUp(), nil, origin)
	}

	if !rc.trace {
		heap := liveHeapMiB()
		before := snapProc()
		run, err := drive(rc.span(1), nil, origin)
		after := snapProc()
		if err != nil {
			return run, err
		}
		res.set("heap_mb", heap, 0)
		res.set("ops_per_s", float64(run.good)/run.elapsed.Seconds(), int(run.attempted))
		res.set("cpu_us_per_op", float64(after.cpu-before.cpu)/1e3/float64(run.good), 0)
		return run, nil
	}

	base, err := drive(rc.span(0.15), nil, origin)
	if err != nil {
		return base, err
	}
	m0, s0, before := f.fleet.Metrics(), f.shardMetrics(), snapProc()
	run, err := drive(rc.span(0.3), tr, origin)
	m1, s1, after := f.fleet.Metrics(), f.shardMetrics(), snapProc()
	if err != nil {
		return run, err
	}
	f.serverLayer(m0, m1, s0, s1, m)
	m["loadgen.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(run.attempted)
	if f.sp.loop == loopOpen {
		// The arrival rate is pinned, so tracing can only show in latency.
		b, t := quantile(sortedCopy(base.latNS), 0.5), quantile(sortedCopy(run.latNS), 0.5)
		m["trace.overhead_share"] = (t - b) / b
	} else {
		b, t := float64(base.good)/base.elapsed.Seconds(), float64(run.good)/run.elapsed.Seconds()
		m["trace.overhead_share"] = 1 - t/b
	}
	return run, nil
}
