package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharedwd/internal/binproto"
	"sharedwd/internal/netserve"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/shard"
	"sharedwd/internal/stats"
	"sharedwd/internal/workload"
)

const poolSize = 1 << 14 // generated queries a serve-* workload cycles through

// fleetRig is a sharded fleet, the edge in front of it, the clients dialled
// to that edge, and the query pool that drives it.
type fleetRig struct {
	sp *spec
	// ref is a private copy of the universe: the fleet owns (and walks the
	// bids of) its own, so replies are checked against this one.
	ref   *workload.Workload
	fleet *shard.Server
	bin   *binproto.Server
	web   *netserve.Server

	binClients []*binproto.Client
	webClient  *netserve.Client

	pool  []query
	texts []string
}

// buildPool draws queries by phrase rate through QueryStream (so they carry
// its case and spacing variants) and mixes in junk that matches no phrase.
func buildPool(ref *workload.Workload, seed int64) ([]query, error) {
	qs := workload.NewQueryStream(ref, 0, seed^0x9001)
	m := workload.NewMatcher(ref.PhraseNames)
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	pool := make([]query, 0, poolSize+len(ref.PhraseNames)*4)
	for len(pool) < poolSize {
		for _, text := range qs.Round() {
			if rng.Float64() < junkShare {
				pool = append(pool, query{text: fmt.Sprintf("zzz no such phrase %d", rng.Intn(1<<20)), phrase: -1})
			}
			id, ok := m.Match(text)
			if !ok {
				return nil, fmt.Errorf("generated query %q matches no phrase", text)
			}
			pool = append(pool, query{text: text, phrase: id})
		}
	}
	return pool[:poolSize], nil
}

// fleetShards sizes the fleet to the box. The closed loops get one shard per
// core. serve-open's generator must hold a schedule finer than this kernel's
// timers (a 50 µs time.Sleep returns after a millisecond), so it spins on a
// core of its own and the fleet gets the rest: with a shard per core the
// generator waits for a whole Step whenever both are busy, and ran 2.8 ms
// late at p99.
func fleetShards(sp *spec) int {
	n := runtime.NumCPU()
	if sp.loop == loopOpen && n > 1 {
		n--
	}
	return n
}

func workerConfig(sp *spec) server.Config {
	cfg := server.DefaultConfig()
	cfg.Engine = sp.ecfg
	cfg.Engine.Workers = 1
	cfg.RoundInterval = roundInterval
	cfg.MaxBatch = sp.maxBatch
	cfg.QueueDepth = queueDepth
	cfg.BidWalkScale = sp.bidWalk
	return cfg
}

// buildFleet generates the universe, starts the fleet and the workload's
// edge, and dials the clients: when it returns the first request can be
// sent. It uses exactly nproc connections.
func buildFleet(sp *spec, seed int64) (*fleetRig, error) {
	wcfg := sp.wcfg
	wcfg.Seed = seed
	f := &fleetRig{sp: sp, ref: workload.Generate(wcfg)}
	pool, err := buildPool(f.ref, seed)
	if err != nil {
		return nil, err
	}
	f.pool = pool
	f.texts = make([]string, len(pool))
	for i, q := range pool {
		f.texts[i] = q.text
	}

	scfg := shard.DefaultConfig()
	scfg.Shards = fleetShards(sp)
	scfg.Worker = workerConfig(sp)
	f.fleet, err = shard.New(workload.Generate(wcfg), scfg)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	switch sp.loop {
	case loopBinary:
		f.bin = binproto.New(f.fleet, binproto.Config{})
		if err := f.bin.Start(); err != nil {
			f.fleet.Close()
			return nil, err
		}
		for i := 0; i < conns; i++ {
			c, err := binproto.Dial(f.bin.Addr())
			if err != nil {
				f.shutdown()
				return nil, err
			}
			f.binClients = append(f.binClients, c)
		}
	case loopHTTPBatch:
		f.web = netserve.New(f.fleet, nil, netserve.Config{})
		if err := f.web.Start(); err != nil {
			f.fleet.Close()
			return nil, err
		}
		// One keep-alive connection per concurrent caller, and drive runs
		// exactly conns callers.
		f.webClient = netserve.NewClient(f.web.Addr())
	}
	return f, nil
}

// shutdown drains the edge and the fleet: every admitted request is
// answered, outstanding clicks settle, every goroutine exits.
func (f *fleetRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range f.binClients {
		c.Close()
	}
	switch {
	case f.bin != nil:
		return f.bin.Shutdown(ctx)
	case f.web != nil:
		f.webClient.Close()
		return f.web.Shutdown(ctx)
	}
	f.fleet.Close()
	return nil
}

// serveRun is what one stretch of serving load produced, as its callers
// measured it.
type serveRun struct {
	latNS     []float64     // one raw sample per request (per batch on serve-http-batch)
	atNS      []float64     // when each sample's request was issued (or due), from the start of span
	span      time.Duration // the stretch the samples cover
	edgeNS    []float64     // caller latency minus the latency the server reported
	attempted int64         // operations: one per query
	bad       int64         // failed, shed, timed out or wrong
	good      int64         // correct, and on serve-open within the latency limit
	shed      int64         // closed loops: replies of ErrOverloaded that the caller resubmitted
	elapsed   time.Duration
	firstErr  error
	open      *openStats // serve-open only
}

type callLog struct {
	start          time.Time // of the stretch; sample times count from here
	latNS, edgeNS  []float64
	atNS           []float64
	attempted, bad int64
	shed           int64 // replies of ErrOverloaded, each followed by a resubmission
	firstErr       error
	tb             *traceBuf
}

// note counts one operation and what its check said.
func (l *callLog) note(err error) {
	l.attempted++
	if err != nil {
		l.bad++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

func (l *callLog) record(t0, t1 time.Time, inner time.Duration, count int64, origin time.Time, id uint64) {
	rtt := t1.Sub(t0)
	l.latNS = append(l.latNS, float64(rtt))
	l.atNS = append(l.atNS, float64(t0.Sub(l.start)))
	if inner > 0 {
		l.edgeNS = append(l.edgeNS, float64(rtt-inner))
	}
	if l.tb != nil {
		t2 := time.Now() // the root span also covers checking the reply
		a, b, c := int64(t0.Sub(origin)), int64(t1.Sub(origin)), int64(t2.Sub(origin))
		l.tb.add(span{kind: spanRequest, id: id, start: a, end: c, count: count})
		l.tb.add(span{kind: spanSubmit, id: id, start: a, end: b, count: count, inner: int64(inner)})
	}
}

// driveClosed runs the workload's closed loop for d: every caller issues its
// next request only when the previous one is answered.
func (f *fleetRig) driveClosed(d time.Duration, tr *tracer, origin time.Time) serveRun {
	callers := len(f.binClients) * callersPerConn
	if f.sp.loop == loopHTTPBatch {
		callers = runtime.NumCPU()
	}
	logs := make([]*callLog, callers)
	perCaller := int(d/(200*time.Microsecond)) + 1024
	start := time.Now()
	for i := range logs {
		logs[i] = &callLog{start: start, latNS: make([]float64, 0, perCaller), atNS: make([]float64, 0, perCaller), edgeNS: make([]float64, 0, perCaller)}
		if tr != nil {
			logs[i].tb = tr.buf(traceRing / callers)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		// Callers start spread over the pool so they do not ask in step.
		at := i * (len(f.pool) / callers)
		go func(i, at int) {
			defer wg.Done()
			if f.sp.loop == loopHTTPBatch {
				f.batchCaller(at, &stop, logs[i], origin, uint64(i)<<32)
			} else {
				f.queryCaller(f.binClients[i%len(f.binClients)], at, &stop, logs[i], origin, uint64(i)<<32)
			}
		}(i, at)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	run := serveRun{elapsed: time.Since(start), span: d}
	for _, l := range logs {
		run.latNS = append(run.latNS, l.latNS...)
		run.atNS = append(run.atNS, l.atNS...)
		run.edgeNS = append(run.edgeNS, l.edgeNS...)
		run.attempted += l.attempted
		run.bad += l.bad
		run.shed += l.shed
		if run.firstErr == nil {
			run.firstErr = l.firstErr
		}
	}
	run.good = run.attempted - run.bad
	return run
}

// A closed-loop caller that is shed does what ErrOverloaded asks of it: it
// submits again, and the operation's latency runs until it is answered.
// With at most 128 requests in flight against queues of 16384 a shed is not
// overload — the seed commit's intake ring sheds about one request in a
// million when a producer reads a stale tail — so it is counted (shed, and
// server.shed in the traced pass) and warned about, never hidden, and the
// workload still has no failing operation.

func (f *fleetRig) queryCaller(c *binproto.Client, at int, stop *atomic.Bool, log *callLog, origin time.Time, id uint64) {
	ctx := context.Background()
	for ; !stop.Load(); at++ {
		q := f.pool[at%len(f.pool)]
		t0 := time.Now()
		res, err := c.Submit(ctx, q.text)
		for errors.Is(err, serr.ErrOverloaded) {
			log.shed++
			res, err = c.Submit(ctx, q.text)
		}
		t1 := time.Now()
		log.note(checkReply(f.ref, q, res, err))
		id++
		log.record(t0, t1, res.Latency, 1, origin, id)
	}
}

func (f *fleetRig) batchCaller(at int, stop *atomic.Bool, log *callLog, origin time.Time, id uint64) {
	ctx := context.Background()
	at -= at % httpBatchSize
	var again []string
	var slot []int
	for ; !stop.Load(); at += httpBatchSize {
		lo := at % len(f.pool)
		t0 := time.Now()
		results, err := f.webClient.SubmitBatch(ctx, f.texts[lo:lo+httpBatchSize])
		if results == nil {
			for j := 0; j < httpBatchSize; j++ {
				log.note(fmt.Errorf("batch refused: %w", err))
			}
			continue
		}
		errs := serr.SplitBatch(err, httpBatchSize)
		for {
			again, slot = again[:0], slot[:0]
			for j, e := range errs {
				if errors.Is(e, serr.ErrOverloaded) {
					again, slot = append(again, f.texts[lo+j]), append(slot, j)
				}
			}
			if len(again) == 0 {
				break
			}
			log.shed += int64(len(again))
			retried, rerr := f.webClient.SubmitBatch(ctx, again)
			if retried == nil {
				break // the items keep their ErrOverloaded and fail their check
			}
			for i, e := range serr.SplitBatch(rerr, len(again)) {
				results[slot[i]], errs[slot[i]] = retried[i], e
			}
		}
		t1 := time.Now()
		var inner time.Duration
		for j, e := range errs {
			log.note(checkReply(f.ref, f.pool[lo+j], results[j], e))
			if results[j].Latency > inner {
				inner = results[j].Latency
			}
		}
		id++
		log.record(t0, t1, inner, httpBatchSize, origin, id)
	}
}

// openLog holds one open-loop schedule and what became of every item. Each
// slot is written once — sent by the generator, the rest by whichever
// goroutine completes the item — and read only after completed has reached
// the item count.
type openLog struct {
	f      *fleetRig
	origin time.Time

	due   []int64 // ns after origin at which the request is due
	phase []uint8
	sent  []int64
	done  []int64
	wrong []bool

	completed atomic.Int64
	errMu     sync.Mutex
	firstErr  error
}

func (o *openLog) query(i int) query { return o.f.pool[i%len(o.f.pool)] }

// Complete runs on a shard's round loop (or on the generator, for a
// refusal), so it only checks, stamps and counts.
func (o *openLog) Complete(i int, res server.Result, err error) {
	if cerr := checkReply(o.f.ref, o.query(i), res, err); cerr != nil {
		o.wrong[i] = true
		o.errMu.Lock()
		if o.firstErr == nil {
			o.firstErr = cerr
		}
		o.errMu.Unlock()
	}
	o.done[i] = int64(time.Since(o.origin))
	o.completed.Add(1)
}

// poissonSchedule lays out arrivals at each rate in turn, each for an equal
// share of d.
func poissonSchedule(rates []float64, d time.Duration, seed int64) (due []int64, phase []uint8) {
	rng := rand.New(rand.NewSource(seed ^ 0x0be7))
	per := float64(d) / float64(len(rates))
	for p, rate := range rates {
		end := per * float64(p+1)
		for t := per*float64(p) + rng.ExpFloat64()/rate*1e9; t < end; t += rng.ExpFloat64() / rate * 1e9 {
			due = append(due, int64(t))
			phase = append(phase, uint8(p))
		}
	}
	return due, phase
}

// driveOpen issues the schedule from one goroutine through SubmitAsync,
// never waiting for an answer, and returns once every item has completed.
func (f *fleetRig) driveOpen(rates []float64, d time.Duration, seed int64) (*openLog, error) {
	due, phase := poissonSchedule(rates, d, seed)
	n := len(due)
	o := &openLog{f: f, due: due, phase: phase, sent: make([]int64, n), done: make([]int64, n), wrong: make([]bool, n)}
	items := make([]server.AsyncItem, 0, tickerBatch)
	o.origin = time.Now()
	for i := 0; i < n; {
		now := int64(time.Since(o.origin))
		if wait := due[i] - now; wait > 0 {
			continue
		}
		items = items[:0]
		for ; i < n && due[i] <= now && len(items) < tickerBatch; i++ {
			o.sent[i] = now
			items = append(items, server.AsyncItem{
				Query:    o.query(i).text,
				Deadline: o.origin.Add(time.Duration(due[i]) + openDeadline),
				Done:     o,
				Index:    i,
			})
		}
		f.fleet.SubmitAsync(items)
	}
	for limit := time.Now().Add(openDeadline + 5*time.Second); o.completed.Load() < int64(n); {
		if time.Now().After(limit) {
			return nil, fmt.Errorf("open loop: %d of %d requests never completed", int64(n)-o.completed.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return o, nil
}

// phaseStats is one pinned rate's outcome.
type phaseStats struct {
	due         int
	latNS       []float64 // sorted, from due time, every completed item
	withinLimit float64   // answered correctly within the limit / due
	backlogGrow int       // in flight at phase end minus at phase start
}

type openStats struct {
	phases    []phaseStats
	sendLagNS []float64 // sorted
}

func (o *openLog) inFlightAt(t int64) int {
	n := 0
	for i, due := range o.due {
		if due <= t && o.done[i] > t {
			n++
		}
	}
	return n
}

// headlinePhase is the pinned rate serve-open's end-to-end metrics are
// measured at: the middle one. The rates differ in tail, so a percentile
// over all of them would sit between two regimes and flip with the noise;
// the other two are swept in the traced run and reported per layer.
const headlinePhase = 1

// summarize turns the item log of a run of equal phases into a serveRun,
// latency counted from the instant each request was due; the run's own
// samples are those of the headline phase.
func (o *openLog) summarize(phases, headline int, d time.Duration) serveRun {
	per := int64(d) / int64(phases)
	run := serveRun{span: time.Duration(per), attempted: int64(len(o.due)), firstErr: o.firstErr}
	st := &openStats{phases: make([]phaseStats, phases)}
	for i, due := range o.due {
		// The run lasts until its last answer arrives.
		run.elapsed = max(run.elapsed, time.Duration(o.done[i]))
		lat := float64(o.done[i] - due)
		p := &st.phases[o.phase[i]]
		p.due++
		p.latNS = append(p.latNS, lat)
		if int(o.phase[i]) == headline {
			run.latNS = append(run.latNS, lat)
			run.atNS = append(run.atNS, float64(due-per*int64(headline)))
		}
		st.sendLagNS = append(st.sendLagNS, float64(o.sent[i]-due))
		if o.wrong[i] {
			run.bad++
		} else if lat <= float64(latencyLimit) {
			run.good++
			p.withinLimit++
		}
	}
	for p := range st.phases {
		ph := &st.phases[p]
		sort.Float64s(ph.latNS)
		if ph.due > 0 {
			ph.withinLimit /= float64(ph.due)
		}
		ph.backlogGrow = o.inFlightAt(per*int64(p+1)) - o.inFlightAt(per*int64(p))
	}
	sort.Float64s(st.sendLagNS)
	run.open = st
	return run
}

// spans renders the item log as request and submit spans; the open loop's
// arrays are its trace, so nothing is recorded while it runs.
func (o *openLog) spans(tb *traceBuf) {
	for i, due := range o.due {
		tb.add(span{kind: spanRequest, id: uint64(i), start: due, end: o.done[i], count: 1})
		tb.add(span{kind: spanSubmit, id: uint64(i), start: o.sent[i], end: o.done[i], count: 1})
	}
}

// maxOKRate is the highest pinned rate whose phase met the p99 limit without
// its backlog growing by more than one full round batch.
func (st *openStats) maxOKRate(rates []float64) float64 {
	best := 0.0
	for p, ph := range st.phases {
		if quantile(ph.latNS, 0.99) <= float64(latencyLimit) && ph.backlogGrow <= tickerBatch && rates[p] > best {
			best = rates[p]
		}
	}
	return best
}

// histSince is the distribution of what was added to a histogram between two
// snapshots of it, at bucket resolution.
func histSince(after, before *stats.Histogram) *stats.Histogram {
	h := stats.NewHistogram(after.Lo, after.Hi, len(after.Buckets))
	width := (after.Hi - after.Lo) / float64(len(after.Buckets))
	for i, c := range after.Buckets {
		if before != nil {
			c -= before.Buckets[i]
		}
		h.AddN(after.Lo+(float64(i)+0.5)*width, c)
	}
	return h
}

// serverLayer reads the server and shard layers' own view of a stretch of
// load from two Metrics snapshots taken around it.
func (f *fleetRig) serverLayer(before, after server.Metrics, shardsBefore, shardsAfter []server.Metrics, m map[string]float64) {
	dist := func(a, b server.LatencyDist) *stats.Histogram { return histSince(a.Hist, b.Hist) }
	adm, rw := dist(after.AdmissionWait, before.AdmissionWait), dist(after.RoundWait, before.RoundWait)
	wd, tot := dist(after.WinnerDetermination, before.WinnerDetermination), dist(after.TotalLatency, before.TotalLatency)
	m["server.admission_wait_ms_p50"] = adm.Quantile(0.5) * 1e3
	m["server.admission_wait_ms_p99"] = adm.Quantile(0.99) * 1e3
	m["server.round_wait_ms_p50"] = rw.Quantile(0.5) * 1e3
	m["server.round_wait_ms_p99"] = rw.Quantile(0.99) * 1e3
	m["server.wd_us_p50"] = wd.Quantile(0.5) * 1e6
	m["server.total_ms_p50"] = tot.Quantile(0.5) * 1e3
	m["server.total_ms_p99"] = tot.Quantile(0.99) * 1e3
	if n := tot.N(); n > 0 {
		m["server.hist_clamped_share"] = float64(tot.Buckets[len(tot.Buckets)-1]) / float64(n)
	}
	rounds := float64(after.Rounds - before.Rounds)
	empty := float64(after.EmptyRounds - before.EmptyRounds)
	if full := rounds - empty; full > 0 {
		m["server.batch_per_round"] = float64(after.Answered-before.Answered) / full
	}
	if rounds > 0 {
		m["server.empty_round_share"] = empty / rounds
	}
	if sec := (after.Uptime - before.Uptime).Seconds(); sec > 0 {
		m["server.rounds_per_s"] = rounds / sec
	}
	m["server.shed"] = float64(after.Shed - before.Shed)
	m["server.timed_out"] = float64(after.TimedOut - before.TimedOut)
	m["server.expired"] = float64(after.Expired - before.Expired)

	most, sum := 0.0, 0.0
	for s := range shardsAfter {
		answered := float64(shardsAfter[s].Answered - shardsBefore[s].Answered)
		most = math.Max(most, answered)
		sum += answered
	}
	if sum > 0 {
		m["shard.skew"] = most / (sum / float64(len(shardsAfter)))
	}
	if auctions := after.Engine.AuctionsResolved - before.Engine.AuctionsResolved; auctions > 0 {
		ops := after.Engine.NodesMaterialized + after.Engine.NodesCached - before.Engine.NodesMaterialized - before.Engine.NodesCached
		m["sharedagg.agg_ops_per_auction"] = float64(ops) / float64(auctions)
	}
}

func (f *fleetRig) shardMetrics() []server.Metrics {
	out := make([]server.Metrics, f.fleet.Shards())
	for s := range out {
		out[s] = f.fleet.ShardMetrics(s)
	}
	return out
}
