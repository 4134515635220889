package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sharedwd/internal/binproto"
	"sharedwd/internal/netserve"
	"sharedwd/internal/server"
	"sharedwd/internal/shard"
	"sharedwd/internal/workload"
)

// The ladder gives each serving layer a self time without spans inside the
// program: the same recorded batches of matched queries are driven, one
// caller, closed loop, at each boundary in turn —
//
//	Engine.Step → server.Server.SubmitBatch → shard.Server.SubmitBatch (1 shard)
//	            → binproto loopback → HTTP loopback
//
// — and a layer's added_ns_per_query is its rung minus the rung below.
// Every server closes a round the moment a whole batch is in (MaxBatch =
// batch size) and its ticker is set out of reach, so no rung waits for a
// tick and none steps the engine through empty rounds the rung below did
// not see: every rung resolves the same sequence of rounds.

const (
	ladderBatch  = 64
	ladderPasses = 5 // the rungs are climbed in turn this many times; a rung's figure is the median
)

type rung struct {
	name   string
	submit func(batch int) error
	ns     []float64 // wall nanoseconds per query, one per pass
	allocs []float64 // whole-process allocations per query, one per pass
}

// climb drives the rung over the n recorded batches in turn for slice.
func (r *rung) climb(n int, slice time.Duration) error {
	queries := 0
	before := snapProc()
	start := time.Now()
	for i := 0; time.Since(start) < slice; i++ {
		if err := r.submit(i % n); err != nil {
			return fmt.Errorf("ladder %s rung: %w", r.name, err)
		}
		queries += ladderBatch
	}
	wall := time.Since(start)
	after := snapProc()
	r.ns = append(r.ns, float64(wall)/float64(queries))
	r.allocs = append(r.allocs, float64(after.mallocs-before.mallocs)/float64(queries))
	return nil
}

// ladder measures the serving rungs over the workload's universe. rig is
// the same universe's engine, already built for the core probes; it is the
// bottom rung. The rungs take turns, because this box's speed drifts over
// seconds and a difference of two rungs measured apart would carry the
// drift.
func ladder(sp *spec, rig *roundsRig, pool []query, seed int64, slice time.Duration, m map[string]float64) error {
	var batches [][]string
	var occs [][]bool
	var batch []string
	occ := make([]bool, len(rig.w.Interests))
	for _, q := range pool {
		if q.phrase < 0 {
			continue
		}
		batch = append(batch, q.text)
		occ[q.phrase] = true
		if len(batch) == ladderBatch {
			batches, occs = append(batches, batch), append(occs, occ)
			batch, occ = nil, make([]bool, len(rig.w.Interests))
		}
	}

	wcfg := sp.wcfg
	wcfg.Seed = seed
	worker := workerConfig(sp)
	worker.MaxBatch = ladderBatch
	worker.RoundInterval = time.Hour
	single, err := server.New(workload.Generate(wcfg), worker)
	if err != nil {
		return err
	}
	defer single.Close()
	scfg := shard.DefaultConfig()
	scfg.Shards = 1
	scfg.Worker = worker
	fleet, err := shard.New(workload.Generate(wcfg), scfg)
	if err != nil {
		return err
	}
	defer fleet.Close()
	bin := binproto.New(fleet, binproto.Config{})
	if err := bin.Start(); err != nil {
		return err
	}
	defer bin.Close()
	bc, err := binproto.Dial(bin.Addr())
	if err != nil {
		return err
	}
	defer bc.Close()
	web := netserve.New(fleet, nil, netserve.Config{})
	if err := web.Start(); err != nil {
		return err
	}
	defer web.Close()
	wc := netserve.NewClient(web.Addr())
	defer wc.Close()

	ctx := context.Background()
	batchRung := func(name string, submitBatch func(context.Context, []string) ([]server.Result, error)) *rung {
		return &rung{name: name, submit: func(i int) error {
			_, err := submitBatch(ctx, batches[i])
			return err
		}}
	}
	base := &rung{name: "core", submit: func(i int) error {
		rig.eng.Step(occs[i])
		rig.mutate() // the servers walk bids inside the round close, before they reply
		return nil
	}}
	srv, shd := batchRung("server", single.SubmitBatch), batchRung("shard", fleet.SubmitBatch)
	wire, page := batchRung("binproto", bc.SubmitBatch), batchRung("netserve", wc.SubmitBatch)
	rungs := []*rung{base, srv, shd, wire, page}
	for pass := 0; pass <= ladderPasses; pass++ {
		for _, r := range rungs {
			if err := r.climb(len(batches), slice/ladderPasses); err != nil {
				return err
			}
			if pass == 0 { // pools, connections and caches warm: not counted
				r.ns, r.allocs = nil, nil
			}
		}
	}

	m["core.ns_per_query"] = median(base.ns)
	m["server.added_ns_per_query"] = median(srv.ns) - median(base.ns)
	m["server.allocs_per_query"] = median(srv.allocs) - median(base.allocs)
	m["shard.added_ns_per_query"] = median(shd.ns) - median(srv.ns)
	m["binproto.added_ns_per_query"] = median(wire.ns) - median(shd.ns)
	m["binproto.allocs_per_query"] = median(wire.allocs) - median(shd.allocs)
	m["netserve.added_ns_per_query"] = median(page.ns) - median(shd.ns)
	m["netserve.allocs_per_query"] = median(page.allocs) - median(shd.allocs)

	// Body bytes one batch costs on the HTTP edge, both directions.
	body, err := json.Marshal(map[string][]string{"queries": batches[0]})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+web.Addr()+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ladder: batch POST answered %d", resp.StatusCode)
	}
	m["netserve.bytes_per_query"] = float64(len(body)+len(reply)) / float64(len(batches[0]))
	return nil
}
