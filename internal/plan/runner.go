package plan

import (
	"fmt"

	"sharedwd/internal/topk"
)

// Runner executes a compiled Program over dense top-k entry slabs, round
// after round, with zero steady-state allocations: instruction outputs are
// fixed-stride segments of one contiguous []topk.Entry slab, leaves are
// scored once per round into a caller-provided score slab, and each
// instruction dispatches to concrete scan and merge kernels. All of its
// state is indexed by instruction. (The map-memo Execute is the generic
// reference the tests tie it to.)
//
// It has two execution modes:
//
//   - Run evaluates the round's needed cone, marked by epoch stamps (a stamp
//     write per instruction, no clearing pass). It stores an instruction's
//     run only where the round shares it — an occurring query's output, or
//     an instruction two or more of the round's needed instructions read
//     (fusion has already folded every shared subtree too small to be worth
//     storing into its consumers); every other instruction is streamed:
//     its consumer scans the instruction's leaves and deps straight into its
//     own run (see fold). A round without overlap therefore costs one linear
//     scan per auction.
//   - RunIncremental stores every instruction it computes and skips those
//     whose output is still valid — i.e. no descendant leaf score changed
//     since it was computed (see Invalidate) — preserving the Section III-B
//     dirty-cone caching semantics at instruction granularity.
//
// The engine resolves every round with Run. RunIncremental and Invalidate
// are kept only for benchmark/'s plan.run_incremental_us_p50 probe and
// FuzzCompiledRun, and go with the other benchmark shims (ROADMAP item
// 1(f)); no other non-test code may call them.
//
// Both run on the caller's goroutine; a Runner is not safe for concurrent
// use. An engine is one goroutine, and shards are the unit of parallelism
// (DESIGN.md §11).
type Runner struct {
	prog *Program
	k    int // run capacity per slot (slots+1 in the engine)

	// Value slab: one stride-k segment per instruction, then one per leaf
	// query (Program.QuerySlot indexes both); lens holds the live lengths.
	ents []topk.Entry
	lens []int32

	// Per-instruction round state. need stamps the round's cone; reads
	// counts the needed instructions reading the output this round
	// (readsQuery and up: an occurring query's output); held says the
	// output is in the slab rather than streamed into its consumers.
	need  []uint64
	epoch uint64
	cone  []int32 // the round's needed instructions, descending
	reads []int32
	held  []bool
	// valid: RunIncremental computed the output and no leaf under it has
	// been invalidated since. An invalid instruction's consumers are all
	// invalid, which is what lets Invalidate prune.
	valid []bool
	stack []int32 // invalidation scratch

	// consStart/cons is the consumer CSR (the instructions reading
	// instruction i's output, one entry per dep edge) and leafStart/leafIns
	// the leaf CSR (the instructions scanning leaf v). Built once at
	// NewRunner from Deps and Leaves.
	consStart, cons    []int32
	leafStart, leafIns []int32
}

// readsQuery marks an occurring query's output in reads: stored whoever
// reads it, since QueryRun serves it from the slab.
const readsQuery = 1 << 30

// csr inverts the CSR adjacency (start, adj) into one over its m targets:
// the result lists, for each target, the sources naming it, in ascending
// order.
func csr(start, adj []int32, m int) (rstart, radj []int32) {
	rstart = make([]int32, m+1)
	for _, t := range adj {
		rstart[t+1]++
	}
	for t := 1; t <= m; t++ {
		rstart[t] += rstart[t-1]
	}
	radj = make([]int32, len(adj))
	fill := append([]int32(nil), rstart[:m]...)
	for src := 0; src+1 < len(start); src++ {
		for _, t := range adj[start[src]:start[src+1]] {
			radj[fill[t]] = int32(src)
			fill[t]++
		}
	}
	return rstart, radj
}

// NewRunner builds a reusable runner for the program with per-slot run
// capacity k (the engine passes slots+1, matching its top-k lists).
func NewRunner(prog *Program, k int) *Runner {
	if k <= 0 {
		panic(fmt.Sprintf("plan: non-positive run capacity %d", k))
	}
	n := prog.NumInstr()
	slots := n + len(prog.LeafQueries)
	r := &Runner{
		prog:  prog,
		k:     k,
		ents:  make([]topk.Entry, slots*k),
		lens:  make([]int32, slots),
		need:  make([]uint64, n),
		reads: make([]int32, n),
		held:  make([]bool, n),
		valid: make([]bool, n),
		cone:  make([]int32, 0, n),
	}
	r.consStart, r.cons = csr(prog.DepStart, prog.Deps, n)
	r.leafStart, r.leafIns = csr(prog.LeafStart, prog.Leaves, prog.NumVars)
	return r
}

// Program returns the compiled program the runner executes.
func (r *Runner) Program() *Program { return r.prog }

// seg returns slab slot i's segment (full capacity; r.lens[i] holds the
// live length).
func (r *Runner) seg(i int32) []topk.Entry {
	base := int(i) * r.k
	return r.ents[base : base+r.k]
}

// QueryRun returns query qi's result run from the last Run/RunIncremental
// call, in rank order. The returned slice views the slab and is overwritten
// by the next call; it is only meaningful if qi occurred in that round.
func (r *Runner) QueryRun(qi int) []topk.Entry {
	slot := r.prog.QuerySlot[qi]
	return r.seg(slot)[:r.lens[slot]]
}

// Invalidate marks leaf v's score changed: the cached output of every
// instruction above it is dropped, so the next RunIncremental recomputes
// it. The walk starts at the instructions scanning v, climbs the consumer
// CSR, and prunes at already-invalid instructions, whose consumers are
// invalid by construction.
func (r *Runner) Invalidate(v int) {
	stack := r.invalidate(r.stack[:0], r.leafIns[r.leafStart[v]:r.leafStart[v+1]])
	for len(stack) > 0 {
		ins := stack[len(stack)-1]
		stack = r.invalidate(stack[:len(stack)-1], r.cons[r.consStart[ins]:r.consStart[ins+1]])
	}
	r.stack = stack
}

// invalidate drops the still-valid instructions among ins and pushes them
// for their own consumers' turn.
func (r *Runner) invalidate(stack, ins []int32) []int32 {
	for _, i := range ins {
		if r.valid[i] {
			r.valid[i] = false
			stack = append(stack, i)
		}
	}
	return stack
}

// Run evaluates the occurring queries (nil means all occur) from the leaf
// scores alone. scores[v] is leaf v's value for the round (b̂_v·c_v in the
// engine); entries are emitted only for strictly positive scores. The
// returned count is Σ Program.Span over the round's cone, the ⊕ operations
// the cone's instructions perform, whether an instruction's run was stored
// or streamed (on a program fused by parent count alone it equals the
// memo-based Execute on the same occurrence vector). Run neither consults
// nor updates the cache: cached values stay as valid as they were.
func (r *Runner) Run(scores []float64, occurring []bool) (materialized int) {
	materialized, _ = r.run(scores, occurring, false)
	return materialized
}

// RunIncremental evaluates the occurring queries, reusing every cached
// instruction output still consistent with the leaf scores (see
// Invalidate). It returns the Span recomputed and the Span served from
// cache; recomputed+cached equals the count Run returns. Fused nodes cache
// as part of the instruction that expands them, so the split is coarser
// than node-granular — the sum is the invariant. The cache is only as good
// as the Invalidate calls behind it: after rounds whose score changes were
// not reported, start over on a fresh Runner.
func (r *Runner) RunIncremental(scores []float64, occurring []bool) (recomputed, cached int) {
	return r.run(scores, occurring, true)
}

func (r *Runner) run(scores []float64, occurring []bool, incremental bool) (recomputed, cached int) {
	if len(scores) < r.prog.NumVars {
		panic(fmt.Sprintf("plan: %d leaf scores for %d variables", len(scores), r.prog.NumVars))
	}
	r.epoch++
	prog := r.prog
	n := int32(prog.NumInstr())

	// Leaf-assigned queries are materialized straight from the score slab;
	// no instruction produces them.
	for j, v := range prog.LeafQueries {
		slot := n + int32(j)
		r.lens[slot] = 0
		if s := scores[v]; s > 0 {
			r.seg(slot)[0] = topk.Entry{ID: int(v), Score: s}
			r.lens[slot] = 1
		}
	}

	maxI := int32(-1)
	for qi, ins := range prog.QuerySlot {
		if ins >= n || (occurring != nil && !occurring[qi]) {
			continue
		}
		r.need[ins] = r.epoch
		r.reads[ins] = readsQuery
		maxI = max(maxI, ins)
	}
	// Mark the needed cone top-down. Deps precede their consumers in the
	// level-major order, so one descending sweep from the highest needed
	// instruction reaches every dependency — and has counted every read of
	// an instruction by the time it gets there, which settles whether a
	// full run stores or streams it.
	stream := !incremental
	r.cone = r.cone[:0]
	for ins := maxI; ins >= 0; ins-- {
		if r.need[ins] != r.epoch {
			continue
		}
		r.cone = append(r.cone, ins)
		r.held[ins] = !stream || r.reads[ins] >= 2
		for _, d := range prog.Deps[prog.DepStart[ins]:prog.DepStart[ins+1]] {
			if r.need[d] != r.epoch {
				r.need[d] = r.epoch
				r.reads[d] = 0
			}
			r.reads[d]++
		}
	}

	// Execute the cone bottom-up (ascending instruction index is a
	// topological order). A streamed instruction has no kernel of its own —
	// its consumers' folds do the work — but its nodes are in the cone and
	// count.
	for j := len(r.cone) - 1; j >= 0; j-- {
		ins := r.cone[j]
		span := int(prog.Span[ins])
		if incremental {
			if r.valid[ins] {
				cached += span
				continue
			}
			r.valid[ins] = true
		}
		recomputed += span
		if r.held[ins] {
			r.exec(ins, scores)
		}
	}
	return recomputed, cached
}

// exec computes one held instruction's run into its slab segment.
func (r *Runner) exec(ins int32, scores []float64) {
	prog := r.prog
	dst := r.seg(ins)
	if prog.Kind[ins] == OpMerge2 {
		a, b := prog.Deps[prog.DepStart[ins]], prog.Deps[prog.DepStart[ins]+1]
		if r.held[a] && r.held[b] {
			r.lens[ins] = int32(topk.MergeRuns(dst, r.k, r.seg(a)[:r.lens[a]], r.seg(b)[:r.lens[b]]))
			return
		}
	}
	r.lens[ins] = int32(r.fold(dst, 0, ins, scores))
}

// fold folds instruction ins's inputs into run[:n] and returns the new
// length: its leaves through the threshold scan, a held dep's stored run
// through FoldRun, and a streamed dep by folding that dep's own inputs into
// the same run — top-k merge is associative, commutative and idempotent, so
// the result equals merging the dep's run, and the consumer's threshold
// rejects most of the dep's leaves at one compare each. The recursion is at
// most MaxLevel deep and allocates nothing.
func (r *Runner) fold(run []topk.Entry, n int, ins int32, scores []float64) int {
	prog := r.prog
	n = topk.ScanRun(run, n, r.k, scores, prog.Leaves[prog.LeafStart[ins]:prog.LeafStart[ins+1]])
	for _, d := range prog.Deps[prog.DepStart[ins]:prog.DepStart[ins+1]] {
		if r.held[d] {
			n = topk.FoldRun(run, n, r.k, r.seg(d)[:r.lens[d]])
		} else {
			n = r.fold(run, n, d, scores)
		}
	}
	return n
}
