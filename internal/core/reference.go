package core

import (
	"sharedwd/internal/plan"
	"sharedwd/internal/topk"
)

// slabReference is the original slab executor with its leaf and op
// closures: the reference strategy the equivalence tests select with
// forceSlab. It owns a *topk.List per plan node, which is why it is built
// on first use rather than carried by every production engine.
type slabReference struct {
	exec *plan.Executor[*topk.List]
	leaf func(prev *topk.List, v int) *topk.List
	op   func(prev, a, b *topk.List) *topk.List
}

// slabReference returns the engine's reference executor over the live
// plan, building it on first use (InstallPlan drops it with the old plan).
func (e *Engine) slabReference() *slabReference {
	if e.ref != nil {
		return e.ref
	}
	k := len(e.w.SlotFactors)
	ref := &slabReference{exec: plan.NewExecutor[*topk.List](e.plan)}
	if e.pool != nil {
		ref.exec.SetPool(e.pool)
	}
	// Both closures recycle the slab slot's previous list instead of
	// allocating a new one, so reference rounds stay allocation-free too.
	ref.leaf = func(prev *topk.List, v int) *topk.List {
		if prev == nil {
			prev = topk.New(k + 1)
		} else {
			prev.Reset()
		}
		if s := e.scr.score[v]; s > 0 {
			prev.Push(topk.Entry{ID: v, Score: s})
		}
		return prev
	}
	ref.op = func(prev, a, b *topk.List) *topk.List {
		if prev == nil {
			prev = topk.New(k + 1)
		}
		return topk.MergeInto(prev, a, b)
	}
	e.ref = ref
	return ref
}
