package plan

// FuseBelow is the production fusion threshold Compile applies.
const FuseBelow = fuseBelow

// CompileFuseBelow lowers p with the fusion threshold forced: 0 fuses by
// parent count alone (every shared node stays an instruction), a threshold
// above NumVars fuses every non-query node.
func CompileFuseBelow(p *Plan, fuseBelow int) *Program { return compile(p, fuseBelow) }

// SlabEntries is the runner's value-slab size in entries.
func (r *Runner) SlabEntries() int { return len(r.ents) }

// Held reports whether the last run stored instruction ins's output (as
// opposed to streaming it into its consumers, or not needing it at all).
func (r *Runner) Held(ins int) bool { return r.need[ins] == r.epoch && r.held[ins] }
