package plan

// SetStoreMinLeaves overrides a runner's storing threshold: 1 stores every
// run two instructions read, math.MaxInt32 stores query outputs only.
func (r *Runner) SetStoreMinLeaves(n int32) { r.minLeaves = n }

// SlabEntries is the runner's value-slab size in entries.
func (r *Runner) SlabEntries() int { return len(r.ents) }

// Held reports whether the last run stored instruction ins's output (as
// opposed to streaming it into its consumers, or not needing it at all).
func (r *Runner) Held(ins int) bool { return r.need[ins] == r.epoch && r.held[ins] }
