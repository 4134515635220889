package plan

// Flat plan compilation. Compile lowers a Plan's pointer-and-struct DAG
// into a Program: a topologically ordered instruction stream over dense
// int32 arrays, so execution is a single cache-friendly loop with no
// per-node map lookups, interface dispatch, or closure calls (see
// DESIGN.md §8). Two lowering steps do the work:
//
//   - Fusion. A non-query internal node is absorbed into every consumer
//     instead of getting an instruction of its own when it has exactly one
//     parent — it exists only to feed that parent — or when its label has
//     fewer than fuseBelow variables: a small shared subtree costs less to
//     rescan in each consumer than an instruction costs to dispatch, store
//     and fold in. Fragment chains — the left-deep towers sharedagg builds
//     over each fragment's leaves — collapse this way into a single fold
//     over the leaf score slab, which is exactly the linear top-k scan the
//     independent baseline runs, while large shared interior nodes and query
//     outputs remain individually materialized and cacheable.
//
//   - Linearization. Instructions are emitted level-major (DAG depth, then
//     node ID), which is a topological order, so one descending sweep from
//     the highest needed instruction marks a round's whole cone.
//
// Span counts the ⊕ operations an instruction performs: its output plus the
// fused nodes it expands, each once per instruction. A node fused into
// several consumers therefore counts in each of them, so Σ Span over a
// round's cone can exceed what plan.Execute materializes. With fuseBelow 0
// (fusion by parent count only) it does not: Σ Span equals the plan's
// internal node count and Σ Span over a cone equals Execute's count —
// invariants the compile property tests assert on random plans.
//
// An instruction names its inputs in the two forms execution wants: the
// leaves it scans out of the score slab, and the indices of the earlier
// instructions whose runs it folds in. No execution-time array is indexed
// by plan node, so the runner's state is sized by the instruction count.

// Instruction kinds.
const (
	// OpMerge2 merges the runs of two producing instructions with the
	// two-pointer kernel: an instruction with no leaves and exactly two deps.
	OpMerge2 OpKind = iota
	// OpFold scans the instruction's leaves out of the score slab and folds
	// its deps' runs into the output run.
	OpFold
)

// OpKind discriminates the execution kernel of one instruction.
type OpKind uint8

// Program is the flat compilation of a complete Plan. Everything execution
// touches is indexed by instruction, not by plan node; CSR spans (LeafStart,
// DepStart) are one longer than the instruction count.
type Program struct {
	NumVars  int // leaf count (advertisers)
	NumNodes int // total plan nodes, leaves included

	Kind []OpKind
	Out  []int32 // output node ID (the Plan's) per instruction
	// Leaves[LeafStart[i]:LeafStart[i+1]] are the distinct leaves instruction
	// i reads from the score slab, in plan order.
	LeafStart []int32
	Leaves    []int32
	// Deps[DepStart[i]:DepStart[i+1]] are the distinct instructions whose
	// outputs instruction i folds in; every one is an index below i.
	DepStart []int32
	Deps     []int32
	// Span[i] counts the ⊕ operations instruction i performs: its output
	// plus every fused node it expands, each once however many paths reach
	// it, as its leaves are. A fused node with several consumers counts in
	// each instruction that absorbs it.
	Span []int32
	// Level is the instruction's DAG depth (leaves sit at depth 0, so an
	// instruction over leaves alone has level 1); instructions are ordered
	// by (Level, Out), so each level is a contiguous index range and every
	// dep precedes its consumer.
	Level    []int32
	MaxLevel int32

	// QueryNode maps each query to the plan node computing it (leaf IDs
	// included) and QuerySlot to where the runner holds its run: the
	// producing instruction's index, or NumInstr()+j for the leaf
	// LeafQueries[j]. LeafQueries lists the distinct leaf nodes among the
	// queries, which the runner materializes directly from the score slab.
	QueryNode   []int32
	QuerySlot   []int32
	LeafQueries []int32
}

// NumInstr returns the instruction count.
func (pr *Program) NumInstr() int { return len(pr.Out) }

// fuseBelow is the label size under which a shared non-query node is fused
// into each consumer rather than materialized once: below it, the
// instruction's fixed cost (dispatch, a stored run, a fold per consumer)
// exceeds the leaves its consumers would rescan. BenchmarkFuseBelow is the
// sweep behind the value (DESIGN.md §8); it is a property of the kernels,
// not an option.
const fuseBelow = 128

// Compile lowers a complete plan into a Program. The plan must not grow
// afterwards (plans are append-only, so build the full plan first).
func Compile(p *Plan) *Program { return compile(p, fuseBelow) }

// compile is Compile with the fusion threshold as a parameter; 0 fuses by
// parent count alone.
func compile(p *Plan, fuseBelow int) *Program {
	if !p.Complete() {
		panic("plan: Compile of incomplete plan")
	}
	n := len(p.Nodes)
	numVars := p.Inst.NumVars

	parentCount := make([]int32, n)
	for id := numVars; id < n; id++ {
		parentCount[p.Nodes[id].Left]++
		parentCount[p.Nodes[id].Right]++
	}
	isQuery := make([]bool, n)
	for _, id := range p.QueryNode {
		isQuery[id] = true
	}
	// fused[v]: internal node expanded into each consumer — never
	// individually materialized, queried, or shared.
	fused := make([]bool, n)
	for id := numVars; id < n; id++ {
		fused[id] = !isQuery[id] && (parentCount[id] == 1 || p.Nodes[id].Vars.Count() < fuseBelow)
	}

	pr := &Program{NumVars: numVars, NumNodes: n}

	// Emit one instruction per materialized internal node, in node order
	// first; the level-major permutation is applied below. args holds node
	// IDs, each once: ⊕ is idempotent, so an argument reached twice through
	// overlapping fused children is read once, and a fused node reached twice
	// is expanded once.
	type instr struct {
		out   int32
		args  []int32
		span  int32
		level int32
	}
	var instrs []instr
	nodeLevel := make([]int32, n) // level of materialized nodes (leaves 0)
	seenBy := make([]int32, n)    // out+1 of the last instruction reaching the node
	var expand func(ins *instr, c int)
	expand = func(ins *instr, c int) {
		if seenBy[c] == ins.out+1 {
			return
		}
		seenBy[c] = ins.out + 1
		if c >= numVars && fused[c] {
			ins.span++
			expand(ins, p.Nodes[c].Left)
			expand(ins, p.Nodes[c].Right)
			return
		}
		ins.args = append(ins.args, int32(c))
		if nodeLevel[c]+1 > ins.level {
			ins.level = nodeLevel[c] + 1
		}
	}
	for id := numVars; id < n; id++ {
		if fused[id] {
			continue
		}
		ins := instr{out: int32(id), span: 1}
		expand(&ins, p.Nodes[id].Left)
		expand(&ins, p.Nodes[id].Right)
		nodeLevel[id] = ins.level
		if ins.level > pr.MaxLevel {
			pr.MaxLevel = ins.level
		}
		instrs = append(instrs, ins)
	}

	// Level-major order: counting sort by level keeps ascending node order
	// within each level, so the result is topological and deterministic.
	levelStart := make([]int32, pr.MaxLevel+2)
	for i := range instrs {
		levelStart[instrs[i].level+1]++
	}
	for l := 1; l < len(levelStart); l++ {
		levelStart[l] += levelStart[l-1]
	}
	order := make([]int32, len(instrs))
	next := make([]int32, pr.MaxLevel+1)
	copy(next, levelStart)
	for i := range instrs {
		l := instrs[i].level
		order[next[l]] = int32(i)
		next[l]++
	}

	pr.Kind = make([]OpKind, len(instrs))
	pr.Out = make([]int32, len(instrs))
	pr.Span = make([]int32, len(instrs))
	pr.Level = make([]int32, len(instrs))
	pr.LeafStart = make([]int32, len(instrs)+1)
	pr.DepStart = make([]int32, len(instrs)+1)
	// instrOf resolves a materialized node to its instruction; an argument's
	// producer sits at a lower level, so it is placed before its consumer.
	instrOf := make([]int32, n)
	for pos, idx := range order {
		ins := &instrs[idx]
		pr.Out[pos] = ins.out
		pr.Span[pos] = ins.span
		pr.Level[pos] = ins.level
		instrOf[ins.out] = int32(pos)
		for _, a := range ins.args {
			if a < int32(numVars) {
				pr.Leaves = append(pr.Leaves, a)
			} else {
				pr.Deps = append(pr.Deps, instrOf[a])
			}
		}
		pr.LeafStart[pos+1] = int32(len(pr.Leaves))
		pr.DepStart[pos+1] = int32(len(pr.Deps))
		pr.Kind[pos] = OpFold
		if len(ins.args) == 2 && pr.DepStart[pos+1]-pr.DepStart[pos] == 2 {
			pr.Kind[pos] = OpMerge2
		}
	}

	pr.QueryNode = make([]int32, len(p.QueryNode))
	pr.QuerySlot = make([]int32, len(p.QueryNode))
	leafSlot := make(map[int]int32)
	for qi, id := range p.QueryNode {
		pr.QueryNode[qi] = int32(id)
		if id >= numVars {
			pr.QuerySlot[qi] = instrOf[id]
			continue
		}
		slot, ok := leafSlot[id]
		if !ok {
			slot = int32(len(instrs) + len(pr.LeafQueries))
			leafSlot[id] = slot
			pr.LeafQueries = append(pr.LeafQueries, int32(id))
		}
		pr.QuerySlot[qi] = slot
	}
	return pr
}
