// Package dag builds the code DAG a list scheduler consumes: nodes are the
// instructions of a scheduling region (a basic block, or a trace of blocks
// during trace scheduling) and edges are the dependences that constrain
// reordering — register true/anti/output dependences, memory dependences
// refined by array disambiguation (ir.MemRef), locality-analysis ordering
// arcs between predicted-miss and predicted-hit loads of a reuse group, and
// the control constraints of trace scheduling.
package dag

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/obs"
)

// Node is one instruction in the DAG.
type Node struct {
	// Index is the node's position in Graph.Nodes and in the region's
	// original instruction order.
	Index int
	// Instr is the underlying instruction.
	Instr *ir.Instr
	// Succs and Preds are dependence edges (successor = must come later),
	// each in the order the builder found them. They are capped views
	// into the graph's edge slabs.
	Succs, Preds []*Node
	// Weight is the scheduling latency estimate assigned by the weight
	// policy (traditional or balanced); see internal/sched.
	Weight int
	// Priority is weight + max successor priority (critical path length).
	Priority int
}

// Graph is the dependence DAG over one scheduling region.
//
// A graph's storage is reused: Build takes a released graph from a pool
// when one is free, and Release hands the graph back once the caller is
// done with it, so the scheduler of a grid builds region after region
// in the same buffers. The node slab, the edge bitset, the edge list,
// the Succs/Preds slabs, the register table and the use-list slab are
// all kept.
type Graph struct {
	// Nodes holds the region's instructions in original order.
	Nodes []*Node

	// edge is the n×n edge index: bit a*n+b is set when a→b exists.
	// Between builds every bit is clear.
	edge []uint64
	// list holds every edge once, in insertion order; layoutEdges lays
	// it out into the succs and preds slabs.
	list         []edgePair
	succs, preds []*Node
	// offs holds the Succs then the Preds span ends, n+1 each.
	offs  []int32
	slab  []Node
	regs  []regDeps // indexed by register; all zero between builds
	uses  []useLink
	nodes []*Node // scratch list of memory or branch nodes
	stats *obs.Stats
}

// edgePair is one dependence, by node index.
type edgePair struct{ from, to int32 }

// regDeps is a register's last definition and the uses since then, as a
// linked list through Graph.uses. Each field holds an index plus one, so
// the zero value means none.
type regDeps struct{ def, head, tail int32 }

// useLink is one use in a register's use list.
type useLink struct{ node, next int32 }

var graphs = sync.Pool{New: func() any { return new(Graph) }}

// Stats returns the observability registry the graph was built with (nil
// when observability is off); the scheduler records its selection
// behaviour there so callers thread one registry through build + schedule.
func (g *Graph) Stats() *obs.Stats { return g.stats }

// Release hands the graph's storage back for the next Build. Neither the
// graph nor any of its nodes may be used afterwards. Releasing is
// optional: an unreleased graph is simply collected.
func (g *Graph) Release() {
	n := uint(len(g.Nodes))
	for _, e := range g.list {
		k := uint(e.from)*n + uint(e.to)
		g.edge[k/64] = 0
	}
	clear(g.slab[:n]) // drop the instructions
	g.list = g.list[:0]
	g.stats = nil
	graphs.Put(g)
}

// addEdge inserts a dependence from a to b (a must precede b), ignoring
// self-edges and duplicates.
func (g *Graph) addEdge(a, b *Node) {
	if a == b {
		return
	}
	k := uint(a.Index*len(g.Nodes) + b.Index)
	if g.edge[k/64]&(1<<(k%64)) != 0 {
		return
	}
	g.edge[k/64] |= 1 << (k % 64)
	g.list = append(g.list, edgePair{int32(a.Index), int32(b.Index)})
}

// HasEdge reports whether a direct dependence a→b exists.
func (g *Graph) HasEdge(a, b *Node) bool {
	k := uint(a.Index*len(g.Nodes) + b.Index)
	return g.edge[k/64]&(1<<(k%64)) != 0
}

// Options configure DAG construction.
type Options struct {
	// Trace enables trace-scheduling mode: branches inside the region are
	// kept in order relative to each other but other instructions may
	// move across them subject to speculation/liveness rules enforced by
	// internal/trace. When false (basic-block mode), every instruction
	// is ordered before the terminating branch.
	Trace bool
	// LiveOutOffTrace reports, for a branch node index and a register,
	// whether the register is live when the branch leaves the trace;
	// instructions defining such registers may not move above the branch.
	// Only consulted in Trace mode. A nil function blocks all upward
	// motion across branches.
	LiveOutOffTrace func(branchIdx int, r ir.Reg) bool
	// HomeOf gives each instruction's home position (its block's index
	// within the trace); required when Joins is non-empty.
	HomeOf func(i int) int
	// Joins lists trace-block positions that have off-trace predecessors.
	// For each join boundary k, branches originating at or below k are
	// fenced below every instruction originating above k, so the join's
	// re-entry label always lands above those branches (non-branch
	// instructions may still move above the label, paid for with
	// compensation code on the joining edges).
	Joins []int
	// Stats, when non-nil, receives the builder's counters (region/node/
	// edge counts, memory-disambiguation outcomes, locality arcs) and is
	// exposed to the scheduler via Graph.Stats.
	Stats *obs.Stats
}

// Build constructs the dependence DAG for the instruction sequence
// instrs, in storage a released graph left behind when there is one.
func Build(instrs []*ir.Instr, opts Options) *Graph {
	n := len(instrs)
	g := graphs.Get().(*Graph)
	g.stats = opts.Stats
	if words := (n*n + 63) / 64; words <= cap(g.edge) {
		g.edge = g.edge[:words]
	} else {
		g.edge = make([]uint64, words)
	}
	if n > cap(g.slab) {
		g.slab = make([]Node, n)
		g.Nodes = make([]*Node, n)
	}
	g.Nodes = g.Nodes[:n]
	for i, in := range instrs {
		g.slab[i] = Node{Index: i, Instr: in}
		g.Nodes[i] = &g.slab[i]
	}

	g.addRegisterEdges()
	g.addMemoryEdges()
	g.addLocalityEdges()
	g.addControlEdges(opts)
	g.layoutEdges()

	g.stats.Inc("dag/regions")
	g.stats.Add("dag/nodes", int64(n))
	g.stats.Add("dag/edges", int64(len(g.list)))
	g.stats.Observe("dag/region_size", int64(n))
	return g
}

// layoutEdges lays the edge list out CSR-style: one slab of successors
// grouped by source node and one of predecessors grouped by destination,
// each group in insertion order, so every node's Succs and Preds list
// its edges in the order addEdge saw them.
func (g *Graph) layoutEdges() {
	n := len(g.Nodes)
	if 2*(n+1) > cap(g.offs) {
		g.offs = make([]int32, 2*(n+1))
	}
	g.offs = g.offs[:2*(n+1)]
	clear(g.offs)
	succEnd, predEnd := g.offs[:n+1], g.offs[n+1:]
	for _, e := range g.list {
		succEnd[e.from+1]++
		predEnd[e.to+1]++
	}
	for i := 1; i <= n; i++ {
		succEnd[i] += succEnd[i-1]
		predEnd[i] += predEnd[i-1]
	}
	if m := len(g.list); m > cap(g.succs) {
		g.succs = make([]*Node, m)
		g.preds = make([]*Node, m)
	}
	// Filling advances each node's start offset to its end, which is the
	// next node's start.
	for _, e := range g.list {
		g.succs[succEnd[e.from]] = g.Nodes[e.to]
		succEnd[e.from]++
		g.preds[predEnd[e.to]] = g.Nodes[e.from]
		predEnd[e.to]++
	}
	var succStart, predStart int32
	for i, nd := range g.Nodes {
		nd.Succs = span(g.succs, succStart, succEnd[i])
		nd.Preds = span(g.preds, predStart, predEnd[i])
		succStart, predStart = succEnd[i], predEnd[i]
	}
}

// span returns slab[lo:hi] capped at hi, or nil when it is empty.
func span(slab []*Node, lo, hi int32) []*Node {
	if lo == hi {
		return nil
	}
	return slab[lo:hi:hi]
}

// addRegisterEdges adds true (RAW), anti (WAR) and output (WAW) register
// dependences.
func (g *Graph) addRegisterEdges() {
	var top ir.Reg
	var buf [3]ir.Reg
	for _, n := range g.Nodes {
		for _, r := range n.Instr.Uses(buf[:0]) {
			top = max(top, r)
		}
		top = max(top, n.Instr.Def())
	}
	if int(top) >= len(g.regs) {
		g.regs = make([]regDeps, top+1)
	}
	regs := g.regs
	g.uses = g.uses[:0]
	for _, n := range g.Nodes {
		uses := n.Instr.Uses(buf[:0])
		for _, r := range uses {
			if d := regs[r].def; d != 0 {
				g.addEdge(g.Nodes[d-1], n) // RAW
			}
		}
		if d := n.Instr.Def(); d != ir.NoReg {
			rd := &regs[d]
			if rd.def != 0 {
				g.addEdge(g.Nodes[rd.def-1], n) // WAW
			}
			for u := rd.head; u != 0; u = g.uses[u-1].next {
				g.addEdge(g.Nodes[g.uses[u-1].node], n) // WAR
			}
			rd.def = int32(n.Index) + 1
			rd.head, rd.tail = 0, 0
		}
		for _, r := range uses {
			g.uses = append(g.uses, useLink{node: int32(n.Index)})
			l := int32(len(g.uses))
			rd := &regs[r]
			if rd.tail == 0 {
				rd.head = l
			} else {
				g.uses[rd.tail-1].next = l
			}
			rd.tail = l
		}
	}
	// Leave the table clear for the next region.
	for _, n := range g.Nodes {
		for _, r := range n.Instr.Uses(buf[:0]) {
			regs[r] = regDeps{}
		}
		regs[n.Instr.Def()] = regDeps{}
	}
}

// addMemoryEdges adds store→load, load→store and store→store dependences
// between references that the MemRef disambiguator cannot prove disjoint.
func (g *Graph) addMemoryEdges() {
	mems := g.nodes[:0]
	for _, n := range g.Nodes {
		if n.Instr.Op.IsMem() {
			mems = append(mems, n)
		}
	}
	g.nodes = mems
	var conflicts, disjoint int64
	for i, a := range mems {
		for _, b := range mems[i+1:] {
			if a.Instr.Op.IsLoad() && b.Instr.Op.IsLoad() {
				continue // loads commute
			}
			if a.Instr.Mem.Conflicts(b.Instr.Mem) {
				conflicts++
				g.addEdge(a, b)
			} else {
				disjoint++
			}
		}
	}
	if conflicts > 0 {
		g.stats.Add("dag/mem_conflicts", conflicts)
	}
	if disjoint > 0 {
		g.stats.Add("dag/mem_disjoint", disjoint)
	}
}

// addLocalityEdges orders predicted-miss loads before the predicted-hit
// loads of the same reuse group, so scheduling cannot float a hit above
// the miss that fetches its cache line (paper Section 4.2).
//
// A load belongs to one group, so scanning misses and then hits in node
// order gives each node's edges the same order a per-group walk would.
func (g *Graph) addLocalityEdges() {
	for _, miss := range g.Nodes {
		group := reuseGroup(miss.Instr)
		if group < 0 || miss.Instr.Hint != ir.HintMiss {
			continue
		}
		for _, hit := range g.Nodes[miss.Index+1:] {
			if hit.Instr.Hint == ir.HintHit && reuseGroup(hit.Instr) == group {
				g.stats.Inc("dag/locality_edges")
				g.addEdge(miss, hit)
			}
		}
	}
}

// reuseGroup returns a load's locality reuse group, or -1 when the
// instruction is not a grouped load.
func reuseGroup(in *ir.Instr) int {
	if !in.Op.IsLoad() || in.Mem == nil {
		return -1
	}
	return in.Mem.Group
}

// addControlEdges constrains motion across branches. In basic-block mode
// every instruction precedes the terminating branch. In trace mode:
// branches stay mutually ordered; stores never cross a branch in either
// direction (moving one down would require split compensation, moving one
// up is unsafe speculation — the Multiflow rules the paper describes);
// non-speculable instructions and instructions whose result is live on the
// branch's off-trace path may not move above the branch.
func (g *Graph) addControlEdges(opts Options) {
	branches := g.nodes[:0]
	for _, n := range g.Nodes {
		if n.Instr.Op.IsBranch() {
			branches = append(branches, n)
		}
	}
	g.nodes = branches
	if len(branches) == 0 {
		return
	}
	if !opts.Trace {
		br := branches[len(branches)-1]
		for _, n := range g.Nodes {
			if n != br {
				g.addEdge(n, br)
			}
		}
		return
	}

	// Keep branches in order.
	for i := 0; i+1 < len(branches); i++ {
		g.addEdge(branches[i], branches[i+1])
	}
	// The trace's final terminator is pinned last: anything scheduled
	// after it would never execute.
	if last := g.Nodes[len(g.Nodes)-1]; last.Instr.Op.IsBranch() {
		for _, n := range g.Nodes {
			if n != last {
				g.addEdge(n, last)
			}
		}
	}
	// Join barriers (see Options.Joins).
	for _, k := range opts.Joins {
		for _, br := range branches {
			if opts.HomeOf(br.Index) < k {
				continue
			}
			for _, n := range g.Nodes {
				if n != br && opts.HomeOf(n.Index) < k {
					g.addEdge(n, br)
				}
			}
		}
	}
	for _, br := range branches {
		for _, n := range g.Nodes {
			if n == br || n.Instr.Op.IsBranch() {
				continue
			}
			if n.Index < br.Index {
				// n originates above the branch. It must not sink below
				// the split when the off-trace path would miss its
				// effect: stores always (the off-trace path expects the
				// memory write), and definitions of registers live on
				// the off-trace path. Multiflow restricts this motion
				// rather than emitting split compensation.
				if n.Instr.Op.IsStore() {
					g.addEdge(n, br)
					continue
				}
				if d := n.Instr.Def(); d != ir.NoReg {
					if opts.LiveOutOffTrace == nil || opts.LiveOutOffTrace(br.Index, d) {
						g.addEdge(n, br)
					}
				}
			} else {
				// n originates below the branch: moving it above the
				// branch is speculation. Disallow for unsafe ops and
				// for definitions live on the off-trace path.
				if !n.Instr.Op.CanSpeculate() {
					g.addEdge(br, n)
					continue
				}
				if d := n.Instr.Def(); d != ir.NoReg {
					if opts.LiveOutOffTrace == nil || opts.LiveOutOffTrace(br.Index, d) {
						g.addEdge(br, n)
					}
				}
			}
		}
	}
}

// Loads returns the DAG's load nodes in original order.
func (g *Graph) Loads() []*Node {
	var ls []*Node
	for _, n := range g.Nodes {
		if n.Instr.Op.IsLoad() {
			ls = append(ls, n)
		}
	}
	return ls
}

// ComputePriorities fills Priority from Weight: priority = weight + max
// over successors of their priority (the longest weighted path to the
// region end). Weights must be set first.
func (g *Graph) ComputePriorities() {
	// Process in reverse topological order; node indices are a valid
	// topological order only for the original sequence, but edges may
	// only go from lower to higher index by construction, so reverse
	// index order works.
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		max := 0
		for _, s := range n.Succs {
			if s.Priority > max {
				max = s.Priority
			}
		}
		n.Priority = n.Weight + max
	}
}
