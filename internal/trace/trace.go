// Package trace implements trace scheduling (Fisher; Multiflow), the
// paper's second ILP optimization (Section 3.2). Profile-selected traces —
// linear paths of basic blocks that never cross loop back edges — are
// scheduled as single regions: instructions move across block boundaries,
// speculatively above splits when safe (never stores, never definitions
// live on the off-trace path), and above joins with compensation copies
// placed on the joining edges so off-trace entries still execute them
// (the paper's Figure 2 discussion).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/verify"
)

// MaxTraceInstrs bounds the instruction count of one trace. Unbounded
// traces over aggressively unrolled code stretch register live ranges
// across hundreds of instructions and drown the allocator in spill code;
// the Multiflow compiler similarly bounded its scheduling windows. The
// value is 1.5× the factor-8 unrolled-block budget.
const MaxTraceInstrs = 96

// Trace is an ordered list of block IDs forming one trace.
type Trace struct {
	// Blocks are the member block IDs in control-flow order.
	Blocks []int
}

// Report summarises a trace-scheduling run, for experiments and tests.
type Report struct {
	// Traces counts multi-block traces scheduled as regions.
	Traces int
	// CompCopies counts compensation instructions inserted on join edges.
	CompCopies int
	// Speculated counts instructions that moved above at least one split.
	Speculated int
}

// Form selects traces for fn guided by profiled edge counts, using the
// mutual-most-likely heuristic: traces are seeded at the most frequently
// executed unassigned block and grown forward and backward along the
// heaviest edges, stopping at already-assigned blocks and never extending
// across a loop back edge (loop heads can only start a trace). Every block
// appears in exactly one trace (possibly a singleton).
func Form(fn *ir.Func, edges profile.Edges) []Trace {
	nb := len(fn.Blocks)
	assigned := make([]bool, nb)

	// Predecessor edge counts for the mutual test.
	type pedge struct {
		pred  int
		count int64
	}
	preds := make([][]pedge, nb)
	for bi, b := range fn.Blocks {
		for si, s := range b.Succs {
			preds[s] = append(preds[s], pedge{pred: bi, count: edges.Count(bi, si)})
		}
	}
	bestPred := func(b int) int {
		best, bestCount := -1, int64(0)
		for _, pe := range preds[b] {
			if pe.count > bestCount {
				best, bestCount = pe.pred, pe.count
			}
		}
		return best
	}

	seeds := make([]int, nb)
	for i := range seeds {
		seeds[i] = i
	}
	sort.SliceStable(seeds, func(a, b int) bool {
		return fn.Blocks[seeds[a]].Freq > fn.Blocks[seeds[b]].Freq
	})

	var traces []Trace
	for _, seed := range seeds {
		if assigned[seed] {
			continue
		}
		assigned[seed] = true
		tr := []int{seed}
		size := len(fn.Blocks[seed].Instrs)
		// Grow forward along the heaviest mutual edges.
		for {
			tail := tr[len(tr)-1]
			si := edges.BestSucc(fn, tail)
			if si < 0 {
				break
			}
			s := fn.Blocks[tail].Succs[si]
			if assigned[s] || fn.Blocks[s].LoopHead || bestPred(s) != tail {
				break
			}
			if size+len(fn.Blocks[s].Instrs) > MaxTraceInstrs {
				break
			}
			if term := fn.Blocks[tail].Term(); term != nil && term.Op == ir.OpRet {
				break
			}
			assigned[s] = true
			tr = append(tr, s)
			size += len(fn.Blocks[s].Instrs)
		}
		// Grow backward.
		for {
			head := tr[0]
			if fn.Blocks[head].LoopHead {
				break // never extend a trace across a loop back edge
			}
			p := bestPred(head)
			if p < 0 || assigned[p] {
				break
			}
			if si := edges.BestSucc(fn, p); si < 0 || fn.Blocks[p].Succs[si] != head {
				break
			}
			if size+len(fn.Blocks[p].Instrs) > MaxTraceInstrs {
				break
			}
			assigned[p] = true
			tr = append([]int{p}, tr...)
			size += len(fn.Blocks[p].Instrs)
		}
		traces = append(traces, splitSideEntrances(fn, tr)...)
	}
	return traces
}

// splitSideEntrances breaks a trace wherever a member branches forward to
// a later, non-adjacent member (a side entrance within the trace, e.g.
// the guard chains of a postconditioned unroll remainder). The jump
// target becomes the head of its own trace, where re-entry needs no
// compensation; without the split, join bookkeeping would try to patch an
// edge leaving a block that scheduling absorbs.
func splitSideEntrances(fn *ir.Func, blocks []int) []Trace {
	var out []Trace
	work := [][]int{blocks}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		idx := make(map[int]int, len(cur))
		for i, b := range cur {
			idx[b] = i
		}
		splitAt := -1
		for i, b := range cur {
			for _, s := range fn.Blocks[b].Succs {
				if k, ok := idx[s]; ok && k != i+1 && k >= 1 {
					if splitAt < 0 || k < splitAt {
						splitAt = k
					}
				}
			}
		}
		if splitAt <= 0 {
			out = append(out, Trace{Blocks: cur})
			continue
		}
		out = append(out, Trace{Blocks: cur[:splitAt]})
		work = append(work, cur[splitAt:])
	}
	return out
}

// ScheduleAll forms traces from the profile, schedules every multi-block
// trace as one region with the given weight policy, and schedules the
// remaining singleton blocks individually. It rewrites fn in place.
// Every DAG built for a trace or singleton block records its counters
// (and the scheduler its selection profile) into st; a nil st is free.
// When check is set, every scheduling region's DAG is re-validated
// (acyclicity, dependence completeness) and every emitted schedule is
// proven a dependence- and latency-respecting permutation of its region
// before it replaces the original code.
func ScheduleAll(fn *ir.Func, edges profile.Edges, policy sched.Policy, st *obs.Stats, check bool) (*Report, error) {
	rep := &Report{}
	traces := Form(fn, edges)
	done := make(map[int]bool)
	for _, tr := range traces {
		if len(tr.Blocks) < 2 {
			continue
		}
		if err := scheduleTrace(fn, tr, policy, rep, st, check); err != nil {
			return rep, err
		}
		for _, b := range tr.Blocks {
			done[b] = true
		}
		rep.Traces++
	}
	// Singleton traces get ordinary basic-block scheduling. New blocks
	// appended by compensation or re-splitting are already scheduled.
	for _, tr := range traces {
		if len(tr.Blocks) == 1 && !done[tr.Blocks[0]] {
			if err := ScheduleBlock(fn, fn.Blocks[tr.Blocks[0]], policy, st, check); err != nil {
				return rep, err
			}
		}
	}
	return rep, fn.Validate()
}

// ScheduleBlock list-schedules a single basic block of fn in place with
// the given weight policy, recording DAG/scheduler counters into st (nil
// = off). When check is set, the block's DAG and schedule are verified;
// only verification can produce an error.
func ScheduleBlock(fn *ir.Func, b *ir.Block, policy sched.Policy, st *obs.Stats, check bool) error {
	if len(b.Instrs) < 2 {
		return nil
	}
	g := dag.Build(b.Instrs, dag.Options{Stats: st})
	defer g.Release()
	sched.AssignWeights(g, policy)
	order := sched.Schedule(g, fn.RegClass)
	if check {
		if err := verify.DAG(g, fn.Name); err != nil {
			return err
		}
		if err := verify.Schedule(g, order, fn.Name); err != nil {
			return err
		}
		st.Inc("verify/checks")
	}
	b.Instrs = order
	return nil
}

// scheduleTrace schedules one multi-block trace as a region, re-splits the
// result into blocks and inserts join compensation code.
func scheduleTrace(fn *ir.Func, tr Trace, policy sched.Policy, rep *Report, st *obs.Stats, check bool) error {
	n := len(tr.Blocks)
	inTrace := make(map[int]int, n) // block ID -> position in trace
	for k, b := range tr.Blocks {
		inTrace[b] = k
	}

	if err := normalizeBranches(fn, tr); err != nil {
		return err
	}

	// Record joins (trace positions k >= 1 with off-trace predecessors)
	// and their predecessor edges, before any rewriting.
	type joinEdge struct {
		pred    int // predecessor block ID
		succIdx int // index in pred.Succs
	}
	joinPreds := map[int][]joinEdge{}
	for bi, b := range fn.Blocks {
		for si, s := range b.Succs {
			k, isMember := inTrace[s]
			if !isMember || k == 0 {
				continue
			}
			if pi, ok := inTrace[bi]; ok && pi == k-1 {
				continue // the on-trace edge
			}
			joinPreds[k] = append(joinPreds[k], joinEdge{pred: bi, succIdx: si})
		}
	}
	var joins []int
	for k := range joinPreds {
		joins = append(joins, k)
	}
	sort.Ints(joins)

	// Concatenate the region, dropping interior unconditional branches
	// (pure on-trace fallthrough after normalization).
	var instrs []*ir.Instr
	var homes []int
	branchOffTrace := map[int]int{} // region index of branch -> off-trace block ID
	for k, bid := range tr.Blocks {
		blk := fn.Blocks[bid]
		for _, in := range blk.Instrs {
			if in.Op == ir.OpBr && k < n-1 {
				continue // interior fallthrough
			}
			if in.Op.IsCondBranch() && k < n-1 {
				branchOffTrace[len(instrs)] = in.Target
			}
			instrs = append(instrs, in)
			homes = append(homes, k)
		}
	}

	live := liveness.Compute(fn)
	opts := dag.Options{
		Trace:  true,
		Stats:  st,
		HomeOf: func(i int) int { return homes[i] },
		Joins:  joins,
		LiveOutOffTrace: func(branchIdx int, r ir.Reg) bool {
			off, ok := branchOffTrace[branchIdx]
			if !ok {
				return true // the trace's final terminator: be conservative
			}
			return live.LiveIn[off].Has(r)
		},
	}
	g := dag.Build(instrs, opts)
	defer g.Release()
	sched.AssignWeights(g, policy)
	order := sched.Schedule(g, fn.RegClass)
	if check {
		if err := verify.DAG(g, fn.Name); err != nil {
			return err
		}
		if err := verify.Schedule(g, order, fn.Name); err != nil {
			return err
		}
		st.Inc("verify/checks")
	}

	pos := make(map[*ir.Instr]int, len(order))
	for i, in := range order {
		pos[in] = i
	}
	homeByInstr := make(map[*ir.Instr]int, len(instrs))
	for i, in := range instrs {
		homeByInstr[in] = homes[i]
	}

	// Count speculated instructions: scheduled above a branch that
	// originally preceded them.
	for i, in := range instrs {
		if in.Op.IsBranch() {
			continue
		}
		for bIdx := range branchOffTrace {
			if bIdx < i && pos[in] < pos[instrs[bIdx]] {
				rep.Speculated++
				break
			}
		}
	}

	// Label positions: label k sits after the last instruction from
	// homes < k.
	labelPos := map[int]int{}
	for _, k := range joins {
		lp := 0
		for _, in := range order {
			if homeByInstr[in] < k && pos[in]+1 > lp {
				lp = pos[in] + 1
			}
		}
		labelPos[k] = lp
	}

	// Segment boundaries: labels plus positions after interior branches.
	// When two joins share a label position (or a label lands at the very
	// start), only one block can own the segment; the others become
	// forwarding stubs patched in below.
	boundarySet := map[int]bool{}
	labelAt := map[int]int{} // boundary position -> owning join k
	for _, k := range joins {
		boundarySet[labelPos[k]] = true
		if _, taken := labelAt[labelPos[k]]; !taken {
			labelAt[labelPos[k]] = k
		}
	}
	for bIdx := range branchOffTrace {
		boundarySet[pos[instrs[bIdx]]+1] = true
	}
	var bounds []int
	for p := range boundarySet {
		if p > 0 && p < len(order) {
			bounds = append(bounds, p)
		}
	}
	sort.Ints(bounds)

	// Build the replacement blocks.
	lastSuccs := append([]int(nil), fn.Blocks[tr.Blocks[n-1]].Succs...)
	wasLoopHead := fn.Blocks[tr.Blocks[0]].LoopHead
	segStart := 0
	var segBlocks []*ir.Block
	segByStart := map[int]*ir.Block{}
	for _, bnd := range append(bounds, len(order)) {
		seg := order[segStart:bnd]
		var blk *ir.Block
		if segStart == 0 {
			blk = fn.Blocks[tr.Blocks[0]]
		} else if k, isLabel := labelAt[segStart]; isLabel {
			blk = fn.Blocks[tr.Blocks[k]]
		} else {
			blk = fn.NewBlock()
		}
		blk.Instrs = append([]*ir.Instr(nil), seg...)
		blk.LoopHead = segStart == 0 && wasLoopHead
		for _, in := range blk.Instrs {
			in.Home = blk.ID
		}
		segBlocks = append(segBlocks, blk)
		segByStart[segStart] = blk
		segStart = bnd
	}
	// Wire segment successors.
	for i, blk := range segBlocks {
		next := -1
		if i+1 < len(segBlocks) {
			next = segBlocks[i+1].ID
		}
		switch t := blk.Term(); {
		case t == nil:
			if next < 0 {
				blk.Succs = lastSuccs
			} else {
				blk.Succs = []int{next}
			}
		case t.Op == ir.OpRet:
			blk.Succs = nil
		case t.Op == ir.OpBr:
			blk.Succs = []int{t.Target}
		default: // conditional branch
			if next < 0 {
				// Final segment. Normally the trace's own terminator: its
				// original successors apply. When the trace ended in an
				// empty fallthrough block, an interior branch can be the
				// region's last instruction — then the not-taken path
				// continues wherever the empty tail fell through to.
				cont := lastSuccs[len(lastSuccs)-1]
				blk.Succs = []int{t.Target, cont}
			} else {
				blk.Succs = []int{t.Target, next}
			}
		}
	}

	// Replace absorbed trace blocks with stubs. A join block whose label
	// segment is owned by another block (shared label position, or a
	// label at the region start) becomes a forwarding stub so external
	// jumps to its ID still reach the right code; other absorbed blocks
	// become unreachable return stubs.
	reused := map[int]bool{}
	for _, blk := range segBlocks {
		reused[blk.ID] = true
	}
	forward := map[int]int{} // block ID -> forwarding destination
	for _, k := range joins {
		owner := segByStart[labelPos[k]]
		if owner == nil && labelPos[k] == 0 {
			owner = segBlocks[0]
		}
		if owner != nil && owner.ID != tr.Blocks[k] {
			forward[tr.Blocks[k]] = owner.ID
		}
	}
	for _, bid := range tr.Blocks {
		if reused[bid] {
			continue
		}
		blk := fn.Blocks[bid]
		blk.LoopHead = false
		if dst, ok := forward[bid]; ok {
			blk.Instrs = []*ir.Instr{{Op: ir.OpBr, Target: dst}}
			blk.Succs = []int{dst}
		} else {
			blk.Instrs = []*ir.Instr{{Op: ir.OpRet}}
			blk.Succs = nil
		}
	}

	// Join compensation: instructions originating at or below join k but
	// scheduled above its label are copied onto each joining edge.
	for _, k := range joins {
		var comp []*ir.Instr
		for _, in := range order[:labelPos[k]] {
			if homeByInstr[in] >= k && !in.Op.IsBranch() {
				comp = append(comp, in)
			}
		}
		if len(comp) == 0 {
			continue
		}
		target := tr.Blocks[k]
		for _, je := range joinPreds[k] {
			cb := fn.NewBlock()
			for _, in := range comp {
				c := in.Clone()
				c.Home = cb.ID
				cb.Instrs = append(cb.Instrs, c)
				rep.CompCopies++
			}
			cb.Instrs = append(cb.Instrs, &ir.Instr{Op: ir.OpBr, Target: target})
			cb.Succs = []int{target}
			// Redirect the joining edge through the compensation block.
			pred := fn.Blocks[je.pred]
			pred.Succs[je.succIdx] = cb.ID
			if t := pred.Term(); t != nil && t.Op != ir.OpRet && je.succIdx == 0 {
				t.Target = cb.ID
			}
		}
	}
	return nil
}

func indexOf(instrs []*ir.Instr, in *ir.Instr) int {
	for i, x := range instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// normalizeBranches rewrites interior trace blocks so the on-trace
// successor is always the fall-through: conditional branches whose taken
// edge continues the trace are inverted, and degenerate conditionals with
// both edges on trace become plain fallthroughs.
func normalizeBranches(fn *ir.Func, tr Trace) error {
	for k := 0; k+1 < len(tr.Blocks); k++ {
		blk := fn.Blocks[tr.Blocks[k]]
		next := tr.Blocks[k+1]
		t := blk.Term()
		switch {
		case t == nil:
			if len(blk.Succs) != 1 || blk.Succs[0] != next {
				return fmt.Errorf("trace: block %d does not fall through to %d", blk.ID, next)
			}
		case t.Op == ir.OpBr:
			if t.Target != next {
				return fmt.Errorf("trace: block %d branches off trace", blk.ID)
			}
			// Leave the Br in place; concatenation drops it.
		case t.Op.IsCondBranch():
			if blk.Succs[0] == next && blk.Succs[1] == next {
				blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
				blk.Succs = []int{next}
				continue
			}
			if blk.Succs[1] == next {
				continue // already fallthrough on trace
			}
			if blk.Succs[0] != next {
				return fmt.Errorf("trace: block %d has no edge to next trace block %d", blk.ID, next)
			}
			t.Op = invertBranch(t.Op)
			t.Target = blk.Succs[1]
			blk.Succs = []int{blk.Succs[1], next}
		default:
			return fmt.Errorf("trace: interior block %d ends the function", blk.ID)
		}
	}
	return nil
}

func invertBranch(op ir.Op) ir.Op {
	switch op {
	case ir.OpBeq:
		return ir.OpBne
	case ir.OpBne:
		return ir.OpBeq
	case ir.OpBlt:
		return ir.OpBge
	case ir.OpBge:
		return ir.OpBlt
	case ir.OpBle:
		return ir.OpBgt
	case ir.OpBgt:
		return ir.OpBle
	}
	return op
}
