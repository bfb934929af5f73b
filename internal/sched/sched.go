// Package sched implements the paper's two instruction schedulers on top of
// the code DAG: traditional list scheduling, which weights every load with
// the optimistic architectural (cache-hit) latency, and balanced scheduling
// (Kerns & Eggers, PLDI 1993), which weights each load by the load-level
// parallelism the code itself can provide. Both share one top-down list
// scheduler with the paper's selection heuristics (Section 4.2): priority =
// weight + max successor priority, ties broken by register pressure, then
// by exposed successors, then by original instruction order.
package sched

import (
	"repro/internal/dag"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
)

// Policy selects a load-weight algorithm.
type Policy uint8

const (
	// Traditional weights every load with the optimistic L1-hit latency.
	Traditional Policy = iota
	// Balanced weights each load by the Kerns–Eggers load-level
	// parallelism estimate.
	Balanced
	// BalancedFixed extends balanced scheduling per the paper's future
	// work ("incorporating multi-cycle instructions with fixed latencies
	// into the balanced scheduling algorithm"): multi-cycle fixed-latency
	// operations also compete for the independent instructions, so load
	// weights shrink in blocks where divide/multiply chains need the
	// same cover.
	BalancedFixed
	// Auto chooses between Traditional and Balanced per basic block — the
	// paper's other proposed remedy ("heuristics to statically choose
	// between the two schedulers on a basic block basis"): blocks whose
	// fixed-latency stall potential dominates their load-stall potential
	// schedule traditionally.
	Auto
)

func (p Policy) String() string {
	switch p {
	case Balanced:
		return "balanced"
	case BalancedFixed:
		return "balanced-fixed"
	case Auto:
		return "auto"
	default:
		return "traditional"
	}
}

// AssignWeights sets every node's Weight according to the policy. Non-load
// instructions always get their fixed architectural latency. Loads that
// locality analysis predicts to be cache hits keep the optimistic latency
// under either policy (their latency estimate is known correct); remaining
// loads get either the optimistic latency (Traditional) or the balanced
// estimate (Balanced).
func AssignWeights(g *dag.Graph, p Policy) {
	for _, n := range g.Nodes {
		n.Weight = machine.Latency(n.Instr.Op)
	}
	balanced := false
	switch p {
	case Balanced:
		balanced = true
		balanceLoads(g, false)
	case BalancedFixed:
		balanced = true
		balanceLoads(g, true)
	case Auto:
		if preferBalanced(g) {
			balanced = true
			balanceLoads(g, false)
			g.Stats().Inc("sched/auto_balanced_regions")
		} else {
			g.Stats().Inc("sched/auto_traditional_regions")
		}
	}
	if st := g.Stats(); st != nil && balanced {
		// The balanced-weight distribution: what the Kerns-Eggers
		// computation actually assigned to the loads it balanced.
		for _, l := range g.Loads() {
			if l.Instr.Hint != ir.HintHit {
				st.Observe("sched/load_weight", int64(l.Weight))
			}
		}
	}
	g.ComputePriorities()
}

// longFixed reports whether the instruction is a multi-cycle fixed-latency
// operation (FP arithmetic, integer multiply, divides) — the instructions
// whose shadows compete with load shadows for independent work.
func longFixed(op ir.Op) bool {
	return !op.IsLoad() && !op.IsBranch() && machine.Latency(op) >= 4
}

// preferBalanced is the Auto policy's per-block heuristic: use balanced
// weights when the block's load-stall potential (balanced-schedulable
// loads times the L2 latency they might pay) outweighs the fixed-latency
// stall potential (the summed exposed latency of multi-cycle operations).
func preferBalanced(g *dag.Graph) bool {
	loads, fixed := 0, 0
	for _, n := range g.Nodes {
		switch {
		case n.Instr.Op.IsLoad() && n.Instr.Hint != ir.HintHit:
			loads++
		case longFixed(n.Instr.Op):
			fixed += machine.Latency(n.Instr.Op) - 1
		}
	}
	// A missing load costs roughly an L2 access (9 cycles) beyond the
	// optimistic estimate.
	return loads*(9-machine.LatLoadHit) >= fixed
}

// PressureLimit is the per-bank live-register count at which the
// scheduler stops issuing pressure-increasing instructions when it has an
// alternative. The machine has 25 allocatable registers per bank (see
// internal/regalloc); the margin below that absorbs values that are live
// across the scheduling region's boundaries. This is the stronger form of
// the paper's register-pressure heuristics ("as another aid in controlling
// register pressure", Section 4.2): without it, balanced scheduling's
// front-loaded loads in large unrolled blocks overwhelm the register file
// and the resulting spill code erases the gains.
const PressureLimit = 20

// Schedule orders the region's instructions with the top-down list
// scheduler and returns them in issue order. AssignWeights must have been
// called on g. regClass gives each register's bank (pass ir.Func.RegClass)
// for pressure tracking; nil disables pressure control.
//
// The scheduler tracks a virtual issue cycle: an instruction becomes ready
// only when every predecessor's result is available (predecessor issue
// cycle + weight). This is what lets load weights shape the schedule — a
// heavily weighted load keeps its consumers out of the ready list while
// independent instructions fill the latency shadow behind it.
func Schedule(g *dag.Graph, regClass []ir.RegClass) []*ir.Instr {
	// Schedule has no error return, so an injected fault escalates to a
	// panic — which doubles as exercise for the engine's recover path.
	if err := faultinject.Hit("sched/schedule", ""); err != nil {
		panic(err)
	}
	n := len(g.Nodes)
	order := make([]*ir.Instr, 0, n)
	unscheduledPreds := make([]int, n)
	readyAt := make([]int64, n)      // cycle when all operands are available
	avail := make([]*dag.Node, 0, n) // predecessors all scheduled
	for _, nd := range g.Nodes {
		unscheduledPreds[nd.Index] = len(nd.Preds)
		if len(nd.Preds) == 0 {
			avail = append(avail, nd)
		}
	}
	press := newPressure(g, regClass)
	st := g.Stats()
	// Selection counters are tallied per region and added to st once:
	// a registry update per comparison takes a lock and a map write.
	var picks [len(pickCounters)]int64
	var overrides int64
	var cycle int64
	for len(order) < n {
		st.Observe("sched/ready_len", int64(len(avail)))
		// Pick the best data-ready instruction, in two tiers when a bank
		// is under pressure: instructions that do not grow the pressured
		// bank first.
		var best, bestEasy *dag.Node
		for _, cand := range avail {
			if readyAt[cand.Index] > cycle {
				continue
			}
			if best == nil || better(cand, best, unscheduledPreds, &picks) {
				best = cand
			}
			if !press.grows(cand) {
				if bestEasy == nil || better(cand, bestEasy, unscheduledPreds, nil) {
					bestEasy = cand
				}
			}
		}
		if press.high() && bestEasy != nil {
			if best != bestEasy {
				overrides++
			}
			best = bestEasy
		}
		if best == nil {
			// Nothing is data-ready: advance to the earliest readiness.
			next := int64(-1)
			for _, cand := range avail {
				if next < 0 || readyAt[cand.Index] < next {
					next = readyAt[cand.Index]
				}
			}
			cycle = next
			continue
		}
		if press.high() && bestEasy == nil {
			// Every data-ready candidate grows a pressured bank. If a
			// non-growing instruction merely awaits its operands, stall
			// for it instead of inflating pressure further.
			next := int64(-1)
			for _, cand := range avail {
				if readyAt[cand.Index] > cycle && !press.grows(cand) {
					if next < 0 || readyAt[cand.Index] < next {
						next = readyAt[cand.Index]
					}
				}
			}
			if next > cycle {
				cycle = next
				continue
			}
		}
		for i, r := range avail {
			if r == best {
				avail[i] = avail[len(avail)-1]
				avail = avail[:len(avail)-1]
				break
			}
		}
		order = append(order, best.Instr)
		press.issue(best)
		done := cycle + int64(best.Weight)
		for _, s := range best.Succs {
			if done > readyAt[s.Index] {
				readyAt[s.Index] = done
			}
			unscheduledPreds[s.Index]--
			if unscheduledPreds[s.Index] == 0 {
				avail = append(avail, s)
			}
		}
		cycle++
	}
	for tier, c := range picks {
		if c > 0 {
			st.Add(pickCounters[tier], c)
		}
	}
	if overrides > 0 {
		st.Add("sched/pressure_overrides", overrides)
	}
	return order
}

// pressure estimates live register counts per bank during scheduling.
type pressure struct {
	regClass []ir.RegClass
	regs     []regLife // indexed by register; covers every register of the region
	count    [2]int
}

// regLife is the pressure tracker's view of one register.
type regLife struct {
	lastUse int32 // node index of the final use within the region
	liveNow bool
	defined bool // defined by an instruction already seen (construction only)
}

func newPressure(g *dag.Graph, regClass []ir.RegClass) *pressure {
	p := &pressure{regClass: regClass}
	if regClass == nil {
		return p
	}
	var top ir.Reg
	var buf [3]ir.Reg
	for _, nd := range g.Nodes {
		for _, r := range nd.Instr.Uses(buf[:0]) {
			top = max(top, r)
		}
		top = max(top, nd.Instr.Def())
	}
	p.regs = make([]regLife, top+1)
	for _, nd := range g.Nodes {
		for _, r := range nd.Instr.Uses(buf[:0]) {
			rl := &p.regs[r]
			rl.lastUse = int32(nd.Index)
			if !rl.defined && !rl.liveNow {
				// Live into the region: occupies a register from the start.
				rl.liveNow = true
				p.count[p.cls(r)]++
			}
		}
		if d := nd.Instr.Def(); d != ir.NoReg {
			p.regs[d].defined = true
		}
	}
	return p
}

func (p *pressure) cls(r ir.Reg) int {
	if int(r) < len(p.regClass) && p.regClass[r] == ir.RegFP {
		return 1
	}
	return 0
}

// high reports whether either bank is at the limit.
func (p *pressure) high() bool {
	return p.regClass != nil && (p.count[0] >= PressureLimit || p.count[1] >= PressureLimit)
}

// grows reports whether issuing n would raise a pressured bank's count.
func (p *pressure) grows(n *dag.Node) bool {
	if p.regClass == nil {
		return false
	}
	var delta [2]int
	var buf [3]ir.Reg
	for _, r := range n.Instr.Uses(buf[:0]) {
		if p.dies(r, n) {
			delta[p.cls(r)]--
		}
	}
	if d := n.Instr.Def(); d != ir.NoReg && p.born(d, n) {
		delta[p.cls(d)]++
	}
	for c := 0; c < 2; c++ {
		if p.count[c] >= PressureLimit && delta[c] > 0 {
			return true
		}
	}
	return false
}

// issue updates liveness estimates for a scheduled node.
func (p *pressure) issue(n *dag.Node) {
	if p.regClass == nil {
		return
	}
	var buf [3]ir.Reg
	for _, r := range n.Instr.Uses(buf[:0]) {
		if p.dies(r, n) {
			p.regs[r].liveNow = false
			p.count[p.cls(r)]--
		}
	}
	if d := n.Instr.Def(); d != ir.NoReg && p.born(d, n) {
		p.regs[d].liveNow = true
		p.count[p.cls(d)]++
	}
}

// dies reports whether n is the final use of the live register r.
func (p *pressure) dies(r ir.Reg, n *dag.Node) bool {
	rl := p.regs[r]
	return rl.liveNow && int(rl.lastUse) == n.Index
}

// born reports whether n's definition of d starts a live range: d is not
// live yet and a later instruction of the region uses it.
func (p *pressure) born(d ir.Reg, n *dag.Node) bool {
	rl := p.regs[d]
	return !rl.liveNow && int(rl.lastUse) > n.Index
}

// pickCounters names better's selection tiers, in the order it consults
// them.
var pickCounters = [...]string{"sched/pick_by_priority", "sched/pick_by_pressure", "sched/pick_by_exposes", "sched/pick_by_seq"}

// better reports whether a should be selected over b. picks, when
// non-nil, counts which selection tier decided each comparison — the
// tie-breaker usage profile of the heuristic stack (only primary
// selection comparisons are counted; the pressure tier's duplicates are
// not).
func better(a, b *dag.Node, unscheduledPreds []int, picks *[len(pickCounters)]int64) bool {
	// Primary: highest priority (critical path).
	if a.Priority != b.Priority {
		tally(picks, 0)
		return a.Priority > b.Priority
	}
	// Tie-break 1: control register pressure — prefer the instruction
	// with the largest (consumed − defined) register count.
	if pa, pb := pressureDelta(a.Instr), pressureDelta(b.Instr); pa != pb {
		tally(picks, 1)
		return pa > pb
	}
	// Tie-break 2: expose the most successors (successors whose only
	// remaining unscheduled predecessor is this node).
	if ea, eb := exposes(a, unscheduledPreds), exposes(b, unscheduledPreds); ea != eb {
		tally(picks, 2)
		return ea > eb
	}
	// Tie-break 3: original program order.
	tally(picks, 3)
	return a.Instr.Seq < b.Instr.Seq
}

// tally adds one decision of the given tier to picks (nil: not counted).
func tally(picks *[len(pickCounters)]int64, tier int) {
	if picks != nil {
		picks[tier]++
	}
}

// pressureDelta returns consumed-minus-defined register count: scheduling
// an instruction that consumes more registers than it defines reduces
// pressure.
func pressureDelta(in *ir.Instr) int {
	var buf [3]ir.Reg
	c := len(in.Uses(buf[:0]))
	if in.Def() != ir.NoReg {
		c--
	}
	return c
}

// exposes counts successors that become ready once n is scheduled.
func exposes(n *dag.Node, unscheduledPreds []int) int {
	c := 0
	for _, s := range n.Succs {
		if unscheduledPreds[s.Index] == 1 {
			c++
		}
	}
	return c
}

// balanceLoads implements the Kerns–Eggers balanced-scheduling weight
// computation. Every load starts at weight 1. Each instruction i then
// distributes one unit of latency-hiding ability over the loads it could
// run behind: the loads neither above nor below i in the DAG. Within that
// candidate set, loads connected by dependence paths must share i (loads
// in series cannot all overlap the same instruction), so each connected
// component C adds 1/k to each of its loads, where k is the maximum number
// of loads on any dependence chain inside C. Parallel loads (singleton
// components or parallel chains) each receive the full contribution —
// exactly the paper's Figure 1 intuition. Weights are capped at the
// maximum memory latency, 50 cycles (Section 4.2).
//
// Loads annotated by locality analysis as cache hits are excluded: they
// keep the optimistic weight, freeing other instructions' contributions
// for the loads that will miss (Section 3.3).
//
// Connectivity between two loads that are both independent of i is
// computed on the full DAG rather than the DAG minus i's ancestors and
// descendants: any dependence path between two such loads can never pass
// through an ancestor or descendant of i (it would make one of the loads
// dependent on i), so the two notions coincide — and full-graph
// reachability can be precomputed once with bitsets.
func balanceLoads(g *dag.Graph, includeFixed bool) {
	n := len(g.Nodes)
	words := (n + 63) / 64
	// reach[i*words:][:words] = forward reachability bitset from node i
	// (including i). Node indices are topologically ordered (edges go
	// forward), so a reverse sweep completes each set before it is
	// consumed.
	reach := make([]uint64, n*words)
	for i := n - 1; i >= 0; i-- {
		r := reach[i*words : (i+1)*words]
		r[i/64] |= 1 << (uint(i) % 64)
		for _, s := range g.Nodes[i].Succs {
			sr := reach[s.Index*words : (s.Index+1)*words]
			for w := range r {
				r[w] |= sr[w]
			}
		}
	}
	forward := func(a, b int) bool { // a reaches b
		return reach[a*words+b/64]&(1<<(uint(b)%64)) != 0
	}
	path := func(a, b int) bool { // a reaches b or b reaches a
		return forward(a, b) || forward(b, a)
	}

	// Candidate loads for balancing: not predicted hits. Under the
	// BalancedFixed extension, multi-cycle fixed-latency operations join
	// the needy set: they dilute the cover shares (and so the load
	// weights) but keep their own architectural weights. weightIdx maps
	// a node to its candidate position, -1 for non-candidates.
	var cand []*dag.Node
	weightIdx := make([]int32, n)
	for _, nd := range g.Nodes {
		weightIdx[nd.Index] = -1
		if nd.Instr.Op.IsLoad() && nd.Instr.Hint != ir.HintHit {
			weightIdx[nd.Index] = int32(len(cand))
			cand = append(cand, nd)
		}
	}
	nLoads := len(cand)
	if nLoads == 0 {
		return
	}
	if includeFixed {
		for _, nd := range g.Nodes {
			if longFixed(nd.Instr.Op) {
				weightIdx[nd.Index] = int32(len(cand))
				cand = append(cand, nd)
			}
		}
	}
	weights := make([]float64, len(cand))
	for i := range weights {
		weights[i] = 1
	}
	isNeedyOnly := func(pos int) bool { return pos >= nLoads }

	// Buffers reused for every node, indexed by avail position.
	avail := make([]*dag.Node, 0, len(cand))
	comp := make([]int, len(cand))     // union-find parent
	chain := make([]int, len(cand))    // longest load chain ending here
	maxChain := make([]int, len(cand)) // longest chain per component root
	for _, i := range g.Nodes {
		if i.Instr.Op.IsBranch() {
			continue // branches do not hide load latency
		}
		if weightIdx[i.Index] >= 0 {
			continue // balanced loads don't cover each other
		}
		avail = avail[:0]
		for _, l := range cand {
			if !forward(i.Index, l.Index) && !forward(l.Index, i.Index) {
				avail = append(avail, l)
			}
		}
		if len(avail) == 0 {
			continue
		}
		// Connected components over the path relation (union-find on the
		// small avail slice).
		for k := range avail {
			comp[k] = k
		}
		for a := 0; a < len(avail); a++ {
			for b := a + 1; b < len(avail); b++ {
				if path(avail[a].Index, avail[b].Index) {
					comp[find(comp, a)] = find(comp, b)
				}
			}
		}
		// Longest chain of loads (in component) along dependence paths:
		// DP over index order, since reachability only runs forward.
		clear(maxChain[:len(avail)])
		for a := 0; a < len(avail); a++ {
			chain[a] = 1
			for b := 0; b < a; b++ {
				if forward(avail[b].Index, avail[a].Index) && chain[b]+1 > chain[a] {
					chain[a] = chain[b] + 1
				}
			}
			root := find(comp, a)
			if chain[a] > maxChain[root] {
				maxChain[root] = chain[a]
			}
		}
		for a := 0; a < len(avail); a++ {
			weights[weightIdx[avail[a].Index]] += 1 / float64(maxChain[find(comp, a)])
		}
	}

	for i, l := range cand {
		if isNeedyOnly(i) {
			continue // fixed-latency ops keep their architectural weight
		}
		w := int(weights[i] + 0.5)
		if w < 1 {
			w = 1
		}
		if w > machine.MaxLoadLatency {
			w = machine.MaxLoadLatency
		}
		l.Weight = w
	}
}

// find returns x's union-find root in comp, halving the path on the way.
func find(comp []int, x int) int {
	for comp[x] != x {
		comp[x] = comp[comp[x]]
		x = comp[x]
	}
	return x
}
