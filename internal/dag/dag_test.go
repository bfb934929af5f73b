package dag

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

func ins(op ir.Op, dst ir.Reg, srcs ...ir.Reg) *ir.Instr {
	in := &ir.Instr{Op: op, Dst: dst}
	copy(in.Src[:], srcs)
	return in
}

func TestRegisterDependences(t *testing.T) {
	// r1 = movi; r2 = add r1; r1 = movi (WAW with #0, WAR with #1); st r2
	instrs := []*ir.Instr{
		ins(ir.OpMovi, 1),
		ins(ir.OpAdd, 2, 1, 1),
		ins(ir.OpMovi, 1),
		ins(ir.OpSt, ir.NoReg, 2, 3),
	}
	instrs[3].Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	g := Build(instrs, Options{})
	if !g.HasEdge(g.Nodes[0], g.Nodes[1]) {
		t.Error("missing RAW edge movi→add")
	}
	if !g.HasEdge(g.Nodes[0], g.Nodes[2]) {
		t.Error("missing WAW edge movi→movi")
	}
	if !g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("missing WAR edge add→movi")
	}
	if !g.HasEdge(g.Nodes[1], g.Nodes[3]) {
		t.Error("missing RAW edge add→st")
	}
	if g.HasEdge(g.Nodes[2], g.Nodes[3]) {
		t.Error("spurious edge movi→st")
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	refA0 := &ir.MemRef{Array: 0, Base: 0, Disp: 0, Width: 8}
	refA8 := &ir.MemRef{Array: 0, Base: 0, Disp: 8, Width: 8}
	refB0 := &ir.MemRef{Array: 1, Base: 0, Disp: 0, Width: 8}
	refUnk := &ir.MemRef{Array: 0, Base: -1, Width: 8}

	ld := func(dst ir.Reg, m *ir.MemRef) *ir.Instr {
		i := ins(ir.OpLdF, dst, 10)
		i.Mem = m
		return i
	}
	st := func(src ir.Reg, m *ir.MemRef) *ir.Instr {
		i := ins(ir.OpStF, ir.NoReg, src, 10)
		i.Mem = m
		return i
	}

	instrs := []*ir.Instr{
		st(20, refA0),  // 0: store A[0]
		ld(21, refA0),  // 1: load A[0]   — depends on 0
		ld(22, refA8),  // 2: load A[8]   — disjoint from 0
		st(23, refB0),  // 3: store B[0]  — disjoint from all A refs
		ld(24, refUnk), // 4: unknown-base load of A — conflicts with stores to A
	}
	g := Build(instrs, Options{})
	if !g.HasEdge(g.Nodes[0], g.Nodes[1]) {
		t.Error("store A[0] → load A[0] edge missing")
	}
	if g.HasEdge(g.Nodes[0], g.Nodes[2]) {
		t.Error("store A[0] → load A[8] should be disambiguated away")
	}
	if g.HasEdge(g.Nodes[0], g.Nodes[3]) || g.HasEdge(g.Nodes[1], g.Nodes[3]) {
		t.Error("different arrays must not conflict")
	}
	if !g.HasEdge(g.Nodes[0], g.Nodes[4]) {
		t.Error("unknown-base load must depend on store to same array")
	}
	if g.HasEdge(g.Nodes[3], g.Nodes[4]) {
		// An unknown base still names a specific array; B is a different
		// array, so the store to B cannot conflict with the load of A.
		t.Error("unknown-base load of A conflicting with store to B")
	}
}

func TestLoadsCommute(t *testing.T) {
	ref := &ir.MemRef{Array: 0, Base: 0, Disp: 0, Width: 8}
	l1 := ins(ir.OpLdF, 1, 10)
	l1.Mem = ref
	l2 := ins(ir.OpLdF, 2, 10)
	l2.Mem = ref
	g := Build([]*ir.Instr{l1, l2}, Options{})
	if g.HasEdge(g.Nodes[0], g.Nodes[1]) {
		t.Error("two loads of the same location must not be ordered")
	}
}

func TestLocalityGroupEdges(t *testing.T) {
	mk := func(hint ir.CacheHint, disp int64) *ir.Instr {
		i := ins(ir.OpLdF, ir.Reg(1+disp/8), 10)
		i.Mem = &ir.MemRef{Array: 0, Base: 0, Disp: disp, Width: 8, Group: 7}
		i.Hint = hint
		return i
	}
	instrs := []*ir.Instr{
		mk(ir.HintMiss, 0),
		mk(ir.HintHit, 8),
		mk(ir.HintHit, 16),
	}
	g := Build(instrs, Options{})
	if !g.HasEdge(g.Nodes[0], g.Nodes[1]) || !g.HasEdge(g.Nodes[0], g.Nodes[2]) {
		t.Error("miss→hit ordering arcs missing for reuse group")
	}
	if g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("hit loads of a group must not be mutually ordered")
	}
}

func TestBlockModePinsBranchLast(t *testing.T) {
	instrs := []*ir.Instr{
		ins(ir.OpMovi, 1),
		ins(ir.OpMovi, 2),
		ins(ir.OpBne, ir.NoReg, 1),
	}
	g := Build(instrs, Options{})
	if !g.HasEdge(g.Nodes[0], g.Nodes[2]) || !g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("all instructions must precede the block terminator")
	}
}

func TestTraceModeRules(t *testing.T) {
	st := ins(ir.OpStF, ir.NoReg, 5, 6)
	st.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	liveAbove := ins(ir.OpFAdd, 10, 8, 8) // def live off trace, above split
	deadAbove := ins(ir.OpFAdd, 11, 8, 8) // def dead off trace, above split
	st2 := ins(ir.OpStF, ir.NoReg, 5, 6)
	st2.Mem = &ir.MemRef{Array: 1, Base: 0, Width: 8}
	live := ins(ir.OpFAdd, 7, 8, 8)
	dead := ins(ir.OpFAdd, 9, 8, 8)
	br := ins(ir.OpBne, ir.NoReg, 1)
	br2 := ins(ir.OpBne, ir.NoReg, 2)
	instrs := []*ir.Instr{st, liveAbove, deadAbove, br, live, dead, st2, br2}
	g := Build(instrs, Options{
		Trace: true,
		LiveOutOffTrace: func(branchIdx int, r ir.Reg) bool {
			return r == 7 || r == 10 // the two "live" defs
		},
	})
	brN := g.Nodes[3]
	if !g.HasEdge(g.Nodes[0], brN) {
		t.Error("store must not sink below a split")
	}
	if !g.HasEdge(g.Nodes[1], brN) {
		t.Error("live-off-trace def must not sink below the split")
	}
	if g.HasEdge(g.Nodes[2], brN) {
		t.Error("dead-off-trace def above the split needlessly pinned")
	}
	if !g.HasEdge(brN, g.Nodes[4]) {
		t.Error("live-off-trace def must not move above the split")
	}
	if g.HasEdge(brN, g.Nodes[5]) {
		t.Error("dead-off-trace def should be free to speculate upward")
	}
	if !g.HasEdge(brN, g.Nodes[6]) {
		t.Error("store must not speculate above a split")
	}
	if !g.HasEdge(brN, g.Nodes[7]) {
		t.Error("branches must stay ordered")
	}
}

func TestEdgesAreForwardOnly(t *testing.T) {
	// Property: Build never creates an edge from a later to an earlier
	// index, for random instruction mixes. This underpins the reverse
	// topological pass in ComputePriorities.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		instrs := make([]*ir.Instr, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				instrs = append(instrs, ins(ir.OpMovi, ir.Reg(1+rng.Intn(4))))
			case 1:
				instrs = append(instrs, ins(ir.OpAdd, ir.Reg(1+rng.Intn(4)), ir.Reg(1+rng.Intn(4)), ir.Reg(1+rng.Intn(4))))
			case 2:
				l := ins(ir.OpLd, ir.Reg(1+rng.Intn(4)), ir.Reg(1+rng.Intn(4)))
				l.Mem = &ir.MemRef{Array: rng.Intn(2), Base: 0, Disp: int64(rng.Intn(3)) * 8, Width: 8}
				instrs = append(instrs, l)
			default:
				s := ins(ir.OpSt, ir.NoReg, ir.Reg(1+rng.Intn(4)), ir.Reg(1+rng.Intn(4)))
				s.Mem = &ir.MemRef{Array: rng.Intn(2), Base: 0, Disp: int64(rng.Intn(3)) * 8, Width: 8}
				instrs = append(instrs, s)
			}
		}
		g := Build(instrs, Options{})
		for _, nd := range g.Nodes {
			for _, s := range nd.Succs {
				if s.Index <= nd.Index {
					t.Fatalf("trial %d: backward edge %d→%d", trial, nd.Index, s.Index)
				}
			}
		}
	}
}

func TestComputePriorities(t *testing.T) {
	instrs := []*ir.Instr{
		ins(ir.OpMovi, 1),      // feeds chain
		ins(ir.OpAdd, 2, 1, 1), // middle
		ins(ir.OpAdd, 3, 2, 2), // end of chain
		ins(ir.OpMovi, 4),      // independent
	}
	g := Build(instrs, Options{})
	for _, n := range g.Nodes {
		n.Weight = 1
	}
	g.ComputePriorities()
	if g.Nodes[0].Priority != 3 || g.Nodes[1].Priority != 2 || g.Nodes[2].Priority != 1 {
		t.Errorf("chain priorities = %d,%d,%d, want 3,2,1",
			g.Nodes[0].Priority, g.Nodes[1].Priority, g.Nodes[2].Priority)
	}
	if g.Nodes[3].Priority != 1 {
		t.Errorf("independent priority = %d, want 1", g.Nodes[3].Priority)
	}
}

func TestJoinBarriersFenceBranches(t *testing.T) {
	// Region of two homes with a join at position 1: the branch from
	// home >= 1 must be ordered after every home-0 instruction, so the
	// join label always lands above it; non-branch home-1 instructions
	// remain free to move up (compensation pays for them).
	a := ins(ir.OpMovi, 1)    // home 0
	bb := ins(ir.OpMovi, 2)   // home 0
	c := ins(ir.OpMovi, 3)    // home 1
	br := ins(ir.OpBne, 0, 9) // home 1, branch
	br.Src = [2]ir.Reg{3}
	instrs := []*ir.Instr{a, bb, c, br}
	homes := []int{0, 0, 1, 1}
	g := Build(instrs, Options{
		Trace:           true,
		HomeOf:          func(i int) int { return homes[i] },
		Joins:           []int{1},
		LiveOutOffTrace: func(int, ir.Reg) bool { return false },
	})
	if !g.HasEdge(g.Nodes[0], g.Nodes[3]) || !g.HasEdge(g.Nodes[1], g.Nodes[3]) {
		t.Error("join barrier missing: branch can rise above the join label")
	}
	if g.HasEdge(g.Nodes[0], g.Nodes[2]) || g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("non-branch join-home instruction needlessly fenced")
	}
}

func TestTraceFinalTerminatorPinnedLast(t *testing.T) {
	a := ins(ir.OpMovi, 1)
	b := ins(ir.OpMovi, 2)
	ret := ins(ir.OpRet, ir.NoReg)
	g := Build([]*ir.Instr{a, b, ret}, Options{Trace: true})
	if !g.HasEdge(g.Nodes[0], g.Nodes[2]) || !g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("final terminator not pinned last in trace mode")
	}
}

func TestPrefetchCarriesNoMemoryEdges(t *testing.T) {
	st := ins(ir.OpStF, ir.NoReg, 5, 6)
	st.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	pf := ins(ir.OpPrefetch, ir.NoReg, 6)
	pf.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	ld := ins(ir.OpLdF, 7, 6)
	ld.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	g := Build([]*ir.Instr{st, pf, ld}, Options{})
	if g.HasEdge(g.Nodes[0], g.Nodes[1]) || g.HasEdge(g.Nodes[1], g.Nodes[2]) {
		t.Error("prefetch hint participates in memory ordering")
	}
	if !g.HasEdge(g.Nodes[0], g.Nodes[2]) {
		t.Error("store→load dependence lost")
	}
}
