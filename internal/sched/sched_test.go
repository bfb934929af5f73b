package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/verify"
)

func ins(op ir.Op, dst ir.Reg, srcs ...ir.Reg) *ir.Instr {
	in := &ir.Instr{Op: op, Dst: dst}
	copy(in.Src[:], srcs)
	return in
}

// figure1 builds the paper's Figure 1 situation: loads L0 and L1 are
// mutually parallel, loads L2→L3 are in series, and non-loads X1 and X2
// are independent of all four.
//
//	      X0
//	┌──┬──┴──┐
//	L0 L1    L2        X1  X2
//	         │
//	         L3
func figure1() []*ir.Instr {
	const (
		rX0 = ir.Reg(iota + 1)
		rL0
		rL1
		rL2
		rL3
		rX1
		rX2
	)
	mem := func(disp int64) *ir.MemRef {
		return &ir.MemRef{Array: 0, Base: 0, Disp: disp, Width: 8}
	}
	x0 := ins(ir.OpMovi, rX0)
	l0 := ins(ir.OpLd, rL0, rX0)
	l0.Mem = mem(0)
	l1 := ins(ir.OpLd, rL1, rX0)
	l1.Mem = mem(8)
	l2 := ins(ir.OpLd, rL2, rX0)
	l2.Mem = mem(16)
	l3 := ins(ir.OpLd, rL3, rL2) // depends on L2: series loads
	l3.Mem = &ir.MemRef{Array: -1, Base: -1, Width: 8}
	x1 := ins(ir.OpMovi, rX1)
	x2 := ins(ir.OpMovi, rX2)
	return []*ir.Instr{x0, l0, l1, l2, l3, x1, x2}
}

func TestTraditionalWeights(t *testing.T) {
	g := dag.Build(figure1(), dag.Options{})
	AssignWeights(g, Traditional)
	for _, n := range g.Nodes {
		if n.Instr.Op.IsLoad() && n.Weight != machine.LatLoadHit {
			t.Errorf("traditional load weight = %d, want %d", n.Weight, machine.LatLoadHit)
		}
	}
}

// TestBalancedWeightsFigure1 checks the paper's Figure 1 discussion: X1 and
// X2 can each fully cover the parallel loads L0 and L1 (weight 1+1+1 = 3)
// but must be shared between the series loads L2 and L3 (weight 1+½+½ = 2).
func TestBalancedWeightsFigure1(t *testing.T) {
	g := dag.Build(figure1(), dag.Options{})
	AssignWeights(g, Balanced)
	w := map[ir.Reg]int{}
	for _, n := range g.Nodes {
		if n.Instr.Op.IsLoad() {
			w[n.Instr.Dst] = n.Weight
		}
	}
	if w[2] != 3 || w[3] != 3 {
		t.Errorf("parallel load weights = %d, %d, want 3, 3", w[2], w[3])
	}
	if w[4] != 2 || w[5] != 2 {
		t.Errorf("series load weights = %d, %d, want 2, 2", w[4], w[5])
	}
}

func TestBalancedSkipsPredictedHits(t *testing.T) {
	instrs := figure1()
	// Mark L0 (dst r2) a locality hit: its weight must stay optimistic,
	// and — because a predicted hit behaves like a short fixed-latency
	// instruction — it now *contributes* cover to the other loads, so L1
	// rises from 3 to 4 (X1 + X2 + the hit L0).
	instrs[1].Hint = ir.HintHit
	g := dag.Build(instrs, dag.Options{})
	AssignWeights(g, Balanced)
	if g.Nodes[1].Weight != machine.LatLoadHit {
		t.Errorf("predicted-hit load weight = %d, want %d", g.Nodes[1].Weight, machine.LatLoadHit)
	}
	if g.Nodes[2].Weight != 4 {
		t.Errorf("balanced load weight = %d, want 4", g.Nodes[2].Weight)
	}
}

func TestBalancedWeightCap(t *testing.T) {
	// One load with a huge crowd of independent instructions: weight must
	// cap at the maximum memory latency.
	var instrs []*ir.Instr
	l := ins(ir.OpLdF, 100, 99)
	l.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	instrs = append(instrs, l)
	for i := 0; i < 80; i++ {
		instrs = append(instrs, ins(ir.OpMovi, ir.Reg(1+i)))
	}
	g := dag.Build(instrs, dag.Options{})
	AssignWeights(g, Balanced)
	if g.Nodes[0].Weight != machine.MaxLoadLatency {
		t.Errorf("capped weight = %d, want %d", g.Nodes[0].Weight, machine.MaxLoadLatency)
	}
}

func TestBalancedLoadsDontCoverEachOther(t *testing.T) {
	// Two independent loads and nothing else: each keeps weight 1
	// (rounded) — a load cannot hide another load's latency.
	l1 := ins(ir.OpLdF, 10, 1)
	l1.Mem = &ir.MemRef{Array: 0, Base: 0, Disp: 0, Width: 8}
	l2 := ins(ir.OpLdF, 11, 1)
	l2.Mem = &ir.MemRef{Array: 0, Base: 0, Disp: 8, Width: 8}
	g := dag.Build([]*ir.Instr{l1, l2}, dag.Options{})
	AssignWeights(g, Balanced)
	if g.Nodes[0].Weight != 1 || g.Nodes[1].Weight != 1 {
		t.Errorf("lone load weights = %d, %d, want 1, 1", g.Nodes[0].Weight, g.Nodes[1].Weight)
	}
}

func validOrder(t *testing.T, g *dag.Graph, order []*ir.Instr) {
	t.Helper()
	pos := map[*ir.Instr]int{}
	for i, in := range order {
		pos[in] = i
	}
	if len(order) != len(g.Nodes) {
		t.Fatalf("schedule has %d instructions, want %d", len(order), len(g.Nodes))
	}
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if pos[n.Instr] >= pos[s.Instr] {
				t.Fatalf("dependence violated: %v not before %v", n.Instr, s.Instr)
			}
		}
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	g := dag.Build(figure1(), dag.Options{})
	AssignWeights(g, Balanced)
	validOrder(t, g, Schedule(g, nil))
	g2 := dag.Build(figure1(), dag.Options{})
	AssignWeights(g2, Traditional)
	validOrder(t, g2, Schedule(g2, nil))
}

func TestBalancedSchedulesIndependentWorkBehindLoad(t *testing.T) {
	// A missing load plus a string of independent work and a consumer:
	// balanced scheduling must place the load before the independent
	// instructions so they hide its latency; the traditional scheduler
	// has no reason to (weight 2 load ties with everything else and
	// later tie-breaks can leave the consumer close behind the load).
	var instrs []*ir.Instr
	ld := ins(ir.OpLdF, 20, 1)
	ld.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	use := ins(ir.OpFAdd, 21, 20, 20)
	st := ins(ir.OpStF, ir.NoReg, 21, 1)
	st.Mem = &ir.MemRef{Array: 0, Base: 0, Disp: 64, Width: 8}
	instrs = append(instrs, ld, use, st)
	for i := 0; i < 6; i++ {
		instrs = append(instrs, ins(ir.OpMovi, ir.Reg(30+i)))
	}
	g := dag.Build(instrs, dag.Options{})
	AssignWeights(g, Balanced)
	order := Schedule(g, nil)
	validOrder(t, g, order)
	// Count independent instructions placed between load and use.
	li, ui := -1, -1
	for i, in := range order {
		if in == ld {
			li = i
		}
		if in == use {
			ui = i
		}
	}
	if li == -1 || ui == -1 || ui-li-1 < 4 {
		t.Errorf("balanced schedule hides only %d instructions behind the load", ui-li-1)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	build := func() []*ir.Instr {
		g := dag.Build(figure1(), dag.Options{})
		AssignWeights(g, Balanced)
		return Schedule(g, nil)
	}
	a, b := build(), build()
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Dst != b[i].Dst {
			t.Fatalf("nondeterministic schedule at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestScheduleRandomDAGsProperty(t *testing.T) {
	// Property: for random straight-line code, both policies produce a
	// valid topological order containing every instruction exactly once.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(30)
		var instrs []*ir.Instr
		for i := 0; i < n; i++ {
			r := func() ir.Reg { return ir.Reg(1 + rng.Intn(6)) }
			switch rng.Intn(5) {
			case 0:
				instrs = append(instrs, ins(ir.OpMovi, r()))
			case 1:
				instrs = append(instrs, ins(ir.OpAdd, r(), r(), r()))
			case 2:
				instrs = append(instrs, ins(ir.OpMul, r(), r(), r()))
			case 3:
				l := ins(ir.OpLd, r(), r())
				l.Mem = &ir.MemRef{Array: rng.Intn(2), Base: 0, Disp: int64(rng.Intn(4)) * 8, Width: 8}
				instrs = append(instrs, l)
			default:
				s := ins(ir.OpSt, ir.NoReg, r(), r())
				s.Mem = &ir.MemRef{Array: rng.Intn(2), Base: 0, Disp: int64(rng.Intn(4)) * 8, Width: 8}
				instrs = append(instrs, s)
			}
		}
		for i, in := range instrs {
			in.Seq = i
		}
		for _, p := range []Policy{Traditional, Balanced} {
			g := dag.Build(instrs, dag.Options{})
			AssignWeights(g, p)
			order := Schedule(g, nil)
			validOrder(t, g, order)
			seen := map[*ir.Instr]bool{}
			for _, in := range order {
				if seen[in] {
					t.Fatalf("trial %d: instruction scheduled twice", trial)
				}
				seen[in] = true
			}
		}
	}

	// Pressure trials: 48 registers and up to 60 instructions keep more
	// than PressureLimit values live, and a register-class table of
	// random length, often shorter than the largest register used,
	// drives the pressure tracker under every policy.
	st := obs.NewStats()
	for trial := 0; trial < 200; trial++ {
		instrs := pressureRegion(rng, 3+rng.Intn(58))
		regClass := make([]ir.RegClass, rng.Intn(50))
		for i := range regClass {
			regClass[i] = ir.RegClass(rng.Intn(2))
		}
		for _, p := range []Policy{Traditional, Balanced, BalancedFixed, Auto} {
			g := dag.Build(instrs, dag.Options{Stats: st})
			AssignWeights(g, p)
			order := Schedule(g, regClass)
			validOrder(t, g, order)
			if err := verify.DAG(g, "random"); err != nil {
				t.Fatalf("pressure trial %d, %v: %v", trial, p, err)
			}
			if err := verify.Schedule(g, order, "random"); err != nil {
				t.Fatalf("pressure trial %d, %v: %v", trial, p, err)
			}
		}
	}
	overrides := st.Counter("sched/pressure_overrides")
	if overrides == 0 {
		t.Error("no pressure trial reached the pressure tracker's override")
	}
	t.Logf("%d pressure overrides", overrides)
}

// pressureRegion returns n random instructions over registers 1..48:
// integer and floating-point arithmetic, long-latency divides,
// conditional moves (whose destination is also a source), loads with
// locality hints and reuse groups, and stores.
func pressureRegion(rng *rand.Rand, n int) []*ir.Instr {
	r := func() ir.Reg { return ir.Reg(1 + rng.Intn(48)) }
	mem := func() *ir.MemRef {
		return &ir.MemRef{Array: rng.Intn(3), Base: rng.Intn(2), Disp: int64(rng.Intn(8)) * 8, Width: 8, Group: rng.Intn(4) - 1}
	}
	instrs := make([]*ir.Instr, n)
	for i := range instrs {
		var in *ir.Instr
		switch rng.Intn(9) {
		case 0:
			in = ins(ir.OpMovi, r())
		case 1:
			in = ins(ir.OpAdd, r(), r(), r())
		case 2:
			in = ins(ir.OpMul, r(), r(), r())
		case 3:
			in = ins(ir.OpFAdd, r(), r(), r())
		case 4:
			in = ins(ir.OpFDiv, r(), r(), r())
		case 5:
			in = ins(ir.OpCmovNe, r(), r(), r())
		case 6, 7:
			in = ins(ir.OpLdF, r(), r())
			in.Mem = mem()
			in.Hint = ir.CacheHint(rng.Intn(3))
		default:
			in = ins(ir.OpStF, ir.NoReg, r(), r())
			in.Mem = mem()
		}
		in.Seq = i
		instrs[i] = in
	}
	return instrs
}

func TestPolicyString(t *testing.T) {
	if Traditional.String() != "traditional" || Balanced.String() != "balanced" {
		t.Error("Policy.String mismatch")
	}
}

func TestBalancedFixedDilutesLoadWeights(t *testing.T) {
	// A load sharing its independent instructions with a divide chain:
	// under BalancedFixed the divide competes for the cover, so the
	// load's weight must drop relative to plain Balanced.
	var instrs []*ir.Instr
	ld := ins(ir.OpLdF, 40, 1)
	ld.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
	dv := ins(ir.OpFDiv, 41, 42, 43)
	instrs = append(instrs, ld, dv)
	for i := 0; i < 6; i++ {
		instrs = append(instrs, ins(ir.OpMovi, ir.Reg(10+i)))
	}
	weightUnder := func(p Policy) int {
		g := dag.Build(instrs, dag.Options{})
		AssignWeights(g, p)
		return g.Nodes[0].Weight
	}
	wb, wf := weightUnder(Balanced), weightUnder(BalancedFixed)
	if wf >= wb {
		t.Errorf("BalancedFixed load weight %d not below Balanced %d", wf, wb)
	}
	// The divide itself keeps its architectural weight under both.
	g := dag.Build(instrs, dag.Options{})
	AssignWeights(g, BalancedFixed)
	if g.Nodes[1].Weight != machine.LatFPDiv {
		t.Errorf("divide weight = %d, want %d", g.Nodes[1].Weight, machine.LatFPDiv)
	}
}

func TestAutoPolicyChoosesPerBlock(t *testing.T) {
	// Load-heavy block: Auto must behave like Balanced.
	loadHeavy := func() []*ir.Instr {
		var instrs []*ir.Instr
		for k := 0; k < 3; k++ {
			l := ins(ir.OpLdF, ir.Reg(40+k), 1)
			l.Mem = &ir.MemRef{Array: 0, Base: 0, Disp: int64(k) * 8, Width: 8}
			instrs = append(instrs, l)
		}
		for i := 0; i < 5; i++ {
			instrs = append(instrs, ins(ir.OpMovi, ir.Reg(10+i)))
		}
		return instrs
	}
	g := dag.Build(loadHeavy(), dag.Options{})
	AssignWeights(g, Auto)
	gb := dag.Build(loadHeavy(), dag.Options{})
	AssignWeights(gb, Balanced)
	if g.Nodes[0].Weight != gb.Nodes[0].Weight {
		t.Errorf("Auto weight %d differs from Balanced %d on load-heavy block",
			g.Nodes[0].Weight, gb.Nodes[0].Weight)
	}
	if g.Nodes[0].Weight <= machine.LatLoadHit {
		t.Error("Auto did not balance a load-heavy block")
	}

	// Divide-heavy block with one load: Auto must fall back to
	// traditional weights.
	divHeavy := func() []*ir.Instr {
		var instrs []*ir.Instr
		l := ins(ir.OpLdF, 40, 1)
		l.Mem = &ir.MemRef{Array: 0, Base: 0, Width: 8}
		instrs = append(instrs, l)
		for k := 0; k < 3; k++ {
			instrs = append(instrs, ins(ir.OpFDiv, ir.Reg(41+k), 50, 51))
		}
		return instrs
	}
	g2 := dag.Build(divHeavy(), dag.Options{})
	AssignWeights(g2, Auto)
	if g2.Nodes[0].Weight != machine.LatLoadHit {
		t.Errorf("Auto balanced a divide-dominated block (load weight %d)", g2.Nodes[0].Weight)
	}
}

func TestPolicyStringsExtended(t *testing.T) {
	if BalancedFixed.String() != "balanced-fixed" || Auto.String() != "auto" {
		t.Error("extended policy names wrong")
	}
}
