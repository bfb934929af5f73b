package trace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
)

// branchyProgram builds a loop whose body contains an unpredicable
// conditional (array store under the condition), giving the classic trace
// shape: hot path through the loop, cold side block, join before the
// latch.
func branchyProgram(n int, hotBias bool) (*hlir.Program, *hlir.Array, *hlir.Array) {
	p := &hlir.Program{Name: "branchy"}
	a := p.NewArray("A", hlir.KFloat, n)
	b := p.NewArray("B", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{b}
	i := hlir.IV("i")
	threshold := hlir.F(100)
	if !hotBias {
		threshold = hlir.F(2)
	}
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.Set(hlir.FV("v"), hlir.Add(hlir.At(a, i), hlir.F(1))),
			// Cold path: clamp and store a marker.
			hlir.When(hlir.Le(threshold, hlir.FV("v")),
				hlir.Set(hlir.At(b, i), hlir.F(-7)),
				hlir.Set(hlir.FV("v"), hlir.F(0))),
			hlir.Set(hlir.At(b, i), hlir.Add(hlir.FV("v"), hlir.At(b, i))),
		),
	}
	return p, a, b
}

func initMachine(res *lower.Result, a *hlir.Array, vals []float64) func(*sim.Machine) {
	return func(m *sim.Machine) {
		for k, v := range vals {
			m.WriteF64(res.ArrayID[a], int64(k)*8, v)
		}
	}
}

func TestFormFollowsHotPath(t *testing.T) {
	p, a, _ := branchyProgram(256, true)
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 256)
	for k := range vals {
		vals[k] = float64(k % 10) // always below threshold: hot = else side
	}
	edges, _, err := profile.Collect(res.Fn, initMachine(res, a, vals), nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := Form(res.Fn, edges)
	// The loop body must yield a multi-block trace seeded at the header
	// (highest frequency), and no trace may contain a loop head at a
	// non-initial position.
	foundMulti := false
	for _, tr := range traces {
		if len(tr.Blocks) > 1 {
			foundMulti = true
		}
		for k, b := range tr.Blocks {
			if k > 0 && res.Fn.Blocks[b].LoopHead {
				t.Errorf("trace %v crosses into loop head %d", tr.Blocks, b)
			}
		}
	}
	if !foundMulti {
		t.Error("no multi-block trace formed through the loop body")
	}
	// Every block in exactly one trace.
	seen := map[int]int{}
	for _, tr := range traces {
		for _, b := range tr.Blocks {
			seen[b]++
		}
	}
	for b, c := range seen {
		if c != 1 {
			t.Errorf("block %d in %d traces", b, c)
		}
	}
	if len(seen) != len(res.Fn.Blocks) {
		t.Errorf("traces cover %d of %d blocks", len(seen), len(res.Fn.Blocks))
	}
}

// runPipeline lowers p, profiles, trace-schedules with the policy, runs
// the result, and returns the machine plus the report.
func runPipeline(t *testing.T, p *hlir.Program, a *hlir.Array, vals []float64, policy sched.Policy) (*lower.Result, *sim.Machine, *Report) {
	t.Helper()
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	edges, _, err := profile.Collect(res.Fn, initMachine(res, a, vals), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScheduleAll(res.Fn, edges, policy, nil, false)
	if err != nil {
		t.Fatalf("ScheduleAll: %v\n%v", err, res.Fn)
	}
	m, err := sim.New(res.Fn)
	if err != nil {
		t.Fatal(err)
	}
	initMachine(res, a, vals)(m)
	if _, err := m.Run(nil); err != nil {
		t.Fatalf("sim after trace scheduling: %v\n%v", err, res.Fn)
	}
	return res, m, rep
}

func TestTraceScheduledSemanticsBothBiases(t *testing.T) {
	for _, hot := range []bool{true, false} {
		for _, policy := range []sched.Policy{sched.Traditional, sched.Balanced} {
			p, a, b := branchyProgram(128, hot)
			vals := make([]float64, 128)
			for k := range vals {
				vals[k] = float64(k%17) * 0.75
			}
			it := hlir.NewInterp(p)
			copy(it.F[a], vals)
			if err := it.Run(p); err != nil {
				t.Fatal(err)
			}
			res, m, _ := runPipeline(t, p, a, vals, policy)
			for k := 0; k < 128; k++ {
				want := it.F[b][k]
				got := m.ReadF64(res.ArrayID[b], int64(k)*8)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("hot=%v policy=%v: B[%d] = %g, want %g", hot, policy, k, got, want)
				}
			}
		}
	}
}

func TestCompensationOrSpeculationHappens(t *testing.T) {
	// With a biased branch and real work on both sides of the join, the
	// trace scheduler should do *something* cross-block: speculate or
	// compensate.
	p, a, _ := branchyProgram(256, true)
	vals := make([]float64, 256)
	for k := range vals {
		vals[k] = 1.0
	}
	_, _, rep := runPipeline(t, p, a, vals, sched.Balanced)
	if rep.Traces == 0 {
		t.Fatal("no traces scheduled")
	}
	if rep.Speculated == 0 && rep.CompCopies == 0 {
		t.Error("trace scheduling moved nothing across block boundaries")
	}
}

// TestFigure2Compensation reconstructs the paper's Figure 2: blocks
// 1→2→4→5 form the trace, block 3 is the off-trace path joining at 5.
// An instruction homed in 5 that the scheduler hoists above the join must
// be copied onto the 3→5 edge.
func TestFigure2Compensation(t *testing.T) {
	f := &ir.Func{Name: "fig2"}
	arr := f.AddArray("D", 512)
	base := f.NewReg(ir.RegInt)
	c := f.NewReg(ir.RegInt)
	v1 := f.NewReg(ir.RegFP)
	v2 := f.NewReg(ir.RegFP)
	v3 := f.NewReg(ir.RegFP)
	long1 := f.NewReg(ir.RegFP)
	long2 := f.NewReg(ir.RegFP)

	b1 := f.NewBlock() // block 1: split
	b2 := f.NewBlock() // block 2: on-trace
	b3 := f.NewBlock() // block 3: off-trace
	b4 := f.NewBlock() // block 4: join target... joins at b4
	b5 := f.NewBlock() // block 5: exit

	mem := func(d int64) *ir.MemRef { return &ir.MemRef{Array: arr, Base: 0, Disp: d, Width: 8} }
	b1.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(arr), Seq: 0},
		{Op: ir.OpLd, Dst: c, Src: [2]ir.Reg{base}, Imm: 256, Mem: mem(256), Seq: 1},
		{Op: ir.OpBne, Src: [2]ir.Reg{c}, Target: b3.ID, Seq: 2},
	}
	b1.Succs = []int{b3.ID, b2.ID}
	b1.Freq = 100
	b2.Instrs = []*ir.Instr{
		{Op: ir.OpLdF, Dst: v1, Src: [2]ir.Reg{base}, Imm: 0, Mem: mem(0), Seq: 3},
		{Op: ir.OpFAdd, Dst: v2, Src: [2]ir.Reg{v1, v1}, Seq: 4},
	}
	b2.Succs = []int{b4.ID}
	b2.Freq = 99
	b3.Instrs = []*ir.Instr{
		{Op: ir.OpFMovi, Dst: v2, FImm: 5, Seq: 5},
		{Op: ir.OpBr, Target: b4.ID, Seq: 6},
	}
	b3.Succs = []int{b4.ID}
	b3.Freq = 1
	// Block 4 (the join): a long-latency chain plus an independent
	// instruction the scheduler will want to hoist.
	b4.Instrs = []*ir.Instr{
		{Op: ir.OpFMovi, Dst: long1, FImm: 3, Seq: 7},
		{Op: ir.OpFDiv, Dst: long2, Src: [2]ir.Reg{v2, long1}, Seq: 8},
		{Op: ir.OpStF, Src: [2]ir.Reg{long2, base}, Imm: 8, Mem: mem(8), Seq: 9},
	}
	b4.Succs = []int{b5.ID}
	b4.Freq = 100
	b5.Instrs = []*ir.Instr{
		{Op: ir.OpFMovi, Dst: v3, FImm: 1, Seq: 10},
		{Op: ir.OpStF, Src: [2]ir.Reg{v3, base}, Imm: 16, Mem: mem(16), Seq: 11},
		{Op: ir.OpRet, Seq: 12},
	}
	b5.Freq = 100
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}

	edges := make(profile.Edges, 2*len(f.Blocks))
	edges[2*b1.ID+1], edges[2*b1.ID] = 99, 1
	edges[2*b2.ID], edges[2*b3.ID] = 99, 1
	edges[2*b4.ID] = 100
	profile.Annotate(f, edges)
	rep, err := ScheduleAll(f, edges, sched.Balanced, nil, false)
	if err != nil {
		t.Fatalf("%v\n%v", err, f)
	}
	if rep.Traces != 1 {
		t.Fatalf("traces = %d, want 1", rep.Traces)
	}
	// fmovi long1 (home b4, independent of everything) should hoist above
	// the join from b3, forcing a compensation copy on the 3→4 edge.
	if rep.CompCopies == 0 {
		t.Errorf("expected compensation copies for hoisted join code\n%v", f)
	}

	// Execute both paths and check semantics.
	run := func(cond int64) (float64, float64) {
		m, err := sim.New(f)
		if err != nil {
			t.Fatal(err)
		}
		m.WriteI64(arr, 256, cond)
		m.WriteF64(arr, 0, 21)
		if _, err := m.Run(nil); err != nil {
			t.Fatalf("cond=%d: %v\n%v", cond, err, f)
		}
		return m.ReadF64(arr, 8), m.ReadF64(arr, 16)
	}
	if d8, d16 := run(0); d8 != 14 || d16 != 1 { // on trace: (21+21)/3
		t.Errorf("on-trace results = %g, %g, want 14, 1", d8, d16)
	}
	if d8, d16 := run(1); d8 != 5.0/3.0 || d16 != 1 { // off trace: 5/3
		t.Errorf("off-trace results = %g, %g, want %g, 1", d8, d16, 5.0/3.0)
	}
}

func TestScheduleBlockSingleton(t *testing.T) {
	f := &ir.Func{Name: "s"}
	r1 := f.NewReg(ir.RegFP)
	r2 := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpFMovi, Dst: r1, FImm: 1, Seq: 0},
		{Op: ir.OpFMovi, Dst: r2, FImm: 2, Seq: 1},
		{Op: ir.OpRet, Seq: 2},
	}
	if err := ScheduleBlock(f, b, sched.Balanced, nil, false); err != nil {
		t.Fatal(err)
	}
	if len(b.Instrs) != 3 || b.Instrs[2].Op != ir.OpRet {
		t.Errorf("singleton scheduling broke the block: %v", b.Instrs)
	}
}

// TestRandomProgramsTraceScheduleEquivalence is the big safety net:
// random loop/branch/array programs must compute identical outputs under
// (a) the reference interpreter, (b) plain block scheduling, and (c) trace
// scheduling, for both weight policies.
func TestRandomProgramsTraceScheduleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p, a := randomProgram(rng, trial)
		vals := make([]float64, a.Len())
		for k := range vals {
			vals[k] = rng.Float64()*8 - 4
		}
		it := hlir.NewInterp(p)
		copy(it.F[a], vals)
		if err := it.Run(p); err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}
		want := it.Checksum(p)

		for _, policy := range []sched.Policy{sched.Traditional, sched.Balanced} {
			res, err := lower.Lower(p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			edges, _, err := profile.Collect(res.Fn, initMachine(res, a, vals), nil)
			if err != nil {
				t.Fatalf("trial %d: profile: %v", trial, err)
			}
			if _, err := ScheduleAll(res.Fn, edges, policy, nil, false); err != nil {
				t.Fatalf("trial %d policy %v: ScheduleAll: %v", trial, policy, err)
			}
			m, err := sim.New(res.Fn)
			if err != nil {
				t.Fatal(err)
			}
			initMachine(res, a, vals)(m)
			if _, err := m.Run(nil); err != nil {
				t.Fatalf("trial %d policy %v: sim: %v", trial, policy, err)
			}
			got := checksum(m, res, p)
			if got != want {
				t.Fatalf("trial %d policy %v: checksum mismatch", trial, policy)
			}
		}
	}
}

// checksum mirrors hlir.Interp.Checksum over simulator memory.
func checksum(m *sim.Machine, res *lower.Result, p *hlir.Program) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(bits uint64) {
		for i := 0; i < 8; i++ {
			h ^= (bits >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range p.Outputs {
		id := res.ArrayID[a]
		for i := 0; i < a.Len(); i++ {
			if a.Elem == hlir.KFloat {
				mix(math.Float64bits(m.ReadF64(id, int64(i)*8)))
			} else {
				mix(uint64(m.ReadI64(id, int64(i)*8)))
			}
		}
	}
	return h
}

// randomProgram generates a small loop nest with conditionals over one
// array.
func randomProgram(rng *rand.Rand, trial int) (*hlir.Program, *hlir.Array) {
	p := &hlir.Program{Name: "rnd"}
	n := 32 + rng.Intn(32)
	a := p.NewArray("A", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{a}
	i := hlir.IV("i")

	randExpr := func() hlir.Expr {
		switch rng.Intn(4) {
		case 0:
			return hlir.Add(hlir.At(a, i), hlir.F(float64(rng.Intn(5))))
		case 1:
			return hlir.Mul(hlir.At(a, i), hlir.F(0.5+rng.Float64()))
		case 2:
			return hlir.Sub(hlir.F(1), hlir.At(a, i))
		default:
			return hlir.Add(hlir.FV("s"), hlir.At(a, i))
		}
	}
	var body []hlir.Stmt
	body = append(body, hlir.Set(hlir.FV("s"), randExpr()))
	nIfs := 1 + rng.Intn(2)
	for k := 0; k < nIfs; k++ {
		cutoff := hlir.F(rng.Float64()*4 - 2)
		thenS := []hlir.Stmt{hlir.Set(hlir.At(a, i), hlir.Add(hlir.FV("s"), hlir.F(1)))}
		var elseS []hlir.Stmt
		if rng.Intn(2) == 0 {
			elseS = []hlir.Stmt{hlir.Set(hlir.At(a, i), hlir.Mul(hlir.FV("s"), hlir.F(0.25)))}
		}
		body = append(body, hlir.WhenElse(hlir.Lt(hlir.At(a, i), cutoff), thenS, elseS))
	}
	body = append(body, hlir.Set(hlir.At(a, i), hlir.Add(hlir.At(a, i), hlir.FV("s"))))
	p.Body = []hlir.Stmt{hlir.For("i", hlir.I(0), hlir.I(int64(n-1)), body...)}
	return p, a
}

func TestSplitSideEntrances(t *testing.T) {
	// Build a CFG where block 1 jumps forward to block 3 within what
	// would otherwise be one trace 0→1→2→3: the trace must split at 3.
	f := &ir.Func{Name: "side"}
	c := f.NewReg(ir.RegInt)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: c, Imm: 1}}
	b0.Succs = []int{b1.ID}
	b1.Instrs = []*ir.Instr{{Op: ir.OpBne, Src: [2]ir.Reg{c}, Target: b3.ID}}
	b1.Succs = []int{b3.ID, b2.ID}
	b2.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: c, Imm: 2}}
	b2.Succs = []int{b3.ID}
	b3.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	traces := splitSideEntrances(f, []int{0, 1, 2, 3})
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2: %v", len(traces), traces)
	}
	if traces[0].Blocks[len(traces[0].Blocks)-1] == b3.ID {
		t.Error("side-entered block not split off")
	}
	if traces[1].Blocks[0] != b3.ID {
		t.Errorf("second trace starts at %d, want %d", traces[1].Blocks[0], b3.ID)
	}
}

func TestInvertBranch(t *testing.T) {
	pairs := [][2]ir.Op{
		{ir.OpBeq, ir.OpBne}, {ir.OpBlt, ir.OpBge}, {ir.OpBle, ir.OpBgt},
	}
	for _, pr := range pairs {
		if invertBranch(pr[0]) != pr[1] || invertBranch(pr[1]) != pr[0] {
			t.Errorf("invertBranch(%v/%v) wrong", pr[0], pr[1])
		}
	}
}

func TestTraceSizeCap(t *testing.T) {
	// Build a long fallthrough chain of fat blocks: trace formation must
	// stop growing at MaxTraceInstrs.
	f := &ir.Func{Name: "cap"}
	const blocks = 12
	const per = 30
	var ids []int
	for b := 0; b < blocks; b++ {
		blk := f.NewBlock()
		for k := 0; k < per; k++ {
			r := f.NewReg(ir.RegInt)
			blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpMovi, Dst: r, Imm: int64(k)})
		}
		ids = append(ids, blk.ID)
	}
	for b := 0; b < blocks-1; b++ {
		f.Blocks[ids[b]].Succs = []int{ids[b+1]}
	}
	f.Blocks[ids[blocks-1]].Instrs = append(f.Blocks[ids[blocks-1]].Instrs, &ir.Instr{Op: ir.OpRet})
	edges := make(profile.Edges, 2*len(f.Blocks))
	for b := 0; b < blocks-1; b++ {
		edges[2*ids[b]] = 100
	}
	profile.Annotate(f, edges)
	for _, tr := range Form(f, edges) {
		size := 0
		for _, b := range tr.Blocks {
			size += len(f.Blocks[b].Instrs)
		}
		if size > MaxTraceInstrs {
			t.Errorf("trace %v has %d instructions, cap is %d", tr.Blocks, size, MaxTraceInstrs)
		}
	}
}
