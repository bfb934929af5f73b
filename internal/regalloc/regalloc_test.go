package regalloc

import (
	"math"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/sim"
	"repro/internal/unroll"
	"repro/internal/verify"
)

// polyProgram builds a program with a long-lived set of scalar
// accumulators — cranking nAcc beyond the allocatable FP bank forces
// spills.
func polyProgram(nAcc int) (*hlir.Program, *hlir.Array, *hlir.Array) {
	p := &hlir.Program{Name: "poly"}
	a := p.NewArray("A", hlir.KFloat, 64)
	outArr := p.NewArray("out", hlir.KFloat, nAcc)
	p.Outputs = []*hlir.Array{outArr}
	i := hlir.IV("i")
	var body []hlir.Stmt
	var inits []hlir.Stmt
	for k := 0; k < nAcc; k++ {
		v := hlir.FV(name(k))
		inits = append(inits, hlir.Set(v, hlir.F(float64(k))))
		body = append(body, hlir.Set(v,
			hlir.Add(v, hlir.Mul(hlir.At(a, i), hlir.F(float64(k+1))))))
	}
	var stores []hlir.Stmt
	for k := 0; k < nAcc; k++ {
		stores = append(stores, hlir.Set(hlir.At(outArr, hlir.I(int64(k))), hlir.FV(name(k))))
	}
	p.Body = append(inits, hlir.For("i", hlir.I(0), hlir.I(64), body...))
	p.Body = append(p.Body, stores...)
	return p, a, outArr
}

func name(k int) string {
	return string(rune('a'+k/26)) + string(rune('a'+k%26))
}

func runAllocated(t *testing.T, p *hlir.Program, a *hlir.Array, vals []float64) (*lower.Result, *sim.Machine, *Report) {
	t.Helper()
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Allocate(res.Fn, nil, false)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	m, err := sim.New(res.Fn)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		m.WriteF64(res.ArrayID[a], int64(k)*8, v)
	}
	if _, err := m.Run(nil); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return res, m, rep
}

func checkAgainstInterp(t *testing.T, p *hlir.Program, a *hlir.Array, vals []float64, res *lower.Result, m *sim.Machine) {
	t.Helper()
	it := hlir.NewInterp(p)
	copy(it.F[a], vals)
	if err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	for _, out := range p.Outputs {
		id := res.ArrayID[out]
		for k := 0; k < out.Len(); k++ {
			want := it.F[out][k]
			got := m.ReadF64(id, int64(k)*8)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s[%d] = %g, want %g", out.Name, k, got, want)
			}
		}
	}
}

func TestAllocateNoSpillsWhenPressureLow(t *testing.T) {
	p, a, _ := polyProgram(8)
	vals := make([]float64, 64)
	for k := range vals {
		vals[k] = float64(k%5) * 0.5
	}
	res, m, rep := runAllocated(t, p, a, vals)
	if rep.Spilled != 0 {
		t.Errorf("spilled %d registers with only 8 accumulators", rep.Spilled)
	}
	checkAgainstInterp(t, p, a, vals, res, m)
	// All registers must be physical.
	if res.Fn.NumRegs != PhysRegs {
		t.Errorf("NumRegs = %d, want %d", res.Fn.NumRegs, PhysRegs)
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	p, a, _ := polyProgram(40) // 40 live FP accumulators > 25 allocatable
	vals := make([]float64, 64)
	for k := range vals {
		vals[k] = float64(k%7) - 2
	}
	res, m, rep := runAllocated(t, p, a, vals)
	if rep.Spilled == 0 {
		t.Fatal("no spills despite 40 live FP accumulators")
	}
	if rep.Restores == 0 || rep.Spills == 0 {
		t.Errorf("spill code missing: %d restores, %d spills", rep.Restores, rep.Spills)
	}
	checkAgainstInterp(t, p, a, vals, res, m)

	// The simulator must observe the spill traffic.
	m2, _ := sim.New(res.Fn)
	for k, v := range vals {
		m2.WriteF64(res.ArrayID[a], int64(k)*8, v)
	}
	met, err := m2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.SpillStores == 0 || met.SpillRestores == 0 {
		t.Errorf("dynamic spill counts zero: %d/%d", met.SpillStores, met.SpillRestores)
	}
}

func TestAllocateRejectsDoubleAllocation(t *testing.T) {
	p, _, _ := polyProgram(4)
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(res.Fn, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(res.Fn, nil, false); err == nil {
		t.Error("second allocation accepted")
	}
}

func TestAllocatedRegistersInRange(t *testing.T) {
	p, _, _ := polyProgram(40)
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(res.Fn, nil, false); err != nil {
		t.Fatal(err)
	}
	var buf [3]ir.Reg
	for _, b := range res.Fn.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Uses(buf[:0]) {
				if r <= 0 || r >= PhysRegs {
					t.Fatalf("operand register %d out of physical range in %v", r, in)
				}
			}
			if d := in.Def(); d != ir.NoReg && (d <= 0 || d >= PhysRegs) {
				t.Fatalf("def register %d out of physical range in %v", d, in)
			}
		}
	}
}

func TestUnrollEightRaisesSpillPressure(t *testing.T) {
	// The paper's TRFD observation: unrolling by 8 increases spill code
	// relative to unrolling by 4. Use a body with enough live temporaries
	// that eight copies exceed the FP bank.
	p := &hlir.Program{Name: "pressure"}
	a := p.NewArray("A", hlir.KFloat, 256)
	b := p.NewArray("B", hlir.KFloat, 256)
	p.Outputs = []*hlir.Array{b}
	i := hlir.IV("i")
	body := []hlir.Stmt{
		hlir.Set(hlir.FV("t0"), hlir.Mul(hlir.At(a, i), hlir.F(1.5))),
		hlir.Set(hlir.FV("t1"), hlir.Add(hlir.FV("t0"), hlir.At(a, hlir.Add(i, hlir.I(1))))),
		hlir.Set(hlir.At(b, i), hlir.Mul(hlir.FV("t1"), hlir.FV("t0"))),
	}
	p.Body = []hlir.Stmt{hlir.For("i", hlir.I(0), hlir.I(255), body...)}

	spillsAt := func(factor int) int {
		q := unroll.Apply(p, factor)
		res, err := lower.Lower(q)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Allocate(res.Fn, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Restores + rep.Spills
	}
	s4, s8 := spillsAt(4), spillsAt(8)
	if s8 < s4 {
		t.Errorf("unroll-8 spill code (%d) below unroll-4 (%d)", s8, s4)
	}
}

func TestBlockOrderIsRPOWithUnreachables(t *testing.T) {
	f := &ir.Func{Name: "ord"}
	r := f.NewReg(ir.RegInt)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	// Layout order 0,1,2,3 but control order 0→2→1; 3 unreachable.
	b0.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: r, Imm: 1}}
	b0.Succs = []int{b2.ID}
	b2.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: r, Imm: 2}}
	b2.Succs = []int{b1.ID}
	b1.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	b3.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	order := blockOrder(f)
	if len(order) != 4 {
		t.Fatalf("order covers %d blocks, want 4", len(order))
	}
	pos := map[int]int{}
	for i, b := range order {
		pos[b] = i
	}
	if !(pos[0] < pos[2] && pos[2] < pos[1]) {
		t.Errorf("order %v does not follow control flow 0→2→1", order)
	}
	if pos[3] != 3 {
		t.Errorf("unreachable block not last: %v", order)
	}
}

func TestCmovWithEverythingSpilled(t *testing.T) {
	// A conditional move reading three spilled operands must restore into
	// distinct scratch registers and still compute correctly.
	p := &hlir.Program{Name: "cmv"}
	out := p.NewArray("out", hlir.KFloat, 64)
	p.Outputs = []*hlir.Array{out}
	var body []hlir.Stmt
	// Flood the FP bank with long-lived accumulators.
	for k := 0; k < 40; k++ {
		body = append(body, hlir.Set(hlir.FV(name(k)), hlir.F(float64(k))))
	}
	// The predicated conditional under pressure.
	body = append(body,
		hlir.Set(hlir.FV("v"), hlir.F(5)),
		hlir.When(hlir.Lt(hlir.FV(name(0)), hlir.FV(name(1))), hlir.Set(hlir.FV("v"), hlir.FV(name(2)))),
	)
	for k := 0; k < 40; k++ {
		body = append(body, hlir.Set(hlir.At(out, hlir.I(int64(k))), hlir.FV(name(k))))
	}
	body = append(body, hlir.Set(hlir.At(out, hlir.I(63)), hlir.FV("v")))
	p.Body = body

	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Allocate(res.Fn, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spilled == 0 {
		t.Fatal("test did not create pressure")
	}
	m, err := sim.New(res.Fn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	// name(0)=0 < name(1)=1, so v = name(2) = 2.
	if got := m.ReadF64(res.ArrayID[out], 63*8); got != 2 {
		t.Errorf("cmov under full spill pressure computed %g, want 2", got)
	}
	for k := 0; k < 40; k++ {
		if got := m.ReadF64(res.ArrayID[out], int64(k)*8); got != float64(k) {
			t.Errorf("accumulator %d corrupted: %g", k, got)
		}
	}
}

func TestSpillSlotsDoNotAliasArrays(t *testing.T) {
	// Spill traffic must never clobber program arrays: run a pressured
	// program whose arrays are fully checked afterwards.
	pr, a, _ := polyProgram(40)
	vals := make([]float64, 64)
	for k := range vals {
		vals[k] = 1
	}
	res, m, _ := runAllocated(t, pr, a, vals)
	checkAgainstInterp(t, pr, a, vals, res, m)
}

func TestAllocateVerifiesRealFunction(t *testing.T) {
	p, _, _ := polyProgram(40) // beyond the FP bank: forces spill traffic
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Allocate(res.Fn, nil, true)
	if err != nil {
		t.Fatalf("checked allocation of a spilling function failed: %v", err)
	}
	if rep.Spilled == 0 {
		t.Fatal("expected spills at 40 accumulators")
	}
}

// Mutation: hand two overlapping intervals the same physical register and
// confirm the assignment checker rejects it (and accepts the repaired
// version).
func TestCheckAssignmentRejectsOverlap(t *testing.T) {
	ivs := []interval{
		{reg: 1, start: 0, end: 10, cls: ir.RegInt},
		{reg: 2, start: 5, end: 15, cls: ir.RegInt},
	}
	assign := []ir.Reg{0, 5, 5}
	err := checkAssignment("f", ivs, assign)
	if err == nil {
		t.Fatal("checker accepted overlapping intervals on one physical register")
	}
	if !verify.IsVerification(err) {
		t.Fatalf("overlap not reported as verification failure: %v", err)
	}
	ivs[1].start = 10 // disjoint now: sharing is legal
	if err := checkAssignment("f", ivs, assign); err != nil {
		t.Fatalf("checker rejected disjoint interval reuse: %v", err)
	}
}

func TestAllocateFaultSite(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1,
		faultinject.Rule{Site: "regalloc/allocate", Mode: faultinject.ModeError}))
	defer faultinject.Disable()
	p, _, _ := polyProgram(2)
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(res.Fn, nil, false); !faultinject.IsInjected(err) {
		t.Fatalf("expected injected error, got %v", err)
	}
}
