package licm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/licm"
	"repro/internal/lower"
	"repro/internal/sched"
)

// rowSum has a classic hoisting opportunity: the row base address i*n
// recomputes every inner iteration.
func rowSum(n int) (*hlir.Program, *hlir.Array, *hlir.Array) {
	p := &hlir.Program{Name: "rowsum"}
	a := p.NewArray("A", hlir.KFloat, n, n)
	out := p.NewArray("out", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{out}
	i, j := hlir.IV("i"), hlir.IV("j")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.Set(hlir.FV("s"), hlir.F(0)),
			hlir.For("j", hlir.I(0), hlir.I(int64(n)),
				hlir.Set(hlir.FV("s"), hlir.Add(hlir.FV("s"), hlir.At(a, i, j)))),
			hlir.Set(hlir.At(out, i), hlir.FV("s"))),
	}
	return p, a, out
}

func TestApplyHoistsAddressArithmetic(t *testing.T) {
	p, _, _ := rowSum(16)
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	var innerBefore int
	for _, b := range res.Fn.Blocks {
		if b.LoopHead && len(b.Succs) == 2 && b.Succs[0] == b.ID {
			innerBefore = len(b.Instrs)
		}
	}
	rep := licm.Apply(res.Fn)
	if rep.Hoisted == 0 {
		t.Fatal("nothing hoisted from a loop with invariant address arithmetic")
	}
	var innerAfter int
	for _, b := range res.Fn.Blocks {
		if b.LoopHead && len(b.Succs) == 2 && b.Succs[0] == b.ID {
			innerAfter = len(b.Instrs)
		}
	}
	if innerAfter >= innerBefore {
		t.Errorf("inner loop did not shrink: %d -> %d", innerBefore, innerAfter)
	}
	// No loads may have moved.
	if err := res.Fn.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLICMSemanticsAndSpeed(t *testing.T) {
	p, a, _ := rowSum(24)
	d := core.NewData()
	vals := make([]float64, 24*24)
	for k := range vals {
		vals[k] = float64(k%13) * 0.5
	}
	d.F[a] = vals
	want, err := core.Reference(p, d)
	if err != nil {
		t.Fatal(err)
	}
	run := func(licmOn bool) int64 {
		cfg := core.Config{Policy: sched.Balanced, LICM: licmOn}
		c, err := core.Compile(p, cfg, d, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if licmOn && (c.LICM == nil || c.LICM.Hoisted == 0) {
			t.Fatal("LICM report missing or empty")
		}
		met, got, err := core.Execute(c, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("LICM=%v: wrong output", licmOn)
		}
		return met.Cycles
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("LICM did not speed the loop up: %d vs %d cycles", with, without)
	}
}

func TestLICMDoesNotHoistLoadsOrClobberLiveIns(t *testing.T) {
	// A loop reading an invariant array element: the load must stay in
	// the loop (paper framework), and a register live into the loop with
	// a different pre-loop value must not be clobbered.
	p := &hlir.Program{Name: "keep"}
	a := p.NewArray("A", hlir.KFloat, 16)
	out := p.NewArray("out", hlir.KFloat, 16)
	p.Outputs = []*hlir.Array{out}
	p.Body = []hlir.Stmt{
		hlir.Set(hlir.FV("s"), hlir.F(100)), // live-in accumulator
		hlir.For("i", hlir.I(0), hlir.I(16),
			hlir.Set(hlir.FV("s"), hlir.Add(hlir.FV("s"), hlir.At(a, hlir.I(3))))),
		hlir.Set(hlir.At(out, hlir.I(0)), hlir.FV("s")),
	}
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	licm.Apply(res.Fn)
	// The invariant load A[3] must still be inside the loop block.
	for _, b := range res.Fn.Blocks {
		if !b.LoopHead {
			continue
		}
		hasLoad := false
		for _, in := range b.Instrs {
			if in.Op.IsLoad() {
				hasLoad = true
			}
		}
		if !hasLoad {
			t.Error("invariant load hoisted out of the loop")
		}
	}
	// And the program still computes correctly.
	d := core.NewData()
	av := make([]float64, 16)
	av[3] = 2.5
	d.F[a] = av
	want, err := core.Reference(p, d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(p, core.Config{Policy: sched.Balanced, LICM: true}, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := core.Execute(c, d)
	if err != nil || got != want {
		t.Fatalf("err=%v mismatch=%v", err, got != want)
	}
	_ = ir.NoReg
}
