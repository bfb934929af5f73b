package liveness

import (
	"testing"

	"repro/internal/ir"
)

func TestSetOperations(t *testing.T) {
	s := NewSet(100)
	if s.Has(5) {
		t.Error("fresh set non-empty")
	}
	s.Add(5)
	s.Add(99)
	if !s.Has(5) || !s.Has(99) || s.Has(6) {
		t.Error("Add/Has broken")
	}
	s.Remove(5)
	if s.Has(5) {
		t.Error("Remove broken")
	}
	o := NewSet(100)
	o.Add(7)
	if !s.Or(o) || !s.Has(7) {
		t.Error("Or did not merge")
	}
	if s.Or(o) {
		t.Error("Or reported change on no-op merge")
	}
	c := s.Clone()
	c.Add(50)
	if s.Has(50) {
		t.Error("Clone shares storage")
	}
}

// buildDiamond constructs:
//
//	b0: r1=1; r2=2; bne r1 -> b2
//	b1: r3 = r1+r1          (uses r1)
//	b2: r3 = r2+r2          (uses r2)
//	b3: st r3; ret          (uses r3)
func buildDiamond() *ir.Func {
	f := &ir.Func{Name: "d"}
	r1, r2, r3 := f.NewReg(ir.RegInt), f.NewReg(ir.RegInt), f.NewReg(ir.RegInt)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	a := f.AddArray("a", 64)
	b0.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: r1, Imm: 1},
		{Op: ir.OpMovi, Dst: r2, Imm: 2},
		{Op: ir.OpBne, Src: [2]ir.Reg{r1}, Target: b2.ID},
	}
	b0.Succs = []int{b2.ID, b1.ID}
	b1.Instrs = []*ir.Instr{{Op: ir.OpAdd, Dst: r3, Src: [2]ir.Reg{r1, r1}}, {Op: ir.OpBr, Target: b3.ID}}
	b1.Succs = []int{b3.ID}
	b2.Instrs = []*ir.Instr{{Op: ir.OpAdd, Dst: r3, Src: [2]ir.Reg{r2, r2}}}
	b2.Succs = []int{b3.ID}
	b3.Instrs = []*ir.Instr{
		{Op: ir.OpSt, Src: [2]ir.Reg{r3, r1}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	return f
}

func TestComputeDiamond(t *testing.T) {
	f := buildDiamond()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	info := Compute(f)
	// r1 is live into b1 (used there) and into b3 (store base).
	if !info.LiveIn[1].Has(1) {
		t.Error("r1 not live into then-branch")
	}
	// r2 live into b2 only.
	if !info.LiveIn[2].Has(2) || info.LiveIn[1].Has(2) {
		t.Error("r2 liveness wrong")
	}
	// r3 live into b3, not into b0.
	if !info.LiveIn[3].Has(3) || info.LiveIn[0].Has(3) {
		t.Error("r3 liveness wrong")
	}
	// LiveOut of b0 includes r1 and r2.
	if !info.LiveOut[0].Has(1) || !info.LiveOut[0].Has(2) {
		t.Error("b0 live-out wrong")
	}
}

func TestComputeLoopCarried(t *testing.T) {
	// b0: r1=0 -> b1: r1=r1+1; bne r1->b1 -> b2: ret
	f := &ir.Func{Name: "loop"}
	r1 := f.NewReg(ir.RegInt)
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: r1, Imm: 0}}
	b0.Succs = []int{b1.ID}
	b1.Instrs = []*ir.Instr{
		{Op: ir.OpAdd, Dst: r1, Src: [2]ir.Reg{r1}, UseImm: true, Imm: 1},
		{Op: ir.OpBne, Src: [2]ir.Reg{r1}, Target: b1.ID},
	}
	b1.Succs = []int{b1.ID, b2.ID}
	b2.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	info := Compute(f)
	if !info.LiveIn[1].Has(1) {
		t.Error("loop-carried register not live into header")
	}
	if !info.LiveOut[1].Has(1) {
		t.Error("loop-carried register not live out of latch")
	}
	if info.LiveIn[2].Has(1) {
		t.Error("register live past its last use")
	}
}
