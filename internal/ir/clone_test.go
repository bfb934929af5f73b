package ir_test

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/sim"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// lowered returns tomcatv unrolled by 4 and lowered: loads and stores
// with memory references, two-way branches and several blocks.
func lowered(t *testing.T) *ir.Func {
	t.Helper()
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := b.Build()
	res, err := lower.Lower(unroll.Apply(p, 4))
	if err != nil {
		t.Fatal(err)
	}
	return res.Fn
}

// TestFuncCloneIsDeep mutates every part of a copy — each instruction
// field, memory references, successors, appends to a block's slices,
// AddArray, NewBlock, NewReg and RegClass — and checks the original is
// untouched, and that an append to one block of the copy leaves the
// copy's other blocks alone.
func TestFuncCloneIsDeep(t *testing.T) {
	fn := lowered(t)
	fp, text := sim.Fingerprint(fn), fn.String()
	want := fn.Clone()
	if !reflect.DeepEqual(want, fn) {
		t.Fatal("a fresh copy differs from the original")
	}
	if sim.Fingerprint(want) != fp || want.String() != text {
		t.Fatal("a fresh copy fingerprints or prints differently from the original")
	}

	c := fn.Clone()
	if len(c.Blocks) < 2 || len(c.Blocks[1].Instrs) == 0 || len(c.Blocks[1].Succs) == 0 {
		t.Fatal("want a second block with instructions and successors")
	}
	nextInstr, nextSucc := c.Blocks[1].Instrs[0], c.Blocks[1].Succs[0]
	c.Blocks[0].Instrs = append(c.Blocks[0].Instrs, &ir.Instr{Op: ir.OpRet})
	c.Blocks[0].Succs = append(c.Blocks[0].Succs, 99)
	if c.Blocks[1].Instrs[0] != nextInstr || c.Blocks[1].Succs[0] != nextSucc {
		t.Fatal("appending to block 0 of the copy wrote into block 1")
	}
	mems := 0
	for _, b := range c.Blocks {
		b.Freq++
		b.LoopHead = !b.LoopHead
		for i := range b.Succs {
			b.Succs[i]++
		}
		for _, in := range b.Instrs {
			in.Op++
			in.Dst++
			in.Src[0]++
			in.Src[1]++
			in.UseImm = !in.UseImm
			in.Imm++
			in.FImm++
			in.Target++
			in.Hint++
			in.Spill++
			in.Home++
			in.Seq++
			if in.Mem != nil {
				mems++
				in.Mem.Array++
				in.Mem.Base++
				in.Mem.Disp++
				in.Mem.Width++
				in.Mem.Group++
			}
		}
	}
	if mems == 0 {
		t.Fatal("no memory reference to mutate")
	}
	for i := range c.RegClass {
		c.RegClass[i] ^= 1
	}
	c.Arrays[0].Size++
	c.AddArray("extra", 8)
	c.NewReg(ir.RegFP)
	c.NewBlock()
	c.Name += "'"

	if sim.Fingerprint(fn) != fp || fn.String() != text {
		t.Error("mutating the copy changed the original's fingerprint or text")
	}
	if !reflect.DeepEqual(fn, want) {
		t.Error("mutating the copy changed the original")
	}
}
