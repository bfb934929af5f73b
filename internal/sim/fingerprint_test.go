package sim

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

// simReads classifies every field of the IR types a function is made of:
// true for the fields a timing run reads, which Fingerprint and SameCode
// must cover, false for the fields the simulator does not read. A field
// added to one of these types fails TestKeyClassifiesEveryIRField until
// it is classified here and given a mutation in keyMutations.
var simReads = map[string]bool{
	"Func.Name":      true,
	"Func.Blocks":    true,
	"Func.Entry":     true,
	"Func.NumRegs":   true,
	"Func.RegClass":  false, // Validate only
	"Func.Arrays":    true,
	"Func.FrameSize": false,
	"Func.Allocated": false,

	"Block.ID":       false, // Validate only; the block's index is its identity
	"Block.Instrs":   true,
	"Block.Succs":    true,
	"Block.Freq":     false,
	"Block.LoopHead": false,

	"Instr.Op":     true,
	"Instr.Dst":    true,
	"Instr.Src":    true,
	"Instr.UseImm": true,
	"Instr.Imm":    true,
	"Instr.FImm":   true,
	"Instr.Target": false, // Validate only; control follows Block.Succs
	"Instr.Mem":    true,  // for memory operations without a base register
	"Instr.Hint":   false,
	"Instr.Spill":  true,
	"Instr.Home":   false,
	"Instr.Seq":    false,

	"Array.Name": false,
	"Array.Size": true,
	"Array.Slot": false,

	"MemRef.Array": true, // for memory operations without a base register
	"MemRef.Base":  false,
	"MemRef.Disp":  false,
	"MemRef.Width": false,
	"MemRef.Group": false,
}

// keySample builds a small function touching every classified field: an
// immediate-form add, a float immediate, an absolute spill store and a
// branch to a second block.
func keySample() *ir.Func {
	f := &ir.Func{Name: "sample"}
	a := f.AddArray("a", 64)
	slot := f.AddArray("spill", 16)
	f.Arrays[slot].Slot = true
	x := f.NewReg(ir.RegInt)
	f.NewReg(ir.RegInt)
	y := f.NewReg(ir.RegFP)
	entry := f.NewBlock()
	exit := f.NewBlock()
	entry.Instrs = []*ir.Instr{
		{Op: ir.OpAdd, Dst: x, Src: [2]ir.Reg{x}, UseImm: true, Imm: 3, Home: 0, Seq: 0},
		{Op: ir.OpFMovi, Dst: y, FImm: 1.5, Seq: 1},
		{Op: ir.OpStF, Src: [2]ir.Reg{y, ir.NoReg}, Imm: 8, Spill: ir.SpillStore, Seq: 2,
			Mem: &ir.MemRef{Array: slot, Base: -1, Disp: 8, Width: 8, Group: -1}},
		{Op: ir.OpLdF, Dst: y, Src: [2]ir.Reg{x}, Seq: 3,
			Mem: &ir.MemRef{Array: a, Base: 0, Width: 8, Group: -1}},
		{Op: ir.OpBr, Target: exit.ID, Seq: 4},
	}
	entry.Succs = []int{exit.ID}
	exit.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	return f
}

// keyMutations changes one field of keySample each.
var keyMutations = map[string]func(f *ir.Func){
	"Func.Name":      func(f *ir.Func) { f.Name += "2" },
	"Func.Blocks":    func(f *ir.Func) { f.Blocks[0], f.Blocks[1] = f.Blocks[1], f.Blocks[0] },
	"Func.Entry":     func(f *ir.Func) { f.Entry = 1 },
	"Func.NumRegs":   func(f *ir.Func) { f.NumRegs++ },
	"Func.RegClass":  func(f *ir.Func) { f.RegClass[2] = ir.RegFP },
	"Func.Arrays":    func(f *ir.Func) { f.Arrays = append(f.Arrays, ir.Array{Name: "b", Size: 8}) },
	"Func.FrameSize": func(f *ir.Func) { f.FrameSize += 8 },
	"Func.Allocated": func(f *ir.Func) { f.Allocated = true },

	"Block.ID":       func(f *ir.Func) { f.Blocks[1].ID = 7 },
	"Block.Instrs":   func(f *ir.Func) { f.Blocks[0].Instrs = f.Blocks[0].Instrs[1:] },
	"Block.Succs":    func(f *ir.Func) { f.Blocks[0].Succs = []int{0} },
	"Block.Freq":     func(f *ir.Func) { f.Blocks[0].Freq = 100 },
	"Block.LoopHead": func(f *ir.Func) { f.Blocks[1].LoopHead = true },

	"Instr.Op":     func(f *ir.Func) { f.Blocks[0].Instrs[0].Op = ir.OpSub },
	"Instr.Dst":    func(f *ir.Func) { f.Blocks[0].Instrs[0].Dst = 2 },
	"Instr.Src":    func(f *ir.Func) { f.Blocks[0].Instrs[0].Src[0] = 2 },
	"Instr.UseImm": func(f *ir.Func) { f.Blocks[0].Instrs[0].UseImm = false },
	"Instr.Imm":    func(f *ir.Func) { f.Blocks[0].Instrs[0].Imm = 4 },
	"Instr.FImm":   func(f *ir.Func) { f.Blocks[0].Instrs[1].FImm = 2.5 },
	"Instr.Target": func(f *ir.Func) { f.Blocks[0].Instrs[4].Target = 0 },
	"Instr.Mem":    func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem = nil },
	"Instr.Hint":   func(f *ir.Func) { f.Blocks[0].Instrs[3].Hint = ir.HintMiss },
	"Instr.Spill":  func(f *ir.Func) { f.Blocks[0].Instrs[2].Spill = ir.SpillNone },
	"Instr.Home":   func(f *ir.Func) { f.Blocks[0].Instrs[0].Home = 5 },
	"Instr.Seq":    func(f *ir.Func) { f.Blocks[0].Instrs[0].Seq = 9 },

	"Array.Name": func(f *ir.Func) { f.Arrays[0].Name = "z" },
	"Array.Size": func(f *ir.Func) { f.Arrays[0].Size = 128 },
	"Array.Slot": func(f *ir.Func) { f.Arrays[1].Slot = false },

	"MemRef.Array": func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem.Array = 0 },
	"MemRef.Base":  func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem.Base = 3 },
	"MemRef.Disp":  func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem.Disp = 16 },
	"MemRef.Width": func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem.Width = 4 },
	"MemRef.Group": func(f *ir.Func) { f.Blocks[0].Instrs[2].Mem.Group = 2 },
}

// TestKeyClassifiesEveryIRField is the reflection check behind the grid's
// timing-run memo: every field of the IR types is classified as read or
// not read by the simulator, and has a mutation that proves it.
func TestKeyClassifiesEveryIRField(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range []any{ir.Func{}, ir.Block{}, ir.Instr{}, ir.Array{}, ir.MemRef{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			if _, ok := simReads[name]; !ok {
				t.Errorf("field %s is neither in the simulator's key nor on its not-read list", name)
			}
			if keyMutations[name] == nil {
				t.Errorf("field %s has no mutation in keyMutations", name)
			}
		}
	}
	for name := range simReads {
		if !seen[name] {
			t.Errorf("simReads names %s, which is not a field", name)
		}
	}
}

// TestKeyMatchesClassification mutates each field in turn: a field the
// simulator reads must change SameCode's verdict and the fingerprint, a
// field it does not read must change neither.
func TestKeyMatchesClassification(t *testing.T) {
	base := keySample()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if !SameCode(base, keySample()) || Fingerprint(base) != Fingerprint(keySample()) {
		t.Fatal("two builds of the same function differ")
	}
	for name, mutate := range keyMutations {
		f := keySample()
		mutate(f)
		same, sameFP := SameCode(base, f), Fingerprint(base) == Fingerprint(f)
		if same != SameCode(f, base) {
			t.Errorf("%s: SameCode is not symmetric", name)
		}
		if simReads[name] {
			if same || sameFP {
				t.Errorf("%s is read by the simulator, but a change left SameCode=%v and the fingerprint equal=%v", name, same, sameFP)
			}
		} else if !same || !sameFP {
			t.Errorf("%s is not read by the simulator, but a change gave SameCode=%v and fingerprint equal=%v", name, same, sameFP)
		}
	}
}
