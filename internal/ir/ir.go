// Package ir defines the low-level intermediate representation used by the
// schedulers, the register allocator and the simulator: an Alpha-like
// register machine organized as a control-flow graph of basic blocks.
//
// The representation is executable (see internal/sim): integer registers
// hold int64 values, floating-point registers hold float64 values, and
// memory is byte addressed. Loads and stores optionally carry a MemRef
// annotation that records which array they touch and at which symbolic
// offset; the annotation powers array dependence disambiguation in the DAG
// builder and hit/miss prediction in locality analysis.
package ir

import (
	"fmt"
	"slices"
)

// Reg names a register. Register 0 is the invalid/absent register. Before
// register allocation registers are virtual and unbounded; after allocation
// they are physical (see internal/regalloc). A register's class (integer or
// floating point) is recorded in Func.RegClass.
type Reg int32

// NoReg is the absent register operand.
const NoReg Reg = 0

// RegClass distinguishes the two register banks of the machine.
type RegClass uint8

const (
	// RegInt is the integer register bank.
	RegInt RegClass = iota
	// RegFP is the floating-point register bank.
	RegFP
)

func (c RegClass) String() string {
	if c == RegFP {
		return "fp"
	}
	return "int"
}

// Op enumerates the instruction opcodes of the machine. The set follows the
// DEC Alpha integer/floating-point split used by the paper's Table 3: short
// integer operations, integer multiply, loads, stores, short floating-point
// operations, floating-point divide (and square root, modelled at divide
// latency) and branches.
type Op uint8

const (
	// OpInvalid is the zero Op and is never valid in a program.
	OpInvalid Op = iota

	// Integer operations (latency 1, except OpMul).

	// OpMovi sets Dst to the immediate: dst = imm.
	OpMovi
	// OpMov copies an integer register: dst = src0.
	OpMov
	// OpAdd computes dst = src0 + src1 (or src0 + imm when UseImm).
	OpAdd
	// OpSub computes dst = src0 - src1 (or src0 - imm when UseImm).
	OpSub
	// OpMul computes dst = src0 * src1 (or src0 * imm); latency 8.
	OpMul
	// OpAnd computes dst = src0 & src1 (or imm).
	OpAnd
	// OpOr computes dst = src0 | src1 (or imm).
	OpOr
	// OpXor computes dst = src0 ^ src1 (or imm).
	OpXor
	// OpSll computes dst = src0 << src1 (or imm).
	OpSll
	// OpSrl computes dst = int64(uint64(src0) >> src1) (or imm).
	OpSrl
	// OpSra computes dst = src0 >> src1 (arithmetic; or imm).
	OpSra
	// OpCmpEq computes dst = 1 if src0 == src1 (or imm) else 0.
	OpCmpEq
	// OpCmpLt computes dst = 1 if src0 < src1 (or imm) else 0.
	OpCmpLt
	// OpCmpLe computes dst = 1 if src0 <= src1 (or imm) else 0.
	OpCmpLe
	// OpS4Add computes dst = src0*4 + src1: a scaled add for addressing.
	OpS4Add
	// OpS8Add computes dst = src0*8 + src1: a scaled add for addressing.
	OpS8Add
	// OpLdA materializes the base address of array #Imm: dst = &array[Imm].
	// Array base addresses are assigned by the simulator, so code remains
	// position independent.
	OpLdA
	// OpCmovEq conditionally moves: if src0 == 0 then dst = src1.
	// Dst is read as well as written.
	OpCmovEq
	// OpCmovNe conditionally moves: if src0 != 0 then dst = src1.
	// Dst is read as well as written.
	OpCmovNe

	// Memory operations. Loads have latency 2 on an L1 hit; the actual
	// latency is determined by the simulated memory hierarchy.
	// The effective address is src-base + Imm; when the base register is
	// NoReg and Mem is set, the address is absolute within Mem.Array
	// (&array + Imm) — spill code uses this form, so spills need no base
	// register.

	// OpLd loads an int64: dst = mem[src0 + imm].
	OpLd
	// OpLdF loads a float64: dst = mem[src0 + imm].
	OpLdF
	// OpSt stores an int64: mem[src1 + imm] = src0.
	OpSt
	// OpStF stores a float64: mem[src1 + imm] = src0.
	OpStF
	// OpPrefetch hints the memory system to fetch the line at
	// src0 + Imm into the data cache without blocking, writing no
	// register and never faulting (out-of-range addresses are ignored,
	// like the Alpha FETCH instruction). It carries no memory-ordering
	// constraints.
	OpPrefetch

	// Floating-point operations (latency 4, divide/sqrt longer).

	// OpFMovi sets an FP register to the immediate: dst = fimm.
	OpFMovi
	// OpFMov copies an FP register: dst = src0.
	OpFMov
	// OpFAdd computes dst = src0 + src1.
	OpFAdd
	// OpFSub computes dst = src0 - src1.
	OpFSub
	// OpFMul computes dst = src0 * src1.
	OpFMul
	// OpFDiv computes dst = src0 / src1; latency 30 (53-bit fraction).
	OpFDiv
	// OpFSqrt computes dst = sqrt(src0); modelled at divide latency.
	OpFSqrt
	// OpFNeg computes dst = -src0.
	OpFNeg
	// OpFAbs computes dst = |src0|.
	OpFAbs
	// OpFCmpEq writes an integer register: dst = 1 if src0 == src1 else 0.
	OpFCmpEq
	// OpFCmpLt writes an integer register: dst = 1 if src0 < src1 else 0.
	OpFCmpLt
	// OpFCmpLe writes an integer register: dst = 1 if src0 <= src1 else 0.
	OpFCmpLe
	// OpCvtIF converts int64 to float64: dst(fp) = float64(src0(int)).
	OpCvtIF
	// OpCvtFI converts float64 to int64 (truncating): dst(int) = int64(src0(fp)).
	OpCvtFI
	// OpFCmovEq conditionally moves FP: if src0(int) == 0 then dst = src1(fp).
	// Dst is read as well as written.
	OpFCmovEq
	// OpFCmovNe conditionally moves FP: if src0(int) != 0 then dst = src1(fp).
	// Dst is read as well as written.
	OpFCmovNe

	// Control transfer (latency 2).

	// OpBr branches unconditionally to Target.
	OpBr
	// OpBeq branches to Target if src0 == 0.
	OpBeq
	// OpBne branches to Target if src0 != 0.
	OpBne
	// OpBlt branches to Target if src0 < 0.
	OpBlt
	// OpBle branches to Target if src0 <= 0.
	OpBle
	// OpBgt branches to Target if src0 > 0.
	OpBgt
	// OpBge branches to Target if src0 >= 0.
	OpBge
	// OpRet returns from the function.
	OpRet

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpMovi:    "movi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra",
	OpCmpEq: "cmpeq", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpS4Add: "s4add", OpS8Add: "s8add", OpLdA: "lda",
	OpCmovEq: "cmoveq", OpCmovNe: "cmovne",
	OpLd: "ld", OpLdF: "ldf", OpSt: "st", OpStF: "stf", OpPrefetch: "prefetch",
	OpFMovi: "fmovi", OpFMov: "fmov", OpFAdd: "fadd", OpFSub: "fsub",
	OpFMul: "fmul", OpFDiv: "fdiv", OpFSqrt: "fsqrt",
	OpFNeg: "fneg", OpFAbs: "fabs",
	OpFCmpEq: "fcmpeq", OpFCmpLt: "fcmplt", OpFCmpLe: "fcmple",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpFCmovEq: "fcmoveq", OpFCmovNe: "fcmovne",
	OpBr: "br", OpBeq: "beq", OpBne: "bne", OpBlt: "blt",
	OpBle: "ble", OpBgt: "bgt", OpBge: "bge", OpRet: "ret",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op == OpLd || op == OpLdF }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op == OpSt || op == OpStF }

// IsMem reports whether op accesses memory with ordering constraints;
// prefetch hints are excluded (they are advisory and never conflict).
func (op Op) IsMem() bool { return op.IsLoad() || op.IsStore() }

// IsBranch reports whether op transfers control (including OpRet).
func (op Op) IsBranch() bool { return op >= OpBr && op <= OpRet }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return op >= OpBeq && op <= OpBge }

// IsCmov reports whether op is a conditional move (its Dst is also a source).
func (op Op) IsCmov() bool {
	return op == OpCmovEq || op == OpCmovNe || op == OpFCmovEq || op == OpFCmovNe
}

// HasDst reports whether op defines a destination register.
func (op Op) HasDst() bool {
	return !op.IsBranch() && !op.IsStore() && op != OpPrefetch && op != OpInvalid
}

// CanSpeculate reports whether op may be executed speculatively above a
// split during trace scheduling, as far as the operation itself is
// concerned (register liveness constraints are checked separately).
// Stores and branches must not be speculated. Loads are considered safe,
// matching the Multiflow compiler's policy for these benchmarks (array
// storage is padded so speculative accesses cannot fault).
func (op Op) CanSpeculate() bool { return !op.IsStore() && !op.IsBranch() }

// Class buckets opcodes for the dynamic instruction accounting reported in
// the paper's Section 4.3: long and short integers, long and short floating
// point, loads, stores and branches. Spill/restore instructions are flagged
// separately on the Instr.
type Class uint8

const (
	// ClassIntShort covers single-cycle integer operations.
	ClassIntShort Class = iota
	// ClassIntLong covers integer multiply.
	ClassIntLong
	// ClassFPShort covers pipelined floating-point operations.
	ClassFPShort
	// ClassFPLong covers floating-point divide and square root.
	ClassFPLong
	// ClassLoad covers memory loads.
	ClassLoad
	// ClassStore covers memory stores.
	ClassStore
	// ClassBranch covers control transfers.
	ClassBranch

	// NumClasses is the number of instruction classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"int-short", "int-long", "fp-short", "fp-long", "load", "store", "branch",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the accounting class of op.
func ClassOf(op Op) Class {
	switch {
	case op.IsLoad():
		return ClassLoad
	case op.IsStore():
		return ClassStore
	case op.IsBranch():
		return ClassBranch
	case op == OpMul:
		return ClassIntLong
	case op == OpFDiv || op == OpFSqrt:
		return ClassFPLong
	case op >= OpFMovi && op <= OpFCmovNe:
		return ClassFPShort
	default:
		return ClassIntShort
	}
}

// CacheHint is a compiler prediction about a load's cache behaviour,
// produced by locality analysis. Loads predicted to hit keep the
// traditional (optimistic) weight; misses and unknowns are balanced
// scheduled.
type CacheHint uint8

const (
	// HintNone means locality analysis had nothing to say.
	HintNone CacheHint = iota
	// HintHit predicts an L1 hit.
	HintHit
	// HintMiss predicts an L1 miss.
	HintMiss
)

func (h CacheHint) String() string {
	switch h {
	case HintHit:
		return "hit"
	case HintMiss:
		return "miss"
	default:
		return "none"
	}
}

// SpillKind marks instructions inserted by the register allocator, which
// the paper counts separately from program loads and stores.
type SpillKind uint8

const (
	// SpillNone marks ordinary program instructions.
	SpillNone SpillKind = iota
	// SpillStore marks a spill (register → stack slot).
	SpillStore
	// SpillRestore marks a restore (stack slot → register).
	SpillRestore
)

// MemRef annotates a load or store with the symbolic location it accesses,
// enabling array dependence disambiguation inside a scheduling region.
//
// Two references conflict unless the representation can prove they are
// disjoint: references to different arrays never conflict; references to
// the same array through the same symbolic base expression (Base) conflict
// only if their constant byte ranges [Disp, Disp+Width) overlap. A
// reference with Array < 0 (unknown) conflicts with everything.
type MemRef struct {
	// Array identifies the array or stack slot accessed; -1 if unknown.
	Array int
	// Base identifies the symbolic (loop-variant) part of the address
	// within the array; references sharing Base differ only by Disp.
	// Base is -1 when the symbolic part is unknown.
	Base int
	// Disp is the constant byte offset applied to the base expression.
	Disp int64
	// Width is the access width in bytes.
	Width int64
	// Group links loads that locality analysis placed in one reuse group;
	// -1 if none. Within a group, hint-miss loads must precede hint-hit
	// loads, which the DAG builder enforces with extra arcs.
	Group int
}

// Conflicts reports whether two memory references may touch overlapping
// memory.
func (m *MemRef) Conflicts(o *MemRef) bool {
	if m == nil || o == nil {
		return true
	}
	if m.Array < 0 || o.Array < 0 {
		return true
	}
	if m.Array != o.Array {
		return false
	}
	if m.Base < 0 || o.Base < 0 || m.Base != o.Base {
		return true
	}
	return m.Disp < o.Disp+o.Width && o.Disp < m.Disp+m.Width
}

// Instr is a single machine instruction.
type Instr struct {
	// Op is the opcode.
	Op Op
	// Dst is the destination register (NoReg if none). For conditional
	// moves Dst is also read.
	Dst Reg
	// Src holds up to two source registers; unused slots are NoReg.
	// For stores Src[0] is the value and Src[1] the address base.
	// For loads Src[0] is the address base.
	Src [2]Reg
	// UseImm selects the immediate form: the second operand of a binary
	// integer operation is Imm rather than Src[1].
	UseImm bool
	// Imm is the immediate operand, or the address displacement for
	// memory operations.
	Imm int64
	// FImm is the immediate for OpFMovi.
	FImm float64
	// Target is the destination block ID for branches.
	Target int
	// Mem annotates memory operations for dependence disambiguation.
	Mem *MemRef
	// Hint is the locality-analysis cache prediction for loads.
	Hint CacheHint
	// Spill marks register-allocator-inserted instructions.
	Spill SpillKind
	// Home is the ID of the block the instruction originated in; trace
	// scheduling uses it to detect cross-block motion. Lowering sets it.
	Home int
	// Seq is the instruction's position in the original generated order,
	// used as the final scheduling tie-breaker.
	Seq int
}

// Uses returns the registers read by the instruction (excluding NoReg).
// The result may alias a small internal buffer; callers must not retain it
// across calls. Conditional moves include Dst among the uses.
func (in *Instr) Uses(buf []Reg) []Reg {
	buf = buf[:0]
	for _, r := range in.Src {
		if r != NoReg {
			buf = append(buf, r)
		}
	}
	if in.Op.IsCmov() && in.Dst != NoReg {
		buf = append(buf, in.Dst)
	}
	return buf
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

func (in *Instr) String() string {
	s := in.Op.String()
	if in.Dst != NoReg {
		s += fmt.Sprintf(" r%d", in.Dst)
	}
	for _, r := range in.Src {
		if r != NoReg {
			s += fmt.Sprintf(" r%d", r)
		}
	}
	if in.UseImm || in.Op == OpMovi || in.Op.IsMem() {
		s += fmt.Sprintf(" #%d", in.Imm)
	}
	if in.Op == OpFMovi {
		s += fmt.Sprintf(" #%g", in.FImm)
	}
	if in.Op.IsBranch() && in.Op != OpRet {
		s += fmt.Sprintf(" ->b%d", in.Target)
	}
	if in.Hint != HintNone {
		s += " [" + in.Hint.String() + "]"
	}
	switch in.Spill {
	case SpillStore:
		s += " [spill]"
	case SpillRestore:
		s += " [restore]"
	}
	return s
}

// Clone returns a deep copy of the instruction (including its MemRef).
func (in *Instr) Clone() *Instr {
	c := *in
	if in.Mem != nil {
		m := *in.Mem
		c.Mem = &m
	}
	return &c
}

// Block is a basic block: a branch-free instruction sequence except for an
// optional terminating branch. Succs lists successor block IDs: for a
// conditional branch, Succs[0] is the taken target and Succs[1] the
// fall-through; for an unconditional branch, Succs[0] is the target; a
// block without a branch falls through to Succs[0]; a block ending in
// OpRet has no successors.
type Block struct {
	// ID is the block's identity, an index into Func.Blocks.
	ID int
	// Instrs is the instruction sequence.
	Instrs []*Instr
	// Succs lists successor block IDs (see type comment).
	Succs []int
	// Freq is the profiled or estimated execution count, used by trace
	// selection.
	Freq int64
	// LoopHead marks loop header blocks; trace growth never crosses the
	// back edge into a loop head.
	LoopHead bool
}

// Term returns the block's terminating branch instruction, or nil if the
// block falls through.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsBranch() {
		return b.Instrs[n-1]
	}
	return nil
}

// Array describes a simulated data object: a named region of memory with a
// fixed size. The simulator assigns concrete base addresses, aligned to
// cache lines (the paper aligns arrays on cache-line boundaries).
type Array struct {
	// Name is the array's source-level name.
	Name string
	// Size is the array's extent in bytes.
	Size int64
	// Slot marks register-allocator spill slots.
	Slot bool
}

// Func is a complete compiled function: a CFG over Blocks plus register
// metadata and the data objects the code references.
type Func struct {
	// Name identifies the function.
	Name string
	// Blocks is the CFG in layout order; Blocks[i].ID == i.
	Blocks []*Block
	// Entry is the ID of the entry block.
	Entry int
	// NumRegs is one past the largest register number in use.
	NumRegs int
	// RegClass maps each register to its bank; indexed by Reg.
	RegClass []RegClass
	// Arrays lists the data objects; MemRef.Array indexes this slice.
	Arrays []Array
	// FrameSize is the number of spill-slot bytes added by regalloc.
	FrameSize int64
	// Allocated records that physical register numbers have been
	// assigned (registers 1..64; see internal/regalloc).
	Allocated bool
}

// Clone returns a deep copy of f that shares no mutable state with it:
// blocks, instructions, memory references and successor lists are each
// copied out of one slab, and RegClass and Arrays are copied too, since
// register allocation appends to Arrays. Every block's Instrs and Succs
// are capped at their length, so an append to one copies it out instead
// of writing into its neighbour's slice.
func (f *Func) Clone() *Func {
	nInstrs, nMems, nSuccs := 0, 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		nSuccs += len(b.Succs)
		for _, in := range b.Instrs {
			if in.Mem != nil {
				nMems++
			}
		}
	}
	c := *f
	c.RegClass = slices.Clone(f.RegClass)
	c.Arrays = slices.Clone(f.Arrays)
	c.Blocks = make([]*Block, len(f.Blocks))
	blocks := make([]Block, len(f.Blocks))
	instrs := make([]Instr, nInstrs)
	ptrs := make([]*Instr, nInstrs)
	mems := make([]MemRef, nMems)
	succs := make([]int, nSuccs)
	for i, b := range f.Blocks {
		nb := &blocks[i]
		*nb = *b
		if b.Instrs != nil {
			n := len(b.Instrs)
			nb.Instrs, ptrs = ptrs[:n:n], ptrs[n:]
			for j, in := range b.Instrs {
				ni := &instrs[0]
				instrs = instrs[1:]
				*ni = *in
				if in.Mem != nil {
					ni.Mem = &mems[0]
					mems = mems[1:]
					*ni.Mem = *in.Mem
				}
				nb.Instrs[j] = ni
			}
		}
		if b.Succs != nil {
			n := len(b.Succs)
			nb.Succs, succs = succs[:n:n], succs[n:]
			copy(nb.Succs, b.Succs)
		}
		c.Blocks[i] = nb
	}
	return &c
}

// NewReg allocates a fresh virtual register of class c.
func (f *Func) NewReg(c RegClass) Reg {
	if f.NumRegs == 0 {
		f.NumRegs = 1 // register 0 is NoReg
		f.RegClass = append(f.RegClass, RegInt)
	}
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.RegClass = append(f.RegClass, c)
	return r
}

// NewBlock appends a new empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddArray registers a data object and returns its array ID.
func (f *Func) AddArray(name string, size int64) int {
	f.Arrays = append(f.Arrays, Array{Name: name, Size: size})
	return len(f.Arrays) - 1
}

// ClassOfReg returns the register class of r.
func (f *Func) ClassOfReg(r Reg) RegClass {
	if int(r) < len(f.RegClass) {
		return f.RegClass[r]
	}
	return RegInt
}

// NumInstrs returns the static instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// String renders the function as readable assembly, for tests and debugging.
func (f *Func) String() string {
	s := "func " + f.Name + ":\n"
	for _, b := range f.Blocks {
		s += fmt.Sprintf("b%d:  (succs %v, freq %d)\n", b.ID, b.Succs, b.Freq)
		for _, in := range b.Instrs {
			s += "\t" + in.String() + "\n"
		}
	}
	return s
}

// Validate checks structural invariants of the function: block IDs match
// their position, branch targets exist and agree with successor edges, only
// terminators transfer control, and register operands are in range with
// consistent classes. It returns the first violation found.
func (f *Func) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: func %s has no blocks", f.Name)
	}
	if f.Entry < 0 || f.Entry >= len(f.Blocks) {
		return fmt.Errorf("ir: func %s entry %d out of range", f.Name, f.Entry)
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("ir: func %s block %d has ID %d", f.Name, i, b.ID)
		}
		for j, in := range b.Instrs {
			if in.Op.IsBranch() && j != len(b.Instrs)-1 {
				return fmt.Errorf("ir: %s b%d: branch %v not at block end", f.Name, i, in)
			}
			if err := f.validateOperands(in); err != nil {
				return fmt.Errorf("ir: %s b%d: %v", f.Name, i, err)
			}
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("ir: %s b%d: successor %d out of range", f.Name, i, s)
			}
		}
		switch t := b.Term(); {
		case t == nil:
			if len(b.Succs) != 1 {
				return fmt.Errorf("ir: %s b%d: fallthrough block needs 1 successor, has %d", f.Name, i, len(b.Succs))
			}
		case t.Op == OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("ir: %s b%d: ret block has successors", f.Name, i)
			}
		case t.Op == OpBr:
			if len(b.Succs) != 1 || b.Succs[0] != t.Target {
				return fmt.Errorf("ir: %s b%d: br target/successor mismatch", f.Name, i)
			}
		default: // conditional branch
			if len(b.Succs) != 2 || b.Succs[0] != t.Target {
				return fmt.Errorf("ir: %s b%d: cond branch needs [taken, fallthrough] successors", f.Name, i)
			}
		}
	}
	return nil
}

func (f *Func) validateOperands(in *Instr) error {
	check := func(r Reg, want RegClass, what string) error {
		if r == NoReg {
			return nil
		}
		if int(r) >= f.NumRegs {
			return fmt.Errorf("%v: %s register r%d out of range", in, what, r)
		}
		if f.ClassOfReg(r) != want {
			return fmt.Errorf("%v: %s register r%d has class %v, want %v", in, what, r, f.ClassOfReg(r), want)
		}
		return nil
	}
	dc, s0c, s1c := regClasses(in.Op)
	if in.Dst != NoReg && in.Op.HasDst() {
		if err := check(in.Dst, dc, "dst"); err != nil {
			return err
		}
	}
	if err := check(in.Src[0], s0c, "src0"); err != nil {
		return err
	}
	return check(in.Src[1], s1c, "src1")
}

// regClasses returns the expected register classes for (dst, src0, src1).
func regClasses(op Op) (dst, src0, src1 RegClass) {
	switch op {
	case OpLdF:
		return RegFP, RegInt, RegInt
	case OpStF:
		return RegInt, RegFP, RegInt
	case OpFMovi:
		return RegFP, RegInt, RegInt
	case OpFMov, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt, OpFNeg, OpFAbs:
		return RegFP, RegFP, RegFP
	case OpFCmpEq, OpFCmpLt, OpFCmpLe:
		return RegInt, RegFP, RegFP
	case OpCvtIF:
		return RegFP, RegInt, RegInt
	case OpCvtFI:
		return RegInt, RegFP, RegFP
	case OpFCmovEq, OpFCmovNe:
		return RegFP, RegInt, RegFP
	default:
		return RegInt, RegInt, RegInt
	}
}
