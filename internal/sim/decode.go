package sim

// The predecoded fast core. New (via Machine.init) decodes each ir.Instr
// exactly once into a flat, contiguous []decoded slice — dense op kind,
// register indices, immediate, precomputed code address and predictor
// index, precomputed latency and effective-address base — plus a small
// per-block table carrying the successor links. runFast then walks an
// integer PC over the flat slice: no map lookups, no pointer-chasing into
// ir.Instr, no closures, and no heap allocations per instruction. Its
// observable behaviour — every Metrics field, every hierarchy counter,
// the memory image, edge counts and error strings — is bit-identical
// to the reference stepper (reference.go); differential tests enforce it.
// Fingerprint and SameCode, next to decodeInstr, cover exactly the parts
// of a function that decoding reads, so callers can tell when two
// functions must simulate identically.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
)

// decKind is the fast core's dispatch class, a coarser split than ir.Op:
// the hot loop switches on it once, then (for kindExec) on the op.
type decKind uint8

const (
	kindExec decKind = iota
	kindLoad
	kindStore
	kindBranch // unconditional branch (not ret)
	kindCond
	kindRet
	kindPrefetch
)

// decoded is one predecoded instruction. Everything the hot loop needs
// per step is resolved at decode time; the original instruction pointer
// is kept only for error messages (cold paths).
type decoded struct {
	in *ir.Instr // error formatting only

	op    ir.Op
	kind  decKind
	cls   ir.Class
	spill ir.SpillKind

	// advanceIssue inputs at widths > 1.
	isMem, isFP, isBranch bool

	useImm bool
	fpMem  bool // OpLdF / OpStF
	badAbs bool // absolute memory op without a valid array (errors on execution)

	dst, src0, src1 ir.Reg

	imm  int64
	fimm float64

	codeAddr  uint64
	fetchLine uint64 // codeAddr / cache.LineSize
	predIdx   uint32

	lat int64 // machine.Latency(op) for kindExec

	memBase ir.Reg // effective-address base register (NoReg: absolute)
	absAddr int64  // precomputed absolute address when memBase == NoReg
}

// decBlock is the per-block index into the flat stream, mirroring
// ir.Block's control-flow fields so the run loop never touches the IR.
type decBlock struct {
	start, end   int32 // instruction range in Machine.dec
	succ0, succ1 int32 // successor block IDs (-1 when absent)
	nSuccs       int32
	condTerm     bool // terminator exists and is a conditional branch
}

// decode rebuilds the flat instruction stream and block table for the
// machine's current function. Code addresses are assigned exactly as the
// reference stepper's map: block order, machine.InstrBytes apart,
// starting at the code segment base.
func (m *Machine) decode() {
	fn := m.fn
	n := fn.NumInstrs()
	if cap(m.dec) < n {
		m.dec = make([]decoded, 0, n)
	}
	m.dec = m.dec[:0]
	if cap(m.blocks) < len(fn.Blocks) {
		m.blocks = make([]decBlock, 0, len(fn.Blocks))
	}
	m.blocks = m.blocks[:0]

	code := uint64(64 * cache.PageSize) // code segment far from data
	for _, b := range fn.Blocks {
		db := decBlock{start: int32(len(m.dec)), succ0: -1, succ1: -1}
		for _, in := range b.Instrs {
			m.dec = append(m.dec, m.decodeInstr(in, code))
			code += machine.InstrBytes
		}
		db.end = int32(len(m.dec))
		db.nSuccs = int32(len(b.Succs))
		if len(b.Succs) > 0 {
			db.succ0 = int32(b.Succs[0])
		}
		if len(b.Succs) > 1 {
			db.succ1 = int32(b.Succs[1])
		}
		if t := b.Term(); t != nil && t.Op.IsCondBranch() {
			db.condTerm = true
		}
		m.blocks = append(m.blocks, db)
	}
}

func (m *Machine) decodeInstr(in *ir.Instr, code uint64) decoded {
	cls := ir.ClassOf(in.Op)
	d := decoded{
		in:        in,
		op:        in.Op,
		cls:       cls,
		spill:     in.Spill,
		isMem:     in.Op.IsMem(),
		isFP:      cls == ir.ClassFPShort || cls == ir.ClassFPLong,
		isBranch:  in.Op.IsBranch(),
		useImm:    in.UseImm,
		dst:       in.Dst,
		src0:      in.Src[0],
		src1:      in.Src[1],
		imm:       in.Imm,
		fimm:      in.FImm,
		codeAddr:  code,
		fetchLine: code / cache.LineSize,
		predIdx:   uint32((code / machine.InstrBytes) & (1<<predictorBits - 1)),
	}
	switch {
	case in.Op == ir.OpPrefetch:
		d.kind = kindPrefetch
	case in.Op.IsLoad():
		d.kind = kindLoad
		d.fpMem = in.Op == ir.OpLdF
	case in.Op.IsStore():
		d.kind = kindStore
		d.fpMem = in.Op == ir.OpStF
	case in.Op == ir.OpRet:
		d.kind = kindRet
	case in.Op.IsCondBranch():
		d.kind = kindCond
	case in.Op.IsBranch():
		d.kind = kindBranch
	default:
		d.kind = kindExec
		d.lat = int64(machine.Latency(in.Op))
	}
	if d.kind == kindLoad || d.kind == kindStore || d.kind == kindPrefetch {
		d.memBase = in.Src[0]
		if d.kind == kindStore {
			d.memBase = in.Src[1]
		}
		if d.memBase == ir.NoReg {
			if in.Mem == nil || in.Mem.Array < 0 || in.Mem.Array >= len(m.arrayBase) {
				// The error surfaces only if the instruction executes,
				// exactly like the reference stepper's effAddr.
				d.badAbs = true
			} else {
				d.absAddr = int64(m.arrayBase[in.Mem.Array]) + in.Imm
			}
		}
	}
	return d
}

// Fingerprint hashes the parts of fn a timing run reads, and nothing
// else: the name (error messages and the "sim/run" fault key), the entry
// block, the register count, each array's size, the blocks in layout
// order with their successors, and per instruction what decodeInstr
// copies — op, destination, sources, immediate form, integer immediate,
// the bits of the float immediate, spill kind and, for a memory
// operation without a base register, the array it addresses. SameCode
// compares exactly these parts, so functions it accepts have equal
// fingerprints and run bit-identically on the same memory image at the
// same issue width. (New also runs fn.Validate, which reads more, but
// only to reject malformed code.)
func Fingerprint(fn *ir.Func) uint64 {
	h := uint64(14695981039346656037)
	add := func(vs ...uint64) {
		for _, v := range vs {
			h = (h ^ v) * 1099511628211
		}
	}
	for i := 0; i < len(fn.Name); i++ {
		add(uint64(fn.Name[i]))
	}
	add(uint64(len(fn.Name)), uint64(fn.Entry), uint64(fn.NumRegs), uint64(len(fn.Arrays)), uint64(len(fn.Blocks)))
	for _, a := range fn.Arrays {
		add(uint64(a.Size))
	}
	for _, b := range fn.Blocks {
		add(uint64(len(b.Succs)), uint64(len(b.Instrs)))
		for _, s := range b.Succs {
			add(uint64(s))
		}
		for _, in := range b.Instrs {
			add(uint64(in.Op), uint64(in.Dst), uint64(in.Src[0]), uint64(in.Src[1]), uint64(b2i(in.UseImm)),
				uint64(in.Imm), math.Float64bits(in.FImm), uint64(in.Spill), uint64(absArray(in)))
		}
	}
	return h
}

// SameCode reports whether a and b are the same program to a timing run:
// equal in every part Fingerprint hashes.
func SameCode(a, b *ir.Func) bool {
	if a.Name != b.Name || a.Entry != b.Entry || a.NumRegs != b.NumRegs ||
		len(a.Arrays) != len(b.Arrays) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Arrays {
		if a.Arrays[i].Size != b.Arrays[i].Size {
			return false
		}
	}
	for i, ab := range a.Blocks {
		bb := b.Blocks[i]
		if !slices.Equal(ab.Succs, bb.Succs) || len(ab.Instrs) != len(bb.Instrs) {
			return false
		}
		for j, x := range ab.Instrs {
			y := bb.Instrs[j]
			if x.Op != y.Op || x.Dst != y.Dst || x.Src != y.Src || x.UseImm != y.UseImm ||
				x.Imm != y.Imm || math.Float64bits(x.FImm) != math.Float64bits(y.FImm) ||
				x.Spill != y.Spill || absArray(x) != absArray(y) {
				return false
			}
		}
	}
	return true
}

// absArray is the array a memory operation without a base register
// addresses — the one part of in.Mem that decodeInstr reads — and -1
// for every other instruction or when the annotation is missing.
func absArray(in *ir.Instr) int {
	if !in.Op.IsMem() && in.Op != ir.OpPrefetch {
		return -1
	}
	base := in.Src[0]
	if in.Op.IsStore() {
		base = in.Src[1]
	}
	if base != ir.NoReg || in.Mem == nil {
		return -1
	}
	return in.Mem.Array
}

// runFast is the predecoded hot loop. Structure and cycle accounting
// mirror the reference stepper statement for statement; only the data
// representation differs.
func (m *Machine) runFast(met *Metrics, counts []int64, maxInstrs int64) (*Metrics, error) {
	// Invalidate the same-line fetch memo: the previous run's hierarchy
	// state is unknown here, and a cold first fetch through the full
	// hierarchy walk is always correct.
	m.lastFetchLine = ^uint64(0)

	ints, fps := m.intRegs, m.fpRegs
	// Hoist hot loop state into locals: the interleaved hierarchy calls
	// would otherwise force m's fields to be reloaded every instruction.
	dec, blocks := m.dec, m.blocks
	ready, isLoad := m.ready, m.isLoad
	predictor, mem := m.predictor, m.mem
	l1i, itlb := m.hier.L1I, m.hier.ITLB
	var cycle int64
	bid := int32(m.fn.Entry)
	for {
		blk := &blocks[bid]
		taken := false
		done := false
		for pc := blk.start; pc < blk.end; pc++ {
			if met.Instrs >= maxInstrs {
				return met, fmt.Errorf("sim: %s exceeded %d instructions (infinite loop?)", m.fn.Name, maxInstrs)
			}
			d := &dec[pc]

			// Instruction fetch: I-TLB and I-cache. Same-line fast path:
			// only fetches touch the I-side, so a fetch on the line probed
			// by the immediately preceding fetch is a guaranteed L1I hit
			// on an MRU line and an ITLB hit on an MRU page (the previous
			// access allocated both on a miss) — the hierarchy walk would
			// change nothing but the hit counters, which are bumped
			// directly to stay bit-identical with the reference stepper.
			if d.fetchLine == m.lastFetchLine {
				l1i.Hits++
				itlb.Hits++
			} else {
				m.lastFetchLine = d.fetchLine
				if fs := m.hier.FetchLatency(d.codeAddr); fs > 0 {
					met.FetchStall += int64(fs)
					cycle += int64(fs)
					m.newCycle()
				}
			}

			// Register interlocks: wait for sources (and destination,
			// covering write-after-write on a pending load and the read of
			// Dst by conditional moves). Inlined consider(src0), then
			// consider(src1), then consider(dst), preserving the reference
			// stepper's tie-breaking between load and fixed stalls.
			stallUntil := cycle
			stallOnLoad := false
			if r := d.src0; r != ir.NoReg {
				if t := ready[r]; t > stallUntil {
					stallUntil, stallOnLoad = t, isLoad[r]
				} else if t == stallUntil && t > cycle && isLoad[r] {
					stallOnLoad = true
				}
			}
			if r := d.src1; r != ir.NoReg {
				if t := ready[r]; t > stallUntil {
					stallUntil, stallOnLoad = t, isLoad[r]
				} else if t == stallUntil && t > cycle && isLoad[r] {
					stallOnLoad = true
				}
			}
			if r := d.dst; r != ir.NoReg {
				if t := ready[r]; t > stallUntil {
					stallUntil, stallOnLoad = t, isLoad[r]
				} else if t == stallUntil && t > cycle && isLoad[r] {
					stallOnLoad = true
				}
			}
			if stallUntil > cycle {
				dd := stallUntil - cycle
				if stallOnLoad {
					met.LoadInterlock += dd
				} else {
					met.FixedInterlock += dd
				}
				cycle = stallUntil
				m.newCycle()
			}

			issue := cycle
			if m.IssueWidth <= 1 {
				cycle++
			} else {
				cycle = m.advanceIssueAt(d.isMem, d.isFP, d.isBranch, cycle)
			}

			met.Instrs++
			met.ByClass[d.cls]++
			switch d.spill {
			case ir.SpillStore:
				met.SpillStores++
			case ir.SpillRestore:
				met.SpillRestores++
			}

			switch d.kind {
			case kindExec:
				m.execDec(d)
				if d.dst != ir.NoReg {
					ready[d.dst] = issue + d.lat
					isLoad[d.dst] = false
				}

			case kindLoad:
				addr, err := m.effAddrDec(d)
				if err != nil {
					return met, err
				}
				lat, l1hit, mshr := m.loadAccess(addr, issue)
				met.Loads++
				if l1hit {
					met.L1DHits++
				}
				if mshr > 0 {
					// All miss registers busy: the load stalls at issue
					// until one frees. This is load-induced, so it counts
					// as load interlock.
					met.LoadInterlock += mshr
					met.MSHRStall += mshr
					cycle += mshr
					issue += mshr
					m.newCycle()
				}
				var v int64
				if addr+8 <= uint64(len(mem)) {
					v = int64(binary.LittleEndian.Uint64(mem[addr:]))
				}
				if d.fpMem {
					fps[d.dst] = math.Float64frombits(uint64(v))
				} else {
					ints[d.dst] = v
				}
				ready[d.dst] = issue + int64(lat)
				isLoad[d.dst] = true

			case kindStore:
				addr, err := m.effAddrDec(d)
				if err != nil {
					return met, err
				}
				if st := m.hier.Store(addr); st > 0 {
					met.StoreStall += int64(st)
					cycle += int64(st)
					m.newCycle()
				}
				if addr+8 <= uint64(len(mem)) {
					var bits uint64
					if d.fpMem {
						bits = math.Float64bits(fps[d.src0])
					} else {
						bits = uint64(ints[d.src0])
					}
					binary.LittleEndian.PutUint64(mem[addr:], bits)
				}

			case kindCond:
				tk := condTaken(d.op, ints[d.src0])
				met.Branches++
				c := predictor[d.predIdx]
				if (c >= 2) != tk {
					met.Mispredicts++
					met.BranchStall += machine.MispredictPenalty
					cycle += machine.MispredictPenalty
					m.newCycle()
				}
				if tk {
					if c < 3 {
						c++
					}
				} else if c > 0 {
					c--
				}
				predictor[d.predIdx] = c
				if tk {
					taken = true
				}

			case kindBranch:
				taken = true

			case kindRet:
				done = true

			case kindPrefetch:
				met.Prefetches++
				if addr, err := m.effAddrDec(d); err == nil {
					// Non-faulting: a bad address simply drops the hint. A
					// hint with no free miss register is dropped too,
					// rather than stalling the pipe.
					if m.prefetch(addr, issue) {
						met.PrefetchFills++
					}
				}
			}
			if taken || done {
				break
			}
		}
		met.Cycles = cycle
		if done {
			return met, nil
		}
		var next int32
		switch {
		case blk.nSuccs == 0:
			return met, fmt.Errorf("sim: %s b%d has no successor and no ret", m.fn.Name, bid)
		case taken:
			next = blk.succ0
			if counts != nil {
				counts[2*bid]++
			}
		case blk.condTerm:
			next = blk.succ1
			if counts != nil {
				counts[2*bid+1]++
			}
		default:
			next = blk.succ0
			if counts != nil {
				counts[2*bid]++
			}
		}
		bid = next
	}
}

// effAddrDec computes a memory instruction's effective address from its
// decoded form, producing byte-identical errors to effAddr.
func (m *Machine) effAddrDec(d *decoded) (uint64, error) {
	var a int64
	if d.memBase == ir.NoReg {
		if d.badAbs {
			return 0, fmt.Errorf("sim: %v: absolute memory op without valid array", d.in)
		}
		a = d.absAddr
	} else {
		a = m.intRegs[d.memBase] + d.imm
	}
	if a < 0 || uint64(a)+8 > uint64(len(m.mem)) {
		return 0, fmt.Errorf("sim: %s: address %#x out of range for %v", m.fn.Name, a, d.in)
	}
	return uint64(a), nil
}

// s1 is the second integer operand: the immediate or the Src[1] register.
func (m *Machine) s1(d *decoded) int64 {
	if d.useImm {
		return d.imm
	}
	return m.intRegs[d.src1]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execDec evaluates a register-only instruction from its decoded form:
// the reference stepper's exec with direct switch arms instead of
// closure-based operand fetch.
func (m *Machine) execDec(d *decoded) {
	ints := m.intRegs
	fps := m.fpRegs
	switch d.op {
	case ir.OpMovi:
		ints[d.dst] = d.imm
	case ir.OpMov:
		ints[d.dst] = ints[d.src0]
	case ir.OpAdd:
		ints[d.dst] = ints[d.src0] + m.s1(d)
	case ir.OpSub:
		ints[d.dst] = ints[d.src0] - m.s1(d)
	case ir.OpMul:
		ints[d.dst] = ints[d.src0] * m.s1(d)
	case ir.OpAnd:
		ints[d.dst] = ints[d.src0] & m.s1(d)
	case ir.OpOr:
		ints[d.dst] = ints[d.src0] | m.s1(d)
	case ir.OpXor:
		ints[d.dst] = ints[d.src0] ^ m.s1(d)
	case ir.OpSll:
		ints[d.dst] = ints[d.src0] << uint(m.s1(d)&63)
	case ir.OpSrl:
		ints[d.dst] = int64(uint64(ints[d.src0]) >> uint(m.s1(d)&63))
	case ir.OpSra:
		ints[d.dst] = ints[d.src0] >> uint(m.s1(d)&63)
	case ir.OpCmpEq:
		ints[d.dst] = b2i(ints[d.src0] == m.s1(d))
	case ir.OpCmpLt:
		ints[d.dst] = b2i(ints[d.src0] < m.s1(d))
	case ir.OpCmpLe:
		ints[d.dst] = b2i(ints[d.src0] <= m.s1(d))
	case ir.OpS4Add:
		ints[d.dst] = ints[d.src0]*4 + ints[d.src1]
	case ir.OpS8Add:
		ints[d.dst] = ints[d.src0]*8 + ints[d.src1]
	case ir.OpLdA:
		ints[d.dst] = int64(m.arrayBase[d.imm])
	case ir.OpCmovEq:
		if ints[d.src0] == 0 {
			ints[d.dst] = ints[d.src1]
		}
	case ir.OpCmovNe:
		if ints[d.src0] != 0 {
			ints[d.dst] = ints[d.src1]
		}
	case ir.OpFMovi:
		fps[d.dst] = d.fimm
	case ir.OpFMov:
		fps[d.dst] = fps[d.src0]
	case ir.OpFAdd:
		fps[d.dst] = fps[d.src0] + fps[d.src1]
	case ir.OpFSub:
		fps[d.dst] = fps[d.src0] - fps[d.src1]
	case ir.OpFMul:
		fps[d.dst] = fps[d.src0] * fps[d.src1]
	case ir.OpFDiv:
		fps[d.dst] = fps[d.src0] / fps[d.src1]
	case ir.OpFSqrt:
		fps[d.dst] = math.Sqrt(fps[d.src0])
	case ir.OpFNeg:
		fps[d.dst] = -fps[d.src0]
	case ir.OpFAbs:
		fps[d.dst] = math.Abs(fps[d.src0])
	case ir.OpFCmpEq:
		ints[d.dst] = b2i(fps[d.src0] == fps[d.src1])
	case ir.OpFCmpLt:
		ints[d.dst] = b2i(fps[d.src0] < fps[d.src1])
	case ir.OpFCmpLe:
		ints[d.dst] = b2i(fps[d.src0] <= fps[d.src1])
	case ir.OpCvtIF:
		fps[d.dst] = float64(ints[d.src0])
	case ir.OpCvtFI:
		ints[d.dst] = int64(fps[d.src0])
	case ir.OpFCmovEq:
		if ints[d.src0] == 0 {
			fps[d.dst] = fps[d.src1]
		}
	case ir.OpFCmovNe:
		if ints[d.src0] != 0 {
			fps[d.dst] = fps[d.src1]
		}
	}
}
