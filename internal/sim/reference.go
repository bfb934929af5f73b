package sim

// The reference stepper: the original *ir.Instr-walking interpreter the
// predecoded fast core (decode.go) was derived from. It executes straight
// off the IR — a map lookup per fetch for the instruction's code address,
// closure-based operand fetch in exec — and is kept precisely because it
// is slow and simple: the differential tests run both cores over the same
// programs and require bit-identical metrics, hierarchy counters, memory
// images and error strings. Select it with Machine.Reference.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
)

// ensureCodeAddr builds the reference stepper's instruction-address map on
// first use. Addresses are assigned exactly as decode does: block order,
// machine.InstrBytes apart, starting at the code-segment base.
func (m *Machine) ensureCodeAddr() {
	if m.codeAddr != nil {
		return
	}
	m.codeAddr = make(map[*ir.Instr]uint64, m.fn.NumInstrs())
	code := uint64(64 * cache.PageSize) // code segment far from data
	for _, b := range m.fn.Blocks {
		for _, in := range b.Instrs {
			m.codeAddr[in] = code
			code += machine.InstrBytes
		}
	}
}

// runReference executes the function with the original stepper. Structure
// and cycle accounting are the model the fast core mirrors statement for
// statement.
func (m *Machine) runReference(met *Metrics, counts []int64, maxInstrs int64) (*Metrics, error) {
	m.ensureCodeAddr()
	var cycle int64
	bid := m.fn.Entry
	for {
		blk := m.fn.Blocks[bid]
		taken := false
		done := false
		for _, in := range blk.Instrs {
			if met.Instrs >= maxInstrs {
				return met, fmt.Errorf("sim: %s exceeded %d instructions (infinite loop?)", m.fn.Name, maxInstrs)
			}
			c, t, d, err := m.step(in, cycle, met)
			if err != nil {
				return met, err
			}
			cycle = c
			if t || d {
				taken, done = t, d
				break
			}
		}
		met.Cycles = cycle
		if done {
			return met, nil
		}
		var next int
		switch {
		case len(blk.Succs) == 0:
			return met, fmt.Errorf("sim: %s b%d has no successor and no ret", m.fn.Name, bid)
		case taken:
			next = blk.Succs[0]
			if counts != nil {
				counts[2*bid]++
			}
		case blk.Term() != nil && blk.Term().Op.IsCondBranch():
			next = blk.Succs[1]
			if counts != nil {
				counts[2*bid+1]++
			}
		default:
			next = blk.Succs[0]
			if counts != nil {
				counts[2*bid]++
			}
		}
		bid = next
	}
}

// step executes one instruction starting at the given cycle and returns
// the cycle after issue, whether a branch was taken, and whether the
// function returned.
func (m *Machine) step(in *ir.Instr, cycle int64, met *Metrics) (int64, bool, bool, error) {
	// Instruction fetch: I-TLB and I-cache.
	if fs := m.hier.FetchLatency(m.codeAddr[in]); fs > 0 {
		met.FetchStall += int64(fs)
		cycle += int64(fs)
		m.newCycle()
	}

	// Register interlocks: wait for sources (and destination, covering
	// write-after-write on a pending load and the read of Dst by
	// conditional moves).
	stallUntil := cycle
	stallOnLoad := false
	consider := func(r ir.Reg) {
		if r == ir.NoReg {
			return
		}
		if t := m.ready[r]; t > stallUntil {
			stallUntil = t
			stallOnLoad = m.isLoad[r]
		} else if t == stallUntil && t > cycle && m.isLoad[r] {
			stallOnLoad = true
		}
	}
	consider(in.Src[0])
	consider(in.Src[1])
	consider(in.Dst)
	if stallUntil > cycle {
		d := stallUntil - cycle
		if stallOnLoad {
			met.LoadInterlock += d
		} else {
			met.FixedInterlock += d
		}
		cycle = stallUntil
		m.newCycle()
	}

	issue := cycle
	cycle = m.advanceIssue(in, cycle)

	met.Instrs++
	met.ByClass[ir.ClassOf(in.Op)]++
	switch in.Spill {
	case ir.SpillStore:
		met.SpillStores++
	case ir.SpillRestore:
		met.SpillRestores++
	}

	switch {
	case in.Op == ir.OpPrefetch:
		met.Prefetches++
		if addr, err := m.effAddr(in); err == nil {
			// Non-faulting: a bad address simply drops the hint. A hint
			// with no free miss register is dropped too, rather than
			// stalling the pipe.
			if m.prefetch(addr, issue) {
				met.PrefetchFills++
			}
		}
		return cycle, false, false, nil

	case in.Op.IsLoad():
		addr, err := m.effAddr(in)
		if err != nil {
			return cycle, false, false, err
		}
		lat, l1hit, mshr := m.loadAccess(addr, issue)
		met.Loads++
		if l1hit {
			met.L1DHits++
		}
		if mshr > 0 {
			// All miss registers busy: the load stalls at issue until
			// one frees. This is load-induced, so it counts as load
			// interlock.
			met.LoadInterlock += mshr
			met.MSHRStall += mshr
			cycle += mshr
			issue += mshr
			m.newCycle()
		}
		var v int64
		if addr+8 <= uint64(len(m.mem)) {
			v = int64(binary.LittleEndian.Uint64(m.mem[addr:]))
		}
		if in.Op == ir.OpLdF {
			m.fpRegs[in.Dst] = math.Float64frombits(uint64(v))
		} else {
			m.intRegs[in.Dst] = v
		}
		m.ready[in.Dst] = issue + int64(lat)
		m.isLoad[in.Dst] = true
		return cycle, false, false, nil

	case in.Op.IsStore():
		addr, err := m.effAddr(in)
		if err != nil {
			return cycle, false, false, err
		}
		if st := m.hier.Store(addr); st > 0 {
			met.StoreStall += int64(st)
			cycle += int64(st)
			m.newCycle()
		}
		if addr+8 <= uint64(len(m.mem)) {
			var bits uint64
			if in.Op == ir.OpStF {
				bits = math.Float64bits(m.fpRegs[in.Src[0]])
			} else {
				bits = uint64(m.intRegs[in.Src[0]])
			}
			binary.LittleEndian.PutUint64(m.mem[addr:], bits)
		}
		return cycle, false, false, nil

	case in.Op.IsBranch():
		if in.Op == ir.OpRet {
			return cycle, false, true, nil
		}
		taken := true
		if in.Op.IsCondBranch() {
			taken = condTaken(in.Op, m.intRegs[in.Src[0]])
			met.Branches++
			if m.predict(in) != taken {
				met.Mispredicts++
				met.BranchStall += machine.MispredictPenalty
				cycle += machine.MispredictPenalty
				m.newCycle()
			}
			m.train(in, taken)
		}
		return cycle, taken, false, nil

	default:
		m.exec(in)
		if in.Dst != ir.NoReg {
			m.ready[in.Dst] = issue + int64(machine.Latency(in.Op))
			m.isLoad[in.Dst] = false
		}
		return cycle, false, false, nil
	}
}

// advanceIssue is the reference stepper's issue-group accounting (the
// fast core precomputes the operands and calls advanceIssueAt).
func (m *Machine) advanceIssue(in *ir.Instr, cycle int64) int64 {
	if m.IssueWidth <= 1 {
		return cycle + 1
	}
	cls := ir.ClassOf(in.Op)
	return m.advanceIssueAt(in.Op.IsMem(),
		cls == ir.ClassFPShort || cls == ir.ClassFPLong, in.Op.IsBranch(), cycle)
}

// exec evaluates a register-only instruction.
func (m *Machine) exec(in *ir.Instr) {
	ints := m.intRegs
	fps := m.fpRegs
	src1 := func() int64 {
		if in.UseImm {
			return in.Imm
		}
		return ints[in.Src[1]]
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpMovi:
		ints[in.Dst] = in.Imm
	case ir.OpMov:
		ints[in.Dst] = ints[in.Src[0]]
	case ir.OpAdd:
		ints[in.Dst] = ints[in.Src[0]] + src1()
	case ir.OpSub:
		ints[in.Dst] = ints[in.Src[0]] - src1()
	case ir.OpMul:
		ints[in.Dst] = ints[in.Src[0]] * src1()
	case ir.OpAnd:
		ints[in.Dst] = ints[in.Src[0]] & src1()
	case ir.OpOr:
		ints[in.Dst] = ints[in.Src[0]] | src1()
	case ir.OpXor:
		ints[in.Dst] = ints[in.Src[0]] ^ src1()
	case ir.OpSll:
		ints[in.Dst] = ints[in.Src[0]] << uint(src1()&63)
	case ir.OpSrl:
		ints[in.Dst] = int64(uint64(ints[in.Src[0]]) >> uint(src1()&63))
	case ir.OpSra:
		ints[in.Dst] = ints[in.Src[0]] >> uint(src1()&63)
	case ir.OpCmpEq:
		ints[in.Dst] = b2i(ints[in.Src[0]] == src1())
	case ir.OpCmpLt:
		ints[in.Dst] = b2i(ints[in.Src[0]] < src1())
	case ir.OpCmpLe:
		ints[in.Dst] = b2i(ints[in.Src[0]] <= src1())
	case ir.OpS4Add:
		ints[in.Dst] = ints[in.Src[0]]*4 + ints[in.Src[1]]
	case ir.OpS8Add:
		ints[in.Dst] = ints[in.Src[0]]*8 + ints[in.Src[1]]
	case ir.OpLdA:
		ints[in.Dst] = int64(m.arrayBase[in.Imm])
	case ir.OpCmovEq:
		if ints[in.Src[0]] == 0 {
			ints[in.Dst] = ints[in.Src[1]]
		}
	case ir.OpCmovNe:
		if ints[in.Src[0]] != 0 {
			ints[in.Dst] = ints[in.Src[1]]
		}
	case ir.OpFMovi:
		fps[in.Dst] = in.FImm
	case ir.OpFMov:
		fps[in.Dst] = fps[in.Src[0]]
	case ir.OpFAdd:
		fps[in.Dst] = fps[in.Src[0]] + fps[in.Src[1]]
	case ir.OpFSub:
		fps[in.Dst] = fps[in.Src[0]] - fps[in.Src[1]]
	case ir.OpFMul:
		fps[in.Dst] = fps[in.Src[0]] * fps[in.Src[1]]
	case ir.OpFDiv:
		fps[in.Dst] = fps[in.Src[0]] / fps[in.Src[1]]
	case ir.OpFSqrt:
		fps[in.Dst] = math.Sqrt(fps[in.Src[0]])
	case ir.OpFNeg:
		fps[in.Dst] = -fps[in.Src[0]]
	case ir.OpFAbs:
		fps[in.Dst] = math.Abs(fps[in.Src[0]])
	case ir.OpFCmpEq:
		ints[in.Dst] = b2i(fps[in.Src[0]] == fps[in.Src[1]])
	case ir.OpFCmpLt:
		ints[in.Dst] = b2i(fps[in.Src[0]] < fps[in.Src[1]])
	case ir.OpFCmpLe:
		ints[in.Dst] = b2i(fps[in.Src[0]] <= fps[in.Src[1]])
	case ir.OpCvtIF:
		fps[in.Dst] = float64(ints[in.Src[0]])
	case ir.OpCvtFI:
		ints[in.Dst] = int64(fps[in.Src[0]])
	case ir.OpFCmovEq:
		if ints[in.Src[0]] == 0 {
			fps[in.Dst] = fps[in.Src[1]]
		}
	case ir.OpFCmovNe:
		if ints[in.Src[0]] != 0 {
			fps[in.Dst] = fps[in.Src[1]]
		}
	}
}

func (m *Machine) predictorIndex(in *ir.Instr) uint64 {
	return (m.codeAddr[in] / machine.InstrBytes) & (1<<predictorBits - 1)
}

func (m *Machine) predict(in *ir.Instr) bool {
	return m.predictor[m.predictorIndex(in)] >= 2
}

func (m *Machine) train(in *ir.Instr, taken bool) {
	i := m.predictorIndex(in)
	c := m.predictor[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	m.predictor[i] = c
}
