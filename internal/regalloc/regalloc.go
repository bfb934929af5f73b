// Package regalloc assigns the Alpha's physical registers (32 integer +
// 32 floating point) to the virtual registers of scheduled code, spilling
// to stack slots when pressure exceeds the machine. The paper's results
// depend on this phase being real: aggressive unrolling raises register
// pressure until spill loads and restores appear in the dynamic
// instruction mix (Section 5.1 — TRFD and tomcatv regress at unroll-8
// because of spill code), so the allocator inserts genuine load/store
// instructions that travel through the simulated memory hierarchy.
//
// The algorithm is linear scan over whole-function live intervals
// (Poletto–Sarkar): intervals are built from block-level liveness, sorted
// by start, and allocated greedily; when a class runs out the interval
// with the furthest end is spilled. Spilled virtuals live in a per-function
// spill area and are restored into reserved scratch registers around each
// use — the classic reserved-register spilling scheme. Of each 32-register
// bank, 25 are allocatable, 3 (integer) / 2 (FP) are spill scratch and the
// rest model ABI-reserved registers (sp, gp, ra, zero).
package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Physical register numbering after allocation: integer registers occupy
// 1..32 and floating-point registers 33..64.
const (
	intPhysBase = 1
	fpPhysBase  = 33
	// AllocatableInt and AllocatableFP are the per-bank allocatable
	// register counts.
	AllocatableInt = 25
	AllocatableFP  = 25
	// intScratch/fpScratch are reserved for spill restores. A conditional
	// move can read three registers (two sources plus its destination),
	// so the integer bank reserves three.
	intScratch0 = intPhysBase + AllocatableInt // 26, 27, 28
	fpScratch0  = fpPhysBase + AllocatableFP   // 58, 59
	// PhysRegs is one past the largest physical register number.
	PhysRegs = 65
)

// Report summarises an allocation, for experiments and tests.
type Report struct {
	// Spilled counts virtual registers assigned to stack slots.
	Spilled int
	// Restores and Spills count inserted instructions.
	Restores, Spills int
	// SlotBytes is the spill area size.
	SlotBytes int64
}

type interval struct {
	reg        ir.Reg
	start, end int
	uses       int
	cls        ir.RegClass
}

// IsSpillScratch reports whether r is one of the reserved spill-scratch
// physical registers.
func IsSpillScratch(r ir.Reg) bool {
	return (r >= intScratch0 && r < intScratch0+3) || (r >= fpScratch0 && r < fpScratch0+2)
}

// Allocate rewrites fn in place onto physical registers, inserting spill
// code as needed, and returns a report. The function must not already be
// allocated. Allocator counters (interval count, per-bank peak pressure,
// spill traffic) go into st; a nil st is free. When check is set, the
// post-conditions are verified: no two overlapping live intervals share
// a physical register, and the rewritten function passes the regalloc
// checks of internal/verify (spill/restore pairing, scratch discipline,
// frame layout).
func Allocate(fn *ir.Func, st *obs.Stats, check bool) (*Report, error) {
	if err := faultinject.Hit("regalloc/allocate", fn.Name); err != nil {
		return nil, err
	}
	if fn.Allocated {
		return nil, fmt.Errorf("regalloc: %s already allocated", fn.Name)
	}
	rep := &Report{}

	intervals := buildIntervals(fn)
	if st != nil {
		st.Add("regalloc/intervals", int64(len(intervals)))
		st.Observe("regalloc/peak_int_pressure", peakPressure(intervals, ir.RegInt))
		st.Observe("regalloc/peak_fp_pressure", peakPressure(intervals, ir.RegFP))
	}
	sort.Slice(intervals, func(a, b int) bool {
		if intervals[a].start != intervals[b].start {
			return intervals[a].start < intervals[b].start
		}
		return intervals[a].reg < intervals[b].reg
	})

	assign := make([]ir.Reg, fn.NumRegs) // virtual -> physical (0 = spilled/unused)
	spilled := make([]bool, fn.NumRegs)

	type activeEntry struct {
		iv   *interval
		phys ir.Reg
	}
	var active []activeEntry
	freeInt := freeList(intPhysBase, AllocatableInt)
	freeFP := freeList(fpPhysBase, AllocatableFP)

	expire := func(pos int) {
		keep := active[:0]
		for _, ae := range active {
			if ae.iv.end <= pos {
				if ae.iv.cls == ir.RegInt {
					freeInt = append(freeInt, ae.phys)
				} else {
					freeFP = append(freeFP, ae.phys)
				}
			} else {
				keep = append(keep, ae)
			}
		}
		active = keep
	}

	for i := range intervals {
		iv := &intervals[i]
		expire(iv.start)
		free := &freeInt
		if iv.cls == ir.RegFP {
			free = &freeFP
		}
		if len(*free) > 0 {
			phys := (*free)[len(*free)-1]
			*free = (*free)[:len(*free)-1]
			assign[iv.reg] = phys
			active = append(active, activeEntry{iv: iv, phys: phys})
			continue
		}
		// Spill the cheapest same-class candidate: fewest static uses
		// (every use of a spilled register becomes a memory access), with
		// the furthest end breaking ties. A loop-carried register has
		// many uses, so it stays in a register while single-use
		// temporaries go to memory.
		victim := -1
		better := func(a, b *interval) bool { // a is the cheaper spill
			if a.uses != b.uses {
				return a.uses < b.uses
			}
			return a.end > b.end
		}
		for ai, ae := range active {
			if ae.iv.cls != iv.cls {
				continue
			}
			if victim < 0 || better(ae.iv, active[victim].iv) {
				victim = ai
			}
		}
		if victim >= 0 && better(active[victim].iv, iv) {
			ae := active[victim]
			assign[iv.reg] = ae.phys
			assign[ae.iv.reg] = 0
			spilled[ae.iv.reg] = true
			active[victim] = activeEntry{iv: iv, phys: ae.phys}
		} else {
			spilled[iv.reg] = true
		}
	}

	for r := 1; r < fn.NumRegs; r++ {
		if spilled[r] {
			rep.Spilled++
		}
	}

	slotArray := fn.AddArray("spill", 0)
	fn.Arrays[slotArray].Slot = true
	slotOf := make([]int64, fn.NumRegs)
	for r := range slotOf {
		slotOf[r] = -1
	}
	nextSlot := int64(0)
	slot := func(r ir.Reg) int64 {
		if slotOf[r] < 0 {
			slotOf[r] = nextSlot
			nextSlot += 8
		}
		return slotOf[r]
	}

	if err := rewrite(fn, assign, spilled, slotArray, slot, rep); err != nil {
		return nil, err
	}

	fn.Arrays[slotArray].Size = nextSlot
	fn.FrameSize = nextSlot
	rep.SlotBytes = nextSlot

	// Re-declare the register file as physical.
	fn.NumRegs = PhysRegs
	fn.RegClass = make([]ir.RegClass, PhysRegs)
	for r := fpPhysBase; r < PhysRegs; r++ {
		fn.RegClass[r] = ir.RegFP
	}
	fn.Allocated = true
	st.Add("regalloc/spilled_vregs", int64(rep.Spilled))
	st.Add("regalloc/spill_stores", int64(rep.Spills))
	st.Add("regalloc/spill_restores", int64(rep.Restores))
	st.Add("regalloc/slot_bytes", rep.SlotBytes)
	if check {
		if err := checkAssignment(fn.Name, intervals, assign); err != nil {
			return nil, err
		}
		if err := verify.Alloc(fn, verify.AllocChecks{
			PhysRegs:  PhysRegs,
			IsScratch: IsSpillScratch,
			Spills:    rep.Spills,
			Restores:  rep.Restores,
			Spilled:   rep.Spilled,
		}); err != nil {
			return nil, err
		}
		st.Inc("verify/checks")
	}
	return rep, fn.Validate()
}

// checkAssignment verifies the allocation's core invariant: no two
// virtual registers whose live intervals overlap were assigned the same
// physical register. Spilled virtuals (assignment 0) live in memory and
// are exempt.
func checkAssignment(fnName string, intervals []interval, assign []ir.Reg) error {
	byPhys := map[ir.Reg][]*interval{}
	for i := range intervals {
		iv := &intervals[i]
		if phys := assign[iv.reg]; phys != ir.NoReg {
			byPhys[phys] = append(byPhys[phys], iv)
		}
	}
	for phys, ivs := range byPhys {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		for i := 1; i < len(ivs); i++ {
			prev, cur := ivs[i-1], ivs[i]
			if cur.start < prev.end {
				return verify.Errorf("regalloc", fnName,
					"overlapping live ranges share p%d: r%d [%d,%d) and r%d [%d,%d)",
					phys, prev.reg, prev.start, prev.end, cur.reg, cur.start, cur.end)
			}
		}
	}
	return nil
}

// peakPressure is the maximum number of simultaneously live intervals of
// one register class — what the bank would need to avoid all spilling.
func peakPressure(ivs []interval, cls ir.RegClass) int64 {
	type event struct{ pos, delta int }
	var evs []event
	for i := range ivs {
		if ivs[i].cls != cls {
			continue
		}
		evs = append(evs, event{ivs[i].start, +1}, event{ivs[i].end, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].pos != evs[b].pos {
			return evs[a].pos < evs[b].pos
		}
		return evs[a].delta < evs[b].delta // expire before allocate at a tie
	})
	var cur, peak int64
	for _, e := range evs {
		cur += int64(e.delta)
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// freeList builds the allocatable register pool for one bank, ordered so
// that pops hand out the lowest numbers first.
func freeList(base ir.Reg, n int) []ir.Reg {
	fl := make([]ir.Reg, n)
	for i := 0; i < n; i++ {
		fl[i] = base + ir.Reg(n-1-i)
	}
	return fl
}

// buildIntervals computes one coarse live interval per virtual register
// over the linearised block order: the interval spans from the earliest
// definition/live-in point to the latest use/live-out point, so registers
// live around loop back edges stay allocated across the whole loop.
//
// Blocks are linearised in reverse postorder from the entry, not in slice
// order: phases like trace scheduling append their new blocks at the end
// of Func.Blocks, and linearising by index would give every value that
// crosses such a block a near-function-length interval, flooding the
// allocator with false conflicts.
func buildIntervals(fn *ir.Func) []interval {
	info := liveness.Compute(fn)
	starts := make([]int, fn.NumRegs)
	ends := make([]int, fn.NumRegs)
	uses := make([]int, fn.NumRegs)
	seen := make([]bool, fn.NumRegs)
	touch := func(r ir.Reg, pos int) {
		if r == ir.NoReg {
			return
		}
		if !seen[r] {
			seen[r] = true
			starts[r], ends[r] = pos, pos+1
			return
		}
		if pos < starts[r] {
			starts[r] = pos
		}
		if pos+1 > ends[r] {
			ends[r] = pos + 1
		}
	}
	pos := 0
	var buf [3]ir.Reg
	for _, bi := range blockOrder(fn) {
		b := fn.Blocks[bi]
		blockStart := pos
		for r := ir.Reg(1); int(r) < fn.NumRegs; r++ {
			if info.LiveIn[bi].Has(r) {
				touch(r, blockStart)
			}
		}
		for _, in := range b.Instrs {
			for _, r := range in.Uses(buf[:0]) {
				touch(r, pos)
				uses[r]++
			}
			if d := in.Def(); d != ir.NoReg {
				touch(d, pos)
				uses[d]++
			}
			pos++
		}
		for r := ir.Reg(1); int(r) < fn.NumRegs; r++ {
			if info.LiveOut[bi].Has(r) {
				touch(r, pos-1)
			}
		}
	}
	var ivs []interval
	for r := ir.Reg(1); int(r) < fn.NumRegs; r++ {
		if seen[r] {
			ivs = append(ivs, interval{reg: r, start: starts[r], end: ends[r], uses: uses[r], cls: fn.ClassOfReg(r)})
		}
	}
	return ivs
}

// blockOrder returns block IDs in reverse postorder from the entry,
// followed by any unreachable blocks in index order.
func blockOrder(fn *ir.Func) []int {
	visited := make([]bool, len(fn.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range fn.Blocks[b].Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(fn.Entry)
	order := make([]int, 0, len(fn.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	for b := range fn.Blocks {
		if !visited[b] {
			order = append(order, b)
		}
	}
	return order
}

// rewrite maps operands to physical registers, editing fn's instructions
// in place, and inserts restore/spill code around uses and definitions
// of spilled virtuals.
func rewrite(fn *ir.Func, assign []ir.Reg, spilled []bool, slotArray int, slot func(ir.Reg) int64, rep *Report) error {
	for _, b := range fn.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			intScr := ir.Reg(intScratch0)
			fpScr := ir.Reg(fpScratch0)
			takeScratch := func(cls ir.RegClass) ir.Reg {
				if cls == ir.RegInt {
					r := intScr
					intScr++
					if r >= intPhysBase+32 {
						panic("regalloc: out of integer scratch registers")
					}
					return r
				}
				r := fpScr
				fpScr++
				if r >= fpPhysBase+32 {
					panic("regalloc: out of FP scratch registers")
				}
				return r
			}
			restore := func(v ir.Reg) ir.Reg {
				cls := fn.ClassOfReg(v)
				scr := takeScratch(cls)
				op := ir.OpLd
				if cls == ir.RegFP {
					op = ir.OpLdF
				}
				off := slot(v)
				out = append(out, &ir.Instr{
					Op: op, Dst: scr, Imm: off, Spill: ir.SpillRestore,
					Mem:  &ir.MemRef{Array: slotArray, Base: 0, Disp: off, Width: 8},
					Home: b.ID, Seq: in.Seq,
				})
				rep.Restores++
				return scr
			}

			dst := in.Dst // the virtual destination, read before rewriting
			dstSpilled := false
			var dstScratch ir.Reg

			// A conditional move reads its destination: restore it first
			// so the scratch holds the old value.
			if in.Op.IsCmov() && dst != ir.NoReg && spilled[dst] {
				dstScratch = restore(dst)
				dstSpilled = true
			}
			for si, r := range in.Src {
				switch {
				case r == ir.NoReg:
				case spilled[r]:
					in.Src[si] = restore(r)
				default:
					in.Src[si] = assign[r]
				}
			}
			if dst != ir.NoReg {
				switch {
				case dstSpilled:
					in.Dst = dstScratch
				case spilled[dst]:
					if in.Op.HasDst() {
						dstScratch = takeScratch(fn.ClassOfReg(dst))
						in.Dst = dstScratch
						dstSpilled = true
					}
				default:
					in.Dst = assign[dst]
				}
			}
			out = append(out, in)
			if dstSpilled && in.Op.HasDst() {
				cls := fn.ClassOfReg(dst)
				op := ir.OpSt
				if cls == ir.RegFP {
					op = ir.OpStF
				}
				off := slot(dst)
				out = append(out, &ir.Instr{
					Op: op, Src: [2]ir.Reg{in.Dst, ir.NoReg}, Imm: off, Spill: ir.SpillStore,
					Mem:  &ir.MemRef{Array: slotArray, Base: 0, Disp: off, Width: 8},
					Home: b.ID, Seq: in.Seq,
				})
				rep.Spills++
			}
		}
		b.Instrs = out
	}
	// Branches must remain terminators: a spill store after a branch
	// would be dead wrong. Verify none was emitted.
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in.Op.IsBranch() && i != len(b.Instrs)-1 {
				return fmt.Errorf("regalloc: spill code landed after terminator in b%d", b.ID)
			}
		}
	}
	return nil
}
