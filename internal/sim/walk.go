package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/faultinject"
)

// CountEdges runs the function for its values and control flow alone and
// returns how often each control-flow edge was traversed, indexed
// 2·block+successor: the edge profile trace scheduling needs. It walks
// the predecoded stream as runFast does, executing register operations,
// loads and stores on the memory image and branch conditions, and skips
// everything that only shapes time: the cache hierarchy and TLBs, the
// branch predictor, register readiness, the miss registers, issue groups
// and Metrics. Edge counts depend only on values and control flow, so
// they equal what Run counts; the differential tests compare the two.
//
// The walk keeps Run's failure behaviour: the "sim/run" fault point, the
// MaxInstrs runaway guard, the no-successor error and the effective
// address errors, with the same messages. IssueWidth and Reference are
// ignored. Like Run, it leaves the registers and memory image in their
// final state, so the machine needs Reset before it runs again.
func (m *Machine) CountEdges() ([]int64, error) {
	if err := faultinject.Hit("sim/run", m.fn.Name); err != nil {
		return nil, err
	}
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 1 << 40
	}
	counts := make([]int64, 2*len(m.blocks))
	ints, fps, mem := m.intRegs, m.fpRegs, m.mem
	dec, blocks := m.dec, m.blocks
	var instrs int64
	bid := int32(m.fn.Entry)
	for {
		blk := &blocks[bid]
		taken := false
		done := false
		for pc := blk.start; pc < blk.end; pc++ {
			if instrs >= maxInstrs {
				return nil, fmt.Errorf("sim: %s exceeded %d instructions (infinite loop?)", m.fn.Name, maxInstrs)
			}
			d := &dec[pc]
			instrs++
			switch d.kind {
			case kindExec:
				m.execDec(d)
			case kindLoad:
				addr, err := m.effAddrDec(d)
				if err != nil {
					return nil, err
				}
				v := binary.LittleEndian.Uint64(mem[addr:])
				if d.fpMem {
					fps[d.dst] = math.Float64frombits(v)
				} else {
					ints[d.dst] = int64(v)
				}
			case kindStore:
				addr, err := m.effAddrDec(d)
				if err != nil {
					return nil, err
				}
				bits := uint64(ints[d.src0])
				if d.fpMem {
					bits = math.Float64bits(fps[d.src0])
				}
				binary.LittleEndian.PutUint64(mem[addr:], bits)
			case kindCond:
				taken = condTaken(d.op, ints[d.src0])
			case kindBranch:
				taken = true
			case kindRet:
				done = true
			case kindPrefetch:
				// A hint: no architectural effect, and a bad address is
				// dropped rather than reported.
			}
			if taken || done {
				break
			}
		}
		if done {
			return counts, nil
		}
		switch {
		case blk.nSuccs == 0:
			return nil, fmt.Errorf("sim: %s b%d has no successor and no ret", m.fn.Name, bid)
		case taken:
			counts[2*bid]++
			bid = blk.succ0
		case blk.condTerm:
			counts[2*bid+1]++
			bid = blk.succ1
		default:
			counts[2*bid]++
			bid = blk.succ0
		}
	}
}
