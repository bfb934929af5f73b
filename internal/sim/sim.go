// Package sim is an execution-driven simulator for the low-level IR,
// modelling the DEC Alpha 21164 as the paper does (Section 4.3): a
// single-issue, in-order pipeline with non-blocking loads (a lockup-free
// first-level data cache with a bounded number of outstanding misses), a
// three-level cache hierarchy, instruction and data TLBs, and bimodal
// branch prediction. The simulator both executes the program (registers
// and memory carry real values) and accounts every stall cycle as either a
// load interlock or a fixed-latency interlock — the paper's key metric
// split.
//
// Two steppers share the machine model. The default is the predecoded
// fast core (decode.go): New decodes each instruction once into a flat
// []decoded slice that Run walks with an integer PC — no map lookups, no
// pointer-chasing into ir.Instr, no per-step closures, and zero heap
// allocations per instruction in steady state. The original
// *ir.Instr-walking stepper (reference.go) stays available behind the
// Reference option; the two produce bit-identical metrics, memory images
// and hierarchy counters, which the differential tests enforce. Edge
// profiles need no timing at all: CountEdges (walk.go) walks the
// predecoded stream for values and control flow only.
package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/ir"
)

// predictorBits sizes the bimodal branch predictor (2^11 two-bit counters).
const predictorBits = 11

// Machine is a simulation instance for one ir.Func. Create it with New,
// initialise array contents through WriteF64/WriteI64, then call Run.
// After a run the machine can be rewound for another function (or the
// same one) with Reset instead of being reallocated.
type Machine struct {
	fn   *ir.Func
	hier *cache.Hierarchy

	mem       []byte
	arrayBase []uint64 // base address per fn.Arrays entry

	intRegs []int64
	fpRegs  []float64

	ready  []int64 // cycle at which each register's value is available
	isLoad []bool  // producer of the register's pending value was a load

	predictor []uint8

	// Predecoded program (decode.go): the flat instruction stream and its
	// per-block index, rebuilt whenever the machine is pointed at a new
	// function.
	dec    []decoded
	blocks []decBlock

	// codeAddr is the reference stepper's instruction-address map, built
	// lazily on the first reference run (the fast core carries the
	// precomputed address in each decoded entry instead).
	codeAddr map[*ir.Instr]uint64

	// lastFetchLine is the I-cache line of the previous instruction fetch:
	// fetches that stay on it skip the hierarchy walk (see runFast).
	lastFetchLine uint64

	// outstanding misses in the lockup-free data cache
	missLine []uint64
	missDone []int64

	// MaxInstrs bounds execution as a runaway guard; Run fails when
	// exceeded. Zero means the default (2^40).
	MaxInstrs int64
	// IssueWidth is the number of instructions the core may issue per
	// cycle (default 1, the paper's model). Widths 2 and 4 model the
	// superscalar processors the paper names as future work: an issue
	// group ends at a taken branch, at a data stall, or when per-cycle
	// functional-unit limits are reached (memory and floating-point
	// pipes are half the width, as on the 21164).
	IssueWidth int
	// Reference selects the original *ir.Instr-walking stepper instead of
	// the predecoded fast core, for differential testing. Both produce
	// bit-identical metrics and memory images.
	Reference bool

	issuedThisCycle int
	memThisCycle    int
	fpThisCycle     int
}

// New prepares a simulation of fn with a fresh memory hierarchy. Array
// storage is laid out contiguously, each array aligned to a cache line and
// padded by a guard region so speculative loads cannot escape simulated
// memory (the paper aligns arrays on cache-line boundaries).
func New(fn *ir.Func) (*Machine, error) {
	if err := fn.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		hier:      cache.NewHierarchy(),
		predictor: make([]uint8, 1<<predictorBits),
		// The miss registers never exceed MSHRs entries (loadAccess evicts
		// at the bound, prefetch drops at it), so sizing to the bound once
		// keeps the hot loop allocation-free.
		missDone: make([]int64, 0, cache.MSHRs),
		missLine: make([]uint64, 0, cache.MSHRs),
	}
	m.init(fn)
	return m, nil
}

// init points the machine at fn: array layout, register file sizing and
// predecoding. Existing slices are reused when large enough. The caller
// guarantees fn is valid (New validates; Reset documents the contract).
func (m *Machine) init(fn *ir.Func) {
	m.fn = fn
	const guard = 4 * cache.LineSize
	// Leave a null page so address 0 stays out of use, and start data on
	// a fresh page.
	addr := uint64(cache.PageSize)
	if cap(m.arrayBase) < len(fn.Arrays) {
		m.arrayBase = make([]uint64, len(fn.Arrays))
	}
	m.arrayBase = m.arrayBase[:len(fn.Arrays)]
	for i, a := range fn.Arrays {
		m.arrayBase[i] = addr
		sz := (a.Size + cache.LineSize - 1) / cache.LineSize * cache.LineSize
		addr += uint64(sz) + guard
	}
	if uint64(cap(m.mem)) >= addr {
		m.mem = m.mem[:addr]
		clear(m.mem)
	} else {
		m.mem = make([]byte, addr)
	}

	n := fn.NumRegs
	if n < 65 {
		n = 65 // physical register space after allocation
	}
	m.intRegs = growI64(m.intRegs, n)
	m.fpRegs = growF64(m.fpRegs, n)
	m.ready = growI64(m.ready, n)
	m.isLoad = growBool(m.isLoad, n)

	m.decode()
	m.codeAddr = nil // rebuilt lazily if the reference stepper runs
}

// Reset rewinds the machine for a fresh run of fn, reusing the memory
// image, register file, predictor, hierarchy and decoded stream instead
// of reallocating them; when fn is the machine's current function the
// predecoded stream is kept as-is. The caller must pass a valid function
// (one that fn.Validate accepts — e.g. pipeline output, which New already
// validated on the pool's first build); Reset does not re-validate.
// MaxInstrs, IssueWidth and Reference revert to their defaults.
func (m *Machine) Reset(fn *ir.Func) {
	if fn != m.fn {
		m.init(fn)
	} else {
		clear(m.mem)
		clear(m.intRegs)
		clear(m.fpRegs)
		clear(m.ready)
		clear(m.isLoad)
	}
	clear(m.predictor)
	m.hier.Reset()
	m.missDone = m.missDone[:0]
	m.missLine = m.missLine[:0]
	m.MaxInstrs, m.IssueWidth, m.Reference = 0, 0, false
	m.issuedThisCycle, m.memThisCycle, m.fpThisCycle = 0, 0, 0
}

// Invalidate marks the machine's cached per-function state (the
// predecoded stream) stale, forcing the next Reset to fully
// re-initialise even when handed the same *ir.Func pointer. Callers
// whose function is mutated in place after the run must call this before
// returning the machine to a Pool — the profiler does, because trace
// scheduling rewrites the profiled function — otherwise a later pooled
// run on the same pointer would replay the pre-mutation code. The
// machine cannot Run again until Reset.
func (m *Machine) Invalidate() { m.fn = nil }

// growI64 returns a zeroed int64 slice of length n, reusing s's storage
// when it is large enough.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// WriteF64 stores v at byte offset off within array id, for initialising
// inputs before Run.
func (m *Machine) WriteF64(id int, off int64, v float64) {
	binary.LittleEndian.PutUint64(m.mem[m.arrayBase[id]+uint64(off):], math.Float64bits(v))
}

// ReadF64 loads the float64 at byte offset off within array id, for
// checking outputs after Run.
func (m *Machine) ReadF64(id int, off int64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.mem[m.arrayBase[id]+uint64(off):]))
}

// WriteI64 stores v at byte offset off within array id.
func (m *Machine) WriteI64(id int, off int64, v int64) {
	binary.LittleEndian.PutUint64(m.mem[m.arrayBase[id]+uint64(off):], uint64(v))
}

// ReadI64 loads the int64 at byte offset off within array id.
func (m *Machine) ReadI64(id int, off int64) int64 {
	return int64(binary.LittleEndian.Uint64(m.mem[m.arrayBase[id]+uint64(off):]))
}

// Hierarchy exposes the memory system for inspecting hit/miss counters.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Run executes the function to completion and returns its metrics.
// counts, when non-nil, must hold 2·len(blocks) entries: Run adds one to
// counts[2·block+successor] for every control-flow edge it traverses,
// the layout CountEdges returns. A grid's timed run counts this way so
// its edges can stand in for a profile walk of the same control flow;
// the differential tests compare the two.
func (m *Machine) Run(counts []int64) (*Metrics, error) {
	if err := faultinject.Hit("sim/run", m.fn.Name); err != nil {
		return nil, err
	}
	if counts != nil && len(counts) != 2*len(m.blocks) {
		return nil, fmt.Errorf("sim: %s: %d edge counters for %d blocks", m.fn.Name, len(counts), len(m.blocks))
	}
	met := &Metrics{}
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 1 << 40
	}
	if m.IssueWidth == 0 {
		m.IssueWidth = 1
	}
	m.issuedThisCycle, m.memThisCycle, m.fpThisCycle = 0, 0, 0
	if m.Reference {
		return m.runReference(met, counts, maxInstrs)
	}
	return m.runFast(met, counts, maxInstrs)
}

// advanceIssueAt accounts one instruction against the current issue group
// and returns the cycle at which the *next* instruction may issue. At
// width 1 every instruction starts a new cycle (the paper's model); at
// wider widths instructions share cycles until the group fills, a
// functional-unit class saturates, or a branch ends the group.
func (m *Machine) advanceIssueAt(isMem, isFP, isBranch bool, cycle int64) int64 {
	w := m.IssueWidth
	if w <= 1 {
		return cycle + 1
	}
	half := (w + 1) / 2
	if isMem {
		m.memThisCycle++
	}
	if isFP {
		m.fpThisCycle++
	}
	m.issuedThisCycle++
	if m.issuedThisCycle >= w || m.memThisCycle >= half ||
		m.fpThisCycle >= half || isBranch {
		m.issuedThisCycle, m.memThisCycle, m.fpThisCycle = 0, 0, 0
		return cycle + 1
	}
	return cycle
}

// newCycle resets issue-group state when a stall forces a cycle change.
func (m *Machine) newCycle() {
	m.issuedThisCycle, m.memThisCycle, m.fpThisCycle = 0, 0, 0
}

// loadAccess performs the data-side access, managing the lockup-free
// cache's outstanding-miss registers. It returns the load-to-use latency,
// whether the access hit in L1, and any stall waiting for a free miss
// register.
func (m *Machine) loadAccess(addr uint64, issue int64) (lat int, l1hit bool, mshrStall int64) {
	lat, l1hit = m.hier.LoadLatency(addr)
	line := addr / cache.LineSize
	if l1hit {
		// The line may still be in flight from a prefetch or an earlier
		// miss: the demand load completes when the fill does.
		for i, done := range m.missDone {
			if m.missLine[i] == line && done > issue {
				if d := int(done - issue); d > lat {
					lat = d
				}
			}
		}
		return lat, true, 0
	}
	// Merge with an outstanding miss to the same line.
	live := m.missDone[:0]
	liveLines := m.missLine[:0]
	var merged int64 = -1
	for i, done := range m.missDone {
		if done > issue {
			live = append(live, done)
			liveLines = append(liveLines, m.missLine[i])
			if m.missLine[i] == line {
				merged = done
			}
		}
	}
	m.missDone, m.missLine = live, liveLines
	if merged >= 0 {
		if d := merged - issue; d < int64(lat) {
			lat = int(d)
			if lat < cache.LatL1 {
				lat = cache.LatL1
			}
		}
		return lat, false, 0
	}
	if len(m.missDone) >= cache.MSHRs {
		// Wait for the earliest outstanding miss to complete.
		min := m.missDone[0]
		minI := 0
		for i, d := range m.missDone {
			if d < min {
				min, minI = d, i
			}
		}
		mshrStall = min - issue
		if mshrStall < 0 {
			mshrStall = 0
		}
		issue = min
		m.missDone = append(m.missDone[:minI], m.missDone[minI+1:]...)
		m.missLine = append(m.missLine[:minI], m.missLine[minI+1:]...)
	}
	m.missDone = append(m.missDone, issue+int64(lat))
	m.missLine = append(m.missLine, line)
	return lat, false, mshrStall
}

// prefetch starts a cache fill for addr without blocking: on an L1 hit
// nothing happens; on a miss with a free miss register the fill is
// registered so later demand loads to the line complete with it; with all
// miss registers busy the hint is dropped. It reports whether a fill was
// actually started. Completed miss registers are compacted away first so
// the register file stays within its MSHRs bound (stale entries are
// invisible to every check, so compacting here changes no outcome).
func (m *Machine) prefetch(addr uint64, issue int64) bool {
	line := addr / cache.LineSize
	live := m.missDone[:0]
	liveLines := m.missLine[:0]
	inFlight := false
	for i, done := range m.missDone {
		if done > issue {
			live = append(live, done)
			liveLines = append(liveLines, m.missLine[i])
			if m.missLine[i] == line {
				inFlight = true
			}
		}
	}
	m.missDone, m.missLine = live, liveLines
	if inFlight {
		return false // already in flight
	}
	if m.hier.L1D.Probe(addr) {
		return false // already resident
	}
	if len(m.missDone) >= cache.MSHRs {
		return false // dropped: no free miss register
	}
	// The line is not resident (Probe above), so this is always a fill
	// from L2 or below; it is accounted as a prefetch fill, not a demand
	// miss, keeping the L1D hit/miss counters meaningful for loads.
	lat := m.hier.PrefetchFill(addr)
	m.missDone = append(m.missDone, issue+int64(lat))
	m.missLine = append(m.missLine, line)
	return true
}

// effAddr computes the effective address of a memory instruction.
func (m *Machine) effAddr(in *ir.Instr) (uint64, error) {
	base := in.Src[0]
	if in.Op.IsStore() {
		base = in.Src[1]
	}
	var a int64
	if base == ir.NoReg {
		if in.Mem == nil || in.Mem.Array < 0 || in.Mem.Array >= len(m.arrayBase) {
			return 0, fmt.Errorf("sim: %v: absolute memory op without valid array", in)
		}
		a = int64(m.arrayBase[in.Mem.Array]) + in.Imm
	} else {
		a = m.intRegs[base] + in.Imm
	}
	if a < 0 || uint64(a)+8 > uint64(len(m.mem)) {
		return 0, fmt.Errorf("sim: %s: address %#x out of range for %v", m.fn.Name, a, in)
	}
	return uint64(a), nil
}

func condTaken(op ir.Op, v int64) bool {
	switch op {
	case ir.OpBeq:
		return v == 0
	case ir.OpBne:
		return v != 0
	case ir.OpBlt:
		return v < 0
	case ir.OpBle:
		return v <= 0
	case ir.OpBgt:
		return v > 0
	case ir.OpBge:
		return v >= 0
	}
	return true
}
