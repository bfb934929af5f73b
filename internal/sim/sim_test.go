package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
)

// buildSum constructs a function that sums n float64s from array 0 into
// array 1 element 0:
//
//	s = 0; for i = 0..n-1 { s += a[i] }; out[0] = s
func buildSum(n int64) *ir.Func {
	f := &ir.Func{Name: "sum"}
	a := f.AddArray("a", n*8)
	out := f.AddArray("out", 8)

	base := f.NewReg(ir.RegInt)
	i := f.NewReg(ir.RegInt)
	lim := f.NewReg(ir.RegInt)
	p := f.NewReg(ir.RegInt)
	s := f.NewReg(ir.RegFP)
	v := f.NewReg(ir.RegFP)
	t := f.NewReg(ir.RegInt)
	ob := f.NewReg(ir.RegInt)

	entry := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	entry.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpMovi, Dst: i, Imm: 0},
		{Op: ir.OpMovi, Dst: lim, Imm: n},
		{Op: ir.OpFMovi, Dst: s, FImm: 0},
	}
	entry.Succs = []int{body.ID}

	body.Instrs = []*ir.Instr{
		{Op: ir.OpS8Add, Dst: p, Src: [2]ir.Reg{i, base}},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{p}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpFAdd, Dst: s, Src: [2]ir.Reg{s, v}},
		{Op: ir.OpAdd, Dst: i, Src: [2]ir.Reg{i}, UseImm: true, Imm: 1},
		{Op: ir.OpCmpLt, Dst: t, Src: [2]ir.Reg{i, lim}},
		{Op: ir.OpBne, Src: [2]ir.Reg{t}, Target: body.ID},
	}
	body.Succs = []int{body.ID, exit.ID}

	exit.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: ob, Imm: int64(out)},
		{Op: ir.OpStF, Src: [2]ir.Reg{s, ob}, Mem: &ir.MemRef{Array: out, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	return f
}

func TestRunComputesSum(t *testing.T) {
	const n = 100
	f := buildSum(n)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := int64(0); i < n; i++ {
		v := float64(i) * 1.5
		m.WriteF64(0, i*8, v)
		want += v
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadF64(1, 0); got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	wantInstrs := int64(4 + 6*n + 3)
	if met.Instrs != wantInstrs {
		t.Errorf("Instrs = %d, want %d", met.Instrs, wantInstrs)
	}
	if met.ByClass[ir.ClassLoad] != n {
		t.Errorf("loads = %d, want %d", met.ByClass[ir.ClassLoad], n)
	}
	if met.ByClass[ir.ClassStore] != 1 {
		t.Errorf("stores = %d, want 1", met.ByClass[ir.ClassStore])
	}
	if met.ByClass[ir.ClassBranch] != n+1 {
		t.Errorf("branches = %d, want %d", met.ByClass[ir.ClassBranch], n+1)
	}
	if met.Cycles <= met.Instrs {
		t.Errorf("Cycles = %d not greater than Instrs = %d (expected some stalls)", met.Cycles, met.Instrs)
	}
}

func TestLoadInterlockAttribution(t *testing.T) {
	// A load immediately followed by its consumer must stall for at least
	// the L1 latency minus one; the stall must be a load interlock.
	f := &ir.Func{Name: "il"}
	a := f.AddArray("a", 64)
	base := f.NewReg(ir.RegInt)
	v := f.NewReg(ir.RegFP)
	w := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpFAdd, Dst: w, Src: [2]ir.Reg{v, v}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.LoadInterlock == 0 {
		t.Error("expected load interlock cycles for immediate consumer")
	}
	if met.FixedInterlock != 0 {
		t.Errorf("FixedInterlock = %d, want 0", met.FixedInterlock)
	}
}

func TestFixedInterlockAttribution(t *testing.T) {
	// fdiv followed by its consumer: a fixed-latency interlock.
	f := &ir.Func{Name: "fx"}
	x := f.NewReg(ir.RegFP)
	y := f.NewReg(ir.RegFP)
	z := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpFMovi, Dst: x, FImm: 3},
		{Op: ir.OpFMovi, Dst: y, FImm: 2},
		{Op: ir.OpFDiv, Dst: z, Src: [2]ir.Reg{x, y}},
		{Op: ir.OpFAdd, Dst: z, Src: [2]ir.Reg{z, z}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.FixedInterlock < machine.LatFPDiv-1 {
		t.Errorf("FixedInterlock = %d, want >= %d", met.FixedInterlock, machine.LatFPDiv-1)
	}
	if met.LoadInterlock != 0 {
		t.Errorf("LoadInterlock = %d, want 0", met.LoadInterlock)
	}
	if got := m.fpRegs[z]; got != 3.0 {
		t.Errorf("z = %g, want 3.0", got)
	}
}

func TestNonBlockingLoadsOverlap(t *testing.T) {
	// Two independent loads to different lines followed by consumers:
	// their miss latencies must overlap, so total cycles are far less
	// than two serialized memory accesses.
	build := func(independent bool) int64 {
		f := &ir.Func{Name: "nb"}
		a := f.AddArray("a", 4096)
		base := f.NewReg(ir.RegInt)
		v1 := f.NewReg(ir.RegFP)
		v2 := f.NewReg(ir.RegFP)
		s := f.NewReg(ir.RegFP)
		b := f.NewBlock()
		b.Instrs = append(b.Instrs,
			&ir.Instr{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
			&ir.Instr{Op: ir.OpLdF, Dst: v1, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		)
		if independent {
			b.Instrs = append(b.Instrs,
				&ir.Instr{Op: ir.OpLdF, Dst: v2, Src: [2]ir.Reg{base}, Imm: 2048, Mem: &ir.MemRef{Array: a, Base: 0, Disp: 2048, Width: 8}},
				&ir.Instr{Op: ir.OpFAdd, Dst: s, Src: [2]ir.Reg{v1, v2}},
			)
		} else {
			// Serialize: consume v1 before issuing the second load.
			b.Instrs = append(b.Instrs,
				&ir.Instr{Op: ir.OpFAdd, Dst: s, Src: [2]ir.Reg{v1, v1}},
				&ir.Instr{Op: ir.OpLdF, Dst: v2, Src: [2]ir.Reg{base}, Imm: 2048, Mem: &ir.MemRef{Array: a, Base: 0, Disp: 2048, Width: 8}},
				&ir.Instr{Op: ir.OpFAdd, Dst: s, Src: [2]ir.Reg{v2, v2}},
			)
		}
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
		m, err := New(f)
		if err != nil {
			t.Fatal(err)
		}
		met, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return met.Cycles
	}
	overlapped := build(true)
	serial := build(false)
	if overlapped >= serial {
		t.Errorf("overlapped loads took %d cycles, serialized %d: no overlap", overlapped, serial)
	}
	if serial-overlapped < cache.LatMem/2 {
		t.Errorf("overlap saved only %d cycles, expected close to a full miss", serial-overlapped)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	// Issue more independent missing loads than there are MSHRs; the
	// simulator must record MSHR stalls.
	f := &ir.Func{Name: "mshr"}
	a := f.AddArray("a", 64*1024)
	base := f.NewReg(ir.RegInt)
	b := f.NewBlock()
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpLdA, Dst: base, Imm: int64(a)})
	n := cache.MSHRs + 3
	for i := 0; i < n; i++ {
		v := f.NewReg(ir.RegFP)
		b.Instrs = append(b.Instrs, &ir.Instr{
			Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{base},
			Imm: int64(i * 2048),
			Mem: &ir.MemRef{Array: a, Base: 0, Disp: int64(i * 2048), Width: 8},
		})
	}
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.MSHRStall == 0 {
		t.Error("expected MSHR stalls with more misses than miss registers")
	}
}

func TestBranchPredictionLearns(t *testing.T) {
	// A loop branch is taken n-1 times; the bimodal predictor should
	// mispredict only a handful of times.
	f := buildSum(1000)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.Branches != 1000 {
		t.Fatalf("branches = %d, want 1000", met.Branches)
	}
	if met.Mispredicts > 4 {
		t.Errorf("mispredicts = %d, want <= 4 for a loop branch", met.Mispredicts)
	}
}

func TestEdgeCallback(t *testing.T) {
	f := buildSum(10)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2*len(f.Blocks))
	if _, err := m.Run(counts); err != nil {
		t.Fatal(err)
	}
	if counts[2*1+0] != 9 { // back edge taken 9 times
		t.Errorf("back edge count = %d, want 9", counts[2*1+0])
	}
	if counts[2*1+1] != 1 { // fallthrough to exit once
		t.Errorf("exit edge count = %d, want 1", counts[2*1+1])
	}
	m.Reset(f)
	if _, err := m.Run(counts[1:]); err == nil || !strings.Contains(err.Error(), "edge counters") {
		t.Errorf("a short counts slice: %v, want an error", err)
	}
}

func TestRunawayGuard(t *testing.T) {
	f := &ir.Func{Name: "loop"}
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{{Op: ir.OpBr, Target: 0}}
	b.Succs = []int{0}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstrs = 1000
	if _, err := m.Run(nil); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("runaway loop not caught: %v", err)
	}
}

func TestOutOfRangeAddressFails(t *testing.T) {
	f := &ir.Func{Name: "oob"}
	a := f.AddArray("a", 8)
	r := f.NewReg(ir.RegInt)
	v := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: r, Imm: 1 << 40},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{r}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err == nil {
		t.Error("out-of-range address not detected")
	}
}

func TestSpillCountsAndAbsoluteAddressing(t *testing.T) {
	f := &ir.Func{Name: "spill"}
	slot := f.AddArray("spill", 16)
	f.Arrays[slot].Slot = true
	r := f.NewReg(ir.RegInt)
	r2 := f.NewReg(ir.RegInt)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: r, Imm: 42},
		{Op: ir.OpSt, Src: [2]ir.Reg{r, ir.NoReg}, Imm: 8, Spill: ir.SpillStore,
			Mem: &ir.MemRef{Array: slot, Base: 0, Disp: 8, Width: 8}},
		{Op: ir.OpLd, Dst: r2, Src: [2]ir.Reg{ir.NoReg}, Imm: 8, Spill: ir.SpillRestore,
			Mem: &ir.MemRef{Array: slot, Base: 0, Disp: 8, Width: 8}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.intRegs[r2] != 42 {
		t.Errorf("restored value = %d, want 42", m.intRegs[r2])
	}
	if met.SpillStores != 1 || met.SpillRestores != 1 {
		t.Errorf("spill counts = %d/%d, want 1/1", met.SpillStores, met.SpillRestores)
	}
}

func TestCmovSemantics(t *testing.T) {
	f := &ir.Func{Name: "cmov"}
	c := f.NewReg(ir.RegInt)
	a := f.NewReg(ir.RegInt)
	b1 := f.NewReg(ir.RegInt)
	blk := f.NewBlock()
	blk.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: c, Imm: 0},
		{Op: ir.OpMovi, Dst: a, Imm: 1},
		{Op: ir.OpMovi, Dst: b1, Imm: 2},
		{Op: ir.OpCmovEq, Dst: a, Src: [2]ir.Reg{c, b1}}, // c==0, so a=2
		{Op: ir.OpCmovNe, Dst: b1, Src: [2]ir.Reg{c, a}}, // c==0, b1 stays 2
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	if m.intRegs[a] != 2 || m.intRegs[b1] != 2 {
		t.Errorf("cmov results a=%d b=%d, want 2, 2", m.intRegs[a], m.intRegs[b1])
	}
}

func TestIssueWidthSpeedsUpParallelCode(t *testing.T) {
	// Independent integer work should approach W instructions per cycle.
	build := func() *ir.Func {
		f := &ir.Func{Name: "w"}
		b := f.NewBlock()
		for i := 0; i < 400; i++ {
			r := f.NewReg(ir.RegInt)
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpMovi, Dst: r, Imm: int64(i)})
		}
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
		return f
	}
	run := func(w int) int64 {
		m, err := New(build())
		if err != nil {
			t.Fatal(err)
		}
		m.IssueWidth = w
		met, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return met.Cycles
	}
	c1, c2, c4 := run(1), run(2), run(4)
	if c2 >= c1 || c4 >= c2 {
		t.Errorf("widths 1/2/4 gave %d/%d/%d cycles; expected monotone improvement", c1, c2, c4)
	}
	// Cold-I-cache fetch stalls are width independent; the issue portion
	// (400 cycles at width 1) should halve at width 2 and halve again at
	// width 4.
	if c1-c2 < 150 {
		t.Errorf("width 2 saved only %d cycles; expected ~200", c1-c2)
	}
	if c2-c4 < 75 {
		t.Errorf("width 4 saved only %d cycles over width 2; expected ~100", c2-c4)
	}
}

func TestIssueWidthRespectsMemoryPortLimit(t *testing.T) {
	// A block of back-to-back independent loads cannot exceed one memory
	// op per cycle at width 2 (ports = width/2).
	f := &ir.Func{Name: "ports"}
	a := f.AddArray("a", 4096)
	base := f.NewReg(ir.RegInt)
	b := f.NewBlock()
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpLdA, Dst: base, Imm: int64(a)})
	const n = 64
	for i := 0; i < n; i++ {
		r := f.NewReg(ir.RegFP)
		b.Instrs = append(b.Instrs, &ir.Instr{
			Op: ir.OpLdF, Dst: r, Src: [2]ir.Reg{base}, Imm: int64(i % 4 * 8),
			Mem: &ir.MemRef{Array: a, Base: 0, Disp: int64(i % 4 * 8), Width: 8},
		})
	}
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	m.IssueWidth = 2
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.Cycles < n {
		t.Errorf("%d loads issued in %d cycles at width 2; memory port limit violated", n, met.Cycles)
	}
}

func TestIssueWidthDefaultMatchesSingleIssue(t *testing.T) {
	// Width 0 (unset) must behave exactly like width 1 — the paper's model.
	fA := buildSum(200)
	mA, err := New(fA)
	if err != nil {
		t.Fatal(err)
	}
	metA, err := mA.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	fB := buildSum(200)
	mB, err := New(fB)
	if err != nil {
		t.Fatal(err)
	}
	mB.IssueWidth = 1
	metB, err := mB.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if metA.Cycles != metB.Cycles || metA.LoadInterlock != metB.LoadInterlock {
		t.Errorf("default width diverges from width 1: %v vs %v", metA, metB)
	}
}

// TestCycleAccountingIdentity pins the simulator's bookkeeping: at issue
// width 1 every cycle is either an issue slot or belongs to exactly one
// stall bucket, so the buckets must sum to the total.
func TestCycleAccountingIdentity(t *testing.T) {
	f := buildSum(500)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := met.Instrs + met.LoadInterlock + met.FixedInterlock +
		met.FetchStall + met.BranchStall + met.StoreStall
	if met.Cycles != sum {
		t.Errorf("cycles = %d but buckets sum to %d", met.Cycles, sum)
	}
}

func TestPrefetchFillsCacheWithoutStalling(t *testing.T) {
	// prefetch; spacer work; load: the load must be faster than without
	// the prefetch, and the prefetch itself must never stall.
	build := func(withPF bool) (int64, int64) {
		f := &ir.Func{Name: "pf"}
		a := f.AddArray("a", 4096)
		base := f.NewReg(ir.RegInt)
		v := f.NewReg(ir.RegFP)
		w := f.NewReg(ir.RegFP)
		b := f.NewBlock()
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpLdA, Dst: base, Imm: int64(a)})
		if withPF {
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpPrefetch, Src: [2]ir.Reg{base},
				Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}})
		}
		for k := 0; k < 60; k++ {
			r := f.NewReg(ir.RegInt)
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpMovi, Dst: r, Imm: int64(k)})
		}
		b.Instrs = append(b.Instrs,
			&ir.Instr{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
			&ir.Instr{Op: ir.OpFAdd, Dst: w, Src: [2]ir.Reg{v, v}},
			&ir.Instr{Op: ir.OpRet})
		m, err := New(f)
		if err != nil {
			t.Fatal(err)
		}
		met, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return met.Cycles, met.LoadInterlock
	}
	cpf, ilpf := build(true)
	cnp, ilnp := build(false)
	if cpf >= cnp {
		t.Errorf("prefetch did not help: %d vs %d cycles", cpf, cnp)
	}
	if ilpf >= ilnp {
		t.Errorf("prefetch did not reduce load interlocks: %d vs %d", ilpf, ilnp)
	}
}

func TestPrefetchInFlightVisibleToDemandLoad(t *testing.T) {
	// A demand load issued immediately after the prefetch must wait for
	// the in-flight fill (not get a magic 2-cycle hit), but also not pay
	// the full miss again.
	f := &ir.Func{Name: "pf2"}
	a := f.AddArray("a", 4096)
	base := f.NewReg(ir.RegInt)
	v := f.NewReg(ir.RegFP)
	w := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpPrefetch, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpFAdd, Dst: w, Src: [2]ir.Reg{v, v}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The consumer must stall close to the full memory latency (the fill
	// was started only one cycle earlier).
	if met.LoadInterlock < int64(cache.LatMem)/2 {
		t.Errorf("in-flight fill ignored: only %d interlock cycles", met.LoadInterlock)
	}
}

func TestPrefetchOutOfRangeIsDropped(t *testing.T) {
	f := &ir.Func{Name: "pf3"}
	a := f.AddArray("a", 64)
	r := f.NewReg(ir.RegInt)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: r, Imm: 1 << 40},
		{Op: ir.OpPrefetch, Src: [2]ir.Reg{r}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatalf("out-of-range prefetch faulted: %v", err)
	}
	if met.Prefetches != 1 {
		t.Errorf("prefetch not counted: %d", met.Prefetches)
	}
}

func TestWAWStallOnPendingLoad(t *testing.T) {
	// Overwriting a register whose load is still in flight must stall
	// (in-order WAW hazard) and attribute the wait to the load.
	f := &ir.Func{Name: "waw"}
	a := f.AddArray("a", 4096)
	base := f.NewReg(ir.RegInt)
	v := f.NewReg(ir.RegFP)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{base}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpFMovi, Dst: v, FImm: 1}, // WAW with the in-flight load
		{Op: ir.OpRet},
	}
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.LoadInterlock == 0 {
		t.Error("WAW on a pending load did not stall")
	}
	if m.fpRegs[v] != 1 {
		t.Errorf("final value = %g, want 1 (program order)", m.fpRegs[v])
	}
}
