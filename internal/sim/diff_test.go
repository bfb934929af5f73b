package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
)

// This file is the differential harness for the predecoded fast core: every
// kernel runs twice — once on the fast integer-PC core, once on the original
// *ir.Instr-walking reference stepper (Machine.Reference) — and everything
// observable must be bit-identical: all Metrics fields (via Metrics.Each, so
// new fields are covered automatically), the edge-profile callback stream,
// the hierarchy's hit/miss counters, and the final memory image. The
// functional-only walk (CountEdges) runs a third time and must match the
// edge stream and the memory image.

// runOutcome captures everything a run exposes.
type runOutcome struct {
	mets  map[string]int64
	edges []int64 // indexed 2·block+successor
	hier  map[string]int64
	mem   []byte
}

func observe(t *testing.T, m *Machine) *runOutcome {
	t.Helper()
	o := &runOutcome{
		mets:  map[string]int64{},
		edges: make([]int64, 2*len(m.blocks)),
		hier:  map[string]int64{},
	}
	met, err := m.Run(o.edges)
	if err != nil {
		t.Fatal(err)
	}
	met.Each(func(name string, v int64) { o.mets[name] = v })
	h := m.Hierarchy()
	for _, c := range []*cache.Cache{h.L1I, h.L1D, h.L2, h.L3} {
		o.hier[c.Name()+"/hits"] = c.Hits
		o.hier[c.Name()+"/misses"] = c.Misses
	}
	o.hier["itlb/hits"], o.hier["itlb/misses"] = h.ITLB.Hits, h.ITLB.Misses
	o.hier["dtlb/hits"], o.hier["dtlb/misses"] = h.DTLB.Hits, h.DTLB.Misses
	o.hier["prefetch_fills"] = h.PrefetchFills
	o.mem = append([]byte(nil), m.mem...)
	return o
}

func diffOutcomes(t *testing.T, fast, ref *runOutcome) {
	t.Helper()
	for name, v := range ref.mets {
		if fast.mets[name] != v {
			t.Errorf("metric %s: fast %d, reference %d", name, fast.mets[name], v)
		}
	}
	if len(fast.mets) != len(ref.mets) {
		t.Errorf("metric count: fast %d, reference %d", len(fast.mets), len(ref.mets))
	}
	for name, v := range ref.hier {
		if fast.hier[name] != v {
			t.Errorf("hierarchy %s: fast %d, reference %d", name, fast.hier[name], v)
		}
	}
	for i, v := range ref.edges {
		if fast.edges[i] != v {
			t.Errorf("edge b%d/%d: fast %d, reference %d", i/2, i%2, fast.edges[i], v)
		}
	}
	if !bytes.Equal(fast.mem, ref.mem) {
		t.Errorf("final memory images differ")
	}
}

// diffRun runs f on both cores at the given width and compares everything.
func diffRun(t *testing.T, f *ir.Func, init func(*Machine), width int) {
	t.Helper()
	fast, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	fast.IssueWidth = width
	if init != nil {
		init(fast)
	}
	ref, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	ref.Reference = true
	ref.IssueWidth = width
	if init != nil {
		init(ref)
	}
	fo := observe(t, fast)
	diffOutcomes(t, fo, observe(t, ref))

	// The functional-only walk must count the same edges and leave the
	// same memory image.
	walk, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if init != nil {
		init(walk)
	}
	counts, err := walk.CountEdges()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(counts, fo.edges) {
		t.Errorf("walk edges %v, timing run %v", counts, fo.edges)
	}
	if !bytes.Equal(walk.mem, fo.mem) {
		t.Errorf("walk's final memory image differs from the timing run's")
	}
}

// buildMissy sums a large array (well beyond the 8KB L1D) while issuing a
// software prefetch a few lines ahead each iteration, exercising demand
// misses, MSHR pressure and the prefetch drop/fill paths.
func buildMissy(n int64) *ir.Func {
	f := &ir.Func{Name: "missy"}
	a := f.AddArray("a", n*8)
	out := f.AddArray("out", 8)

	base := f.NewReg(ir.RegInt)
	i := f.NewReg(ir.RegInt)
	lim := f.NewReg(ir.RegInt)
	p := f.NewReg(ir.RegInt)
	s := f.NewReg(ir.RegFP)
	v := f.NewReg(ir.RegFP)
	tr := f.NewReg(ir.RegInt)
	ob := f.NewReg(ir.RegInt)

	entry := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()

	entry.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpMovi, Dst: i, Imm: 0},
		{Op: ir.OpMovi, Dst: lim, Imm: n - 16},
		{Op: ir.OpFMovi, Dst: s, FImm: 0},
	}
	entry.Succs = []int{body.ID}

	body.Instrs = []*ir.Instr{
		{Op: ir.OpS8Add, Dst: p, Src: [2]ir.Reg{i, base}},
		{Op: ir.OpPrefetch, Src: [2]ir.Reg{p}, Imm: 16 * 8, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{p}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpFAdd, Dst: s, Src: [2]ir.Reg{s, v}},
		{Op: ir.OpAdd, Dst: i, Src: [2]ir.Reg{i}, UseImm: true, Imm: 1},
		{Op: ir.OpCmpLt, Dst: tr, Src: [2]ir.Reg{i, lim}},
		{Op: ir.OpBne, Src: [2]ir.Reg{tr}, Target: body.ID},
	}
	body.Succs = []int{body.ID, exit.ID}

	exit.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: ob, Imm: int64(out)},
		{Op: ir.OpStF, Src: [2]ir.Reg{s, ob}, Mem: &ir.MemRef{Array: out, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	return f
}

// buildBranchy walks an int array and conditionally stores, with
// data-dependent branches that defeat the bimodal predictor about half
// the time.
func buildBranchy(n int64) *ir.Func {
	f := &ir.Func{Name: "branchy"}
	a := f.AddArray("a", n*8)
	out := f.AddArray("out", n*8)

	base := f.NewReg(ir.RegInt)
	ob := f.NewReg(ir.RegInt)
	i := f.NewReg(ir.RegInt)
	lim := f.NewReg(ir.RegInt)
	p := f.NewReg(ir.RegInt)
	q := f.NewReg(ir.RegInt)
	v := f.NewReg(ir.RegInt)
	tr := f.NewReg(ir.RegInt)

	entry := f.NewBlock()
	head := f.NewBlock()
	store := f.NewBlock()
	latch := f.NewBlock()
	exit := f.NewBlock()

	entry.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: base, Imm: int64(a)},
		{Op: ir.OpLdA, Dst: ob, Imm: int64(out)},
		{Op: ir.OpMovi, Dst: i, Imm: 0},
		{Op: ir.OpMovi, Dst: lim, Imm: n},
	}
	entry.Succs = []int{head.ID}

	head.Instrs = []*ir.Instr{
		{Op: ir.OpS8Add, Dst: p, Src: [2]ir.Reg{i, base}},
		{Op: ir.OpLd, Dst: v, Src: [2]ir.Reg{p}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpCmpLt, Dst: tr, Src: [2]ir.Reg{v, lim}},
		{Op: ir.OpBeq, Src: [2]ir.Reg{tr}, Target: latch.ID},
	}
	head.Succs = []int{latch.ID, store.ID}

	store.Instrs = []*ir.Instr{
		{Op: ir.OpS8Add, Dst: q, Src: [2]ir.Reg{i, ob}},
		{Op: ir.OpSt, Src: [2]ir.Reg{v, q}, Mem: &ir.MemRef{Array: out, Base: 0, Width: 8}},
	}
	store.Succs = []int{latch.ID}

	latch.Instrs = []*ir.Instr{
		{Op: ir.OpAdd, Dst: i, Src: [2]ir.Reg{i}, UseImm: true, Imm: 1},
		{Op: ir.OpCmpLt, Dst: tr, Src: [2]ir.Reg{i, lim}},
		{Op: ir.OpBne, Src: [2]ir.Reg{tr}, Target: head.ID},
	}
	latch.Succs = []int{head.ID, exit.ID}

	exit.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	return f
}

// buildBigCode emits a long straight-line chain of blocks whose code
// footprint exceeds the 8KB L1I, so sequential fetch misses and the
// same-line fast path's boundary behaviour are both exercised.
func buildBigCode(blocks int) *ir.Func {
	f := &ir.Func{Name: "bigcode"}
	out := f.AddArray("out", 8)
	s := f.NewReg(ir.RegInt)
	ob := f.NewReg(ir.RegInt)

	entry := f.NewBlock()
	entry.Instrs = []*ir.Instr{{Op: ir.OpMovi, Dst: s, Imm: 0}}
	prev := entry
	for i := 0; i < blocks; i++ {
		b := f.NewBlock()
		b.Instrs = []*ir.Instr{
			{Op: ir.OpAdd, Dst: s, Src: [2]ir.Reg{s}, UseImm: true, Imm: int64(i)},
			{Op: ir.OpAdd, Dst: s, Src: [2]ir.Reg{s}, UseImm: true, Imm: 1},
			{Op: ir.OpAdd, Dst: s, Src: [2]ir.Reg{s}, UseImm: true, Imm: 2},
			{Op: ir.OpAdd, Dst: s, Src: [2]ir.Reg{s}, UseImm: true, Imm: 3},
		}
		prev.Succs = append(prev.Succs, b.ID)
		prev = b
	}
	exit := f.NewBlock()
	exit.Instrs = []*ir.Instr{
		{Op: ir.OpLdA, Dst: ob, Imm: int64(out)},
		{Op: ir.OpSt, Src: [2]ir.Reg{s, ob}, Mem: &ir.MemRef{Array: out, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	prev.Succs = append(prev.Succs, exit.ID)
	return f
}

func initLCG(arr int, n int64) func(*Machine) {
	return func(m *Machine) {
		x := int64(12345)
		for i := int64(0); i < n; i++ {
			x = (x*6364136223846793005 + 1442695040888963407) >> 1
			m.WriteI64(arr, i*8, x%(2*n))
		}
	}
}

func initRamp(arr int, n int64) func(*Machine) {
	return func(m *Machine) {
		for i := int64(0); i < n; i++ {
			m.WriteF64(arr, i*8, float64(i)*1.5)
		}
	}
}

func TestFastMatchesReference(t *testing.T) {
	const n = 4096 // 32KB arrays: 4x the L1D
	kernels := []struct {
		name string
		f    *ir.Func
		init func(*Machine)
	}{
		{"sum", buildSum(n), initRamp(0, n)},
		{"missy", buildMissy(n), initRamp(0, n)},
		{"branchy", buildBranchy(n), initLCG(0, n)},
		{"bigcode", buildBigCode(800), nil},
	}
	for _, k := range kernels {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", k.name, w), func(t *testing.T) {
				if err := k.f.Validate(); err != nil {
					t.Fatal(err)
				}
				diffRun(t, k.f, k.init, w)
			})
		}
	}
}

// TestFastExercisesFaultPaths sanity-checks that the kernels above really
// reach the paths the differential test is meant to cover: demand misses,
// prefetch fills and drops, mispredicts and fetch stalls.
func TestFastExercisesFaultPaths(t *testing.T) {
	const n = 4096
	m, err := New(buildMissy(n))
	if err != nil {
		t.Fatal(err)
	}
	initRamp(0, n)(m)
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met.PrefetchFills == 0 || met.PrefetchFills >= met.Prefetches {
		t.Errorf("want 0 < PrefetchFills < Prefetches, got %d of %d", met.PrefetchFills, met.Prefetches)
	}
	if m.Hierarchy().PrefetchFills != met.PrefetchFills {
		t.Errorf("hierarchy PrefetchFills %d != metrics %d", m.Hierarchy().PrefetchFills, met.PrefetchFills)
	}
	if met.Loads == met.L1DHits {
		t.Errorf("missy kernel never missed L1D (loads=%d)", met.Loads)
	}

	m2, err := New(buildBranchy(n))
	if err != nil {
		t.Fatal(err)
	}
	initLCG(0, n)(m2)
	met2, err := m2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met2.Mispredicts == 0 {
		t.Error("branchy kernel never mispredicted")
	}

	m3, err := New(buildBigCode(800))
	if err != nil {
		t.Fatal(err)
	}
	met3, err := m3.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if met3.FetchStall == 0 {
		t.Error("bigcode kernel never stalled on fetch")
	}
}

// TestResetBitIdentical checks that a machine rewound with Reset — same
// function or a different one — reproduces a fresh machine's run exactly.
func TestResetBitIdentical(t *testing.T) {
	const n = 2048
	fSum, fBr := buildSum(n), buildBranchy(n)

	m, err := New(fSum)
	if err != nil {
		t.Fatal(err)
	}
	initRamp(0, n)(m)
	first := observe(t, m)

	// Same function again after Reset.
	m.Reset(fSum)
	initRamp(0, n)(m)
	diffOutcomes(t, observe(t, m), first)

	// Cross to a different function: must match a fresh machine.
	m.Reset(fBr)
	initLCG(0, n)(m)
	got := observe(t, m)
	fresh, err := New(fBr)
	if err != nil {
		t.Fatal(err)
	}
	initLCG(0, n)(fresh)
	diffOutcomes(t, got, observe(t, fresh))

	// And back, against the recorded first run.
	m.Reset(fSum)
	initRamp(0, n)(m)
	diffOutcomes(t, observe(t, m), first)
}

// TestZeroAllocSteadyState is the perf guard: once a machine exists, a
// Reset+Run cycle of the fast core must allocate nothing beyond the
// returned Metrics struct — zero allocations per simulated instruction.
func TestZeroAllocSteadyState(t *testing.T) {
	const n = 256
	f := buildSum(n)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	var met *Metrics
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset(f)
		mm, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		met = mm
	})
	if met == nil || met.Instrs == 0 {
		t.Fatal("run did nothing")
	}
	// One allocation per run: the returned *Metrics. Nothing per instruction.
	if allocs > 1 {
		t.Errorf("Reset+Run allocated %.0f objects per run, want <= 1 (the Metrics)", allocs)
	}
}
