package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/hlirgen"
	"repro/internal/ir"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/sim"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// This file is the oracle for the functional-only walk: on every
// function the grids profile, CountEdges must count exactly the edges
// the timing run counts, and where a run fails both paths
// must fail with the same message.

// timedEdges runs m on the timing core and returns the edges it counted.
func timedEdges(m *sim.Machine, nBlocks int) ([]int64, error) {
	counts := make([]int64, 2*nBlocks)
	_, err := m.Run(counts)
	return counts, err
}

// compareWalk runs res.Fn with data d on both paths and fails on any
// difference in the counts.
func compareWalk(t *testing.T, label string, res *lower.Result, d *core.Data) {
	t.Helper()
	timed, err := sim.New(res.Fn)
	if err != nil {
		t.Fatal(err)
	}
	core.InitMachine(timed, res.ArrayID, d)
	want, err := timedEdges(timed, len(res.Fn.Blocks))
	if err != nil {
		t.Fatalf("%s: timing run: %v", label, err)
	}
	walk, err := sim.New(res.Fn)
	if err != nil {
		t.Fatal(err)
	}
	core.InitMachine(walk, res.ArrayID, d)
	got, err := walk.CountEdges()
	if err != nil {
		t.Fatalf("%s: walk: %v", label, err)
	}
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: edge b%d/%d: walk %d, timing run %d", label, i/2, i%2, got[i], want[i])
			}
		}
		t.Fatalf("%s: walk returned %d counts, timing run %d", label, len(got), len(want))
	}
}

// lowerKey applies the transform prefix ahead of profiling — locality
// analysis, then unrolling — and lowers the result, as core.Compile does.
func lowerKey(t *testing.T, p *hlir.Program, la bool, lu int) *lower.Result {
	t.Helper()
	prog := p
	if la {
		prog, _ = locality.Apply(prog, lu)
	}
	if lu > 0 {
		prog = unroll.Apply(prog, lu)
	}
	if prog == p {
		prog = p.Clone()
	}
	res, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCountEdgesMatchesRunOnAnalogs covers every function the paper grid
// profiles: the 17 analogs under the five transform keys of its trace
// cells (no locality analysis with unrolling 0, 4 and 8; locality
// analysis with unrolling 4 and 8).
func TestCountEdgesMatchesRunOnAnalogs(t *testing.T) {
	keys := []struct {
		la bool
		lu int
	}{{false, 0}, {false, 4}, {false, 8}, {true, 4}, {true, 8}}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, d := b.Build()
			for _, k := range keys {
				compareWalk(t, fmt.Sprintf("LA=%v LU=%d", k.la, k.lu), lowerKey(t, p, k.la, k.lu), d)
			}
		})
	}
}

// TestCountEdgesMatchesRunOnCorpus covers the pinned 200-program
// generated corpus, lowered plain and unrolled by 4.
func TestCountEdgesMatchesRunOnCorpus(t *testing.T) {
	items, err := hlirgen.Corpus(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		for _, lu := range []int{0, 4} {
			compareWalk(t, fmt.Sprintf("%s LU=%d", it.Prog.Name, lu), lowerKey(t, it.Prog, false, lu), it.Data)
		}
	}
}

// sameFailure runs fn on both paths on fresh machines prepared by prep
// and requires both to fail with the same message.
func sameFailure(t *testing.T, fn *ir.Func, prep func(*sim.Machine)) {
	t.Helper()
	var msgs [2]string
	for i := range msgs {
		m, err := sim.New(fn)
		if err != nil {
			t.Fatal(err)
		}
		prep(m)
		if i == 0 {
			_, err = m.Run(nil)
		} else {
			_, err = m.CountEdges()
		}
		if err == nil {
			t.Fatalf("%s: path %d did not fail", fn.Name, i)
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("%s: timing run failed with %q, walk with %q", fn.Name, msgs[0], msgs[1])
	}
}

// TestCountEdgesFailsLikeRun requires the walk to fail exactly like the
// timing run on a runaway loop, an out-of-range address, an absolute
// memory operation without a valid array and a block with no successor.
func TestCountEdgesFailsLikeRun(t *testing.T) {
	noop := func(*sim.Machine) {}

	loop := &ir.Func{Name: "loop"}
	b := loop.NewBlock()
	b.Instrs = []*ir.Instr{{Op: ir.OpBr, Target: 0}}
	b.Succs = []int{0}
	sameFailure(t, loop, func(m *sim.Machine) { m.MaxInstrs = 1000 })

	oob := &ir.Func{Name: "oob"}
	a := oob.AddArray("a", 8)
	r := oob.NewReg(ir.RegInt)
	v := oob.NewReg(ir.RegFP)
	b = oob.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpMovi, Dst: r, Imm: 1 << 40},
		{Op: ir.OpLdF, Dst: v, Src: [2]ir.Reg{r}, Mem: &ir.MemRef{Array: a, Base: 0, Width: 8}},
		{Op: ir.OpRet},
	}
	sameFailure(t, oob, noop)

	abs := &ir.Func{Name: "abs"}
	abs.AddArray("a", 8)
	v = abs.NewReg(ir.RegFP)
	b = abs.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.OpStF, Src: [2]ir.Reg{v, ir.NoReg}, Mem: &ir.MemRef{Array: 7, Width: 8}},
		{Op: ir.OpRet},
	}
	sameFailure(t, abs, noop)

	// A block with neither a successor nor a ret fails Validate, so the
	// machine is built for a valid function and re-pointed with Reset,
	// which does not validate.
	valid := &ir.Func{Name: "dead"}
	valid.NewBlock().Instrs = []*ir.Instr{{Op: ir.OpRet}}
	dead := &ir.Func{Name: "dead"}
	dead.NewBlock()
	sameFailure(t, valid, func(m *sim.Machine) { m.Reset(dead) })
}
