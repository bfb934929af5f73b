package sched_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/sched"
	"repro/internal/workload"
)

// largestBlock lowers BDNA and returns its function and its largest basic
// block (136 instructions, 16 of them loads): the block the root
// BenchmarkBalancedWeights and BenchmarkListSchedule measure.
func largestBlock(t *testing.T) (*ir.Func, *ir.Block) {
	t.Helper()
	b, err := workload.ByName("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := b.Build()
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	big := res.Fn.Blocks[0]
	for _, blk := range res.Fn.Blocks {
		if len(blk.Instrs) > len(big.Instrs) {
			big = blk
		}
	}
	return res.Fn, big
}

// raceEnabled is set by race_test.go: under the race detector,
// sync.Pool drops a random quarter of the graphs handed back to it.
var raceEnabled bool

// TestSchedulerAllocations pins the block scheduler's allocation shape
// with observability off: weighting and scheduling a region allocate a
// few flat tables per call, not a map, slice or closure per node, and
// building a region's DAG in the storage a released graph left behind
// allocates nothing at all.
func TestSchedulerAllocations(t *testing.T) {
	fn, big := largestBlock(t)
	g := dag.Build(big.Instrs, dag.Options{})
	if len(g.Nodes) != 136 || len(g.Loads()) != 16 {
		t.Fatalf("BDNA's largest block has %d instructions and %d loads, want 136 and 16", len(g.Nodes), len(g.Loads()))
	}
	const limit = 20
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"AssignWeights(Balanced)", func() { sched.AssignWeights(g, sched.Balanced) }},
		{"AssignWeights(BalancedFixed)", func() { sched.AssignWeights(g, sched.BalancedFixed) }},
		{"Schedule", func() { sched.Schedule(g, fn.RegClass) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > limit {
			t.Errorf("%s: %.0f allocs per call, want <= %d", c.name, got, limit)
		}
	}
	g.Release()
	if raceEnabled {
		t.Log("race detector on: dag.Build's reuse is not pinned")
		return
	}
	build := func() { dag.Build(big.Instrs, dag.Options{}).Release() }
	build() // warm-up
	if got := testing.AllocsPerRun(20, build); got != 0 {
		t.Errorf("dag.Build+Release: %.0f allocs per call after warm-up, want 0", got)
	}
}
