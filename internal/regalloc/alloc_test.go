package regalloc_test

import (
	"runtime"
	"testing"

	"repro/internal/lower"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// TestAllocateAllocations pins register allocation's allocation shape on
// TRFD unrolled by 8 and block-scheduled (537 instructions in 35
// blocks): Allocate rewrites the function's instructions in place and
// allocates per-block and per-register tables, so it makes fewer than
// one allocation per two instructions. Copying every instruction would
// take at least one per instruction.
func TestAllocateAllocations(t *testing.T) {
	b, err := workload.ByName("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := b.Build()
	res, err := lower.Lower(unroll.Apply(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range res.Fn.Blocks {
		if err := trace.ScheduleBlock(res.Fn, blk, sched.Balanced, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	instrs := res.Fn.NumInstrs()
	if instrs != 537 || len(res.Fn.Blocks) != 35 {
		t.Fatalf("TRFD at LU8 has %d instructions in %d blocks, want 537 in 35", instrs, len(res.Fn.Blocks))
	}
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		fn := res.Fn.Clone()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := regalloc.Allocate(fn, nil, false)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		total += m1.Mallocs - m0.Mallocs
	}
	if got := total / runs; got >= uint64(instrs/2) {
		t.Errorf("Allocate: %d allocs per call, want fewer than %d (half the instruction count)", got, instrs/2)
	}
}
