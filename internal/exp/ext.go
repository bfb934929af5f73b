package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// This file implements the paper's stated future work (Section 6) as
// extension experiments:
//
//   - E1: balanced vs traditional scheduling on wider-issue (superscalar)
//     processors — "we intend to examine its effects on wider-issue
//     (superscalar) processors that require considerable instruction-level
//     parallelism to perform well".
//   - E2: two remedies for the fixed-latency blind spot — a balanced
//     variant whose weights account for multi-cycle fixed-latency
//     operations, and a per-block scheduler-choice heuristic — "new
//     techniques to better handle fixed, non-load interlock cycles within
//     the framework of the balanced scheduling algorithm".
//   - E3: selective software prefetching of the predicted-miss loads,
//     closing the loop on Mowry, Lam and Gupta's original use of the
//     locality analysis the paper borrows.
//
// The three share one grid (RunExt) on the same engine as the paper
// grid, so they share its front-end reuse, workers, machine pool,
// queue-order finalize and per-cell output-checksum oracle, and each of
// their tables is a Suite method.

var (
	bfLU4   = core.Config{Policy: sched.BalancedFixed, Unroll: 4}
	autoLU4 = core.Config{Policy: sched.Auto, Unroll: 4}
	bsLAPF4 = core.Config{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4}
)

// extSpecs is the union of E1–E3's cells, each simulated at every issue
// width a table reads: six cells per benchmark.
var extSpecs = []cellSpec{
	{cfg: tsLU4, widths: []int{1, 2, 4}},
	{cfg: bsLU4, widths: []int{1, 2, 4}},
	{cfg: bfLU4},
	{cfg: autoLU4},
	{cfg: bsLA4, widths: []int{1, 2}},
	{cfg: bsLAPF4, widths: []int{1, 2}},
}

// RunExt runs the extension grid over the named benchmarks (all
// seventeen when names is empty) in one engine run. When the grid
// completes degraded the returned error is a *GridError and the Suite is
// still valid for every healthy cell.
func RunExt(names []string, opt Options) (*Suite, error) {
	benches, err := pick(names)
	if err != nil {
		return nil, err
	}
	return runSuite(benches, extSpecs, opt)
}

// widthCols returns one speedup column per issue width.
func widthCols(base, new core.Config, widths ...int) []speedupCol {
	var cols []speedupCol
	for _, w := range widths {
		cols = append(cols, speedupCol{name: fmt.Sprintf("width %d", w), base: base, new: new, width: w})
	}
	return cols
}

// TableE1 renders E1: the BS-over-TS speedup at each issue width. The
// paper's hypothesis is that wider issue, which needs more ILP, should
// favour the scheduler that manages ILP explicitly.
func (s *Suite) TableE1() *Table {
	return s.speedupTable("Table E1 (extension): BS/TS speedup at issue widths 1, 2, 4 (with loop unrolling by 4).",
		widthCols(tsLU4, bsLU4, 1, 2, 4))
}

// TableE2 renders E2: each policy's speedup over traditional scheduling.
func (s *Suite) TableE2() *Table {
	return s.speedupTable("Table E2 (extension): speedup over traditional scheduling per policy (with loop unrolling by 4).",
		[]speedupCol{
			{name: "BS", base: tsLU4, new: bsLU4},
			{name: "BF (fixed-aware)", base: tsLU4, new: bfLU4},
			{name: "AUTO (per-block)", base: tsLU4, new: autoLU4},
		})
}

// TableE3 renders E3: the speedup from adding prefetching to BS+LA+LU4
// at each issue width. On the single-issue machine the hint
// instructions compete for the only issue slot, so the benefit appears
// once a second slot exists.
func (s *Suite) TableE3() *Table {
	return s.speedupTable("Table E3 (extension): speedup from selective software prefetching over BS+LA+LU4, at issue widths 1 and 2.",
		widthCols(bsLA4, bsLAPF4, 1, 2))
}
