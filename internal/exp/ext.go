package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
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
// All three grids execute on the same cell-parallel engine as the main
// grid (runGrid), so they share its front-end reuse, worker pool,
// deterministic merge and per-cell output-checksum oracle.

// ExtResult is one benchmark's cycles per (policy, width) cell.
type ExtResult struct {
	// Bench is the benchmark name.
	Bench string
	// Cycles maps a cell label to simulated cycles.
	Cycles map[string]int64
}

// runExt executes specs for the named benchmarks on the engine and
// collects cycles into one ExtResult per benchmark (in benchmark order),
// labelled by key.
func runExt(names []string, specs []cellSpec, key func(cfg core.Config, width int) string, opt Options) ([]ExtResult, error) {
	benches, err := pick(names)
	if err != nil {
		return nil, err
	}
	out := make([]ExtResult, len(benches))
	idx := make(map[string]int, len(benches))
	for i, b := range benches {
		out[i] = ExtResult{Bench: b.Name, Cycles: map[string]int64{}}
		idx[b.Name] = i
	}
	err = runGrid(benches, specs, opt, nil, func(r cellResult) {
		if r.err != nil || r.mets == nil {
			return // injured cell: its labels stay absent from Cycles
		}
		for w, met := range r.mets {
			out[idx[r.bench]].Cycles[key(r.cfg, w)] = met.Cycles
		}
	})
	if err != nil {
		return out, err
	}
	return out, nil
}

// widthKey labels extension cells the way the E1/E3 tables index them.
func widthKey(cfg core.Config, width int) string {
	return fmt.Sprintf("%s/w%d", cfg.Name(), width)
}

func extOpt(opt []Options) Options {
	if len(opt) > 0 {
		return opt[0]
	}
	return Options{}
}

// RunE1 measures balanced vs traditional scheduling (with unrolling by 4)
// at issue widths 1, 2 and 4 for the named benchmarks (all when empty).
func RunE1(names []string, opt ...Options) ([]ExtResult, error) {
	specs := []cellSpec{
		{cfg: core.Config{Policy: sched.Traditional, Unroll: 4}, widths: []int{1, 2, 4}},
		{cfg: core.Config{Policy: sched.Balanced, Unroll: 4}, widths: []int{1, 2, 4}},
	}
	return runExt(names, specs, widthKey, extOpt(opt))
}

// TableE1 renders E1: the BS-over-TS speedup at each issue width. The
// paper's hypothesis is that wider issue, which needs more ILP, should
// favour the scheduler that manages ILP explicitly.
func TableE1(names []string, opt ...Options) (*Table, error) {
	results, err := RunE1(names, opt...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table E1 (extension): BS/TS speedup at issue widths 1, 2, 4 (with loop unrolling by 4).",
		Header: []string{"Benchmark", "width 1", "width 2", "width 4"},
	}
	sums := make([]float64, 3)
	for _, r := range results {
		row := []string{r.Bench}
		for wi, w := range []int{1, 2, 4} {
			sp := float64(r.Cycles[fmt.Sprintf("TS+LU4/w%d", w)]) /
				float64(r.Cycles[fmt.Sprintf("BS+LU4/w%d", w)])
			row = append(row, f2(sp))
			sums[wi] += sp
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(results))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// RunE2 measures the four scheduler policies (traditional, balanced,
// balanced-fixed, auto) with unrolling by 4 on the named benchmarks.
func RunE2(names []string, opt ...Options) ([]ExtResult, error) {
	var specs []cellSpec
	for _, policy := range []sched.Policy{sched.Traditional, sched.Balanced, sched.BalancedFixed, sched.Auto} {
		specs = append(specs, cellSpec{cfg: core.Config{Policy: policy, Unroll: 4}})
	}
	return runExt(names, specs, func(cfg core.Config, _ int) string { return cfg.Name() }, extOpt(opt))
}

// TableE2 renders E2: each policy's speedup over traditional scheduling.
func TableE2(names []string, opt ...Options) (*Table, error) {
	results, err := RunE2(names, opt...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table E2 (extension): speedup over traditional scheduling per policy (with loop unrolling by 4).",
		Header: []string{"Benchmark", "BS", "BF (fixed-aware)", "AUTO (per-block)"},
	}
	cols := []string{"BS+LU4", "BF+LU4", "AUTO+LU4"}
	sums := make([]float64, len(cols))
	for _, r := range results {
		row := []string{r.Bench}
		base := float64(r.Cycles["TS+LU4"])
		for ci, c := range cols {
			sp := base / float64(r.Cycles[c])
			row = append(row, f2(sp))
			sums[ci] += sp
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(results))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

func pick(names []string) ([]workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	var out []workload.Benchmark
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// RunE3 measures selective software prefetching (the Mowry–Lam–Gupta
// optimization the paper's locality analysis was built for) on top of
// BS+LA+LU4, at issue widths 1 and 2: on the single-issue machine the
// hint instructions compete for the only issue slot, so the benefit
// appears once a second slot exists.
func RunE3(names []string, opt ...Options) ([]ExtResult, error) {
	specs := []cellSpec{
		{cfg: core.Config{Policy: sched.Balanced, Locality: true, Unroll: 4}, widths: []int{1, 2}},
		{cfg: core.Config{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4}, widths: []int{1, 2}},
	}
	return runExt(names, specs, widthKey, extOpt(opt))
}

// TableE3 renders E3: the speedup from adding prefetching at each width.
func TableE3(names []string, opt ...Options) (*Table, error) {
	results, err := RunE3(names, opt...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table E3 (extension): speedup from selective software prefetching over BS+LA+LU4, at issue widths 1 and 2.",
		Header: []string{"Benchmark", "width 1", "width 2"},
	}
	sums := make([]float64, 2)
	for _, r := range results {
		row := []string{r.Bench}
		for wi, w := range []int{1, 2} {
			sp := float64(r.Cycles[fmt.Sprintf("BS+LA+LU4/w%d", w)]) /
				float64(r.Cycles[fmt.Sprintf("BS+LA+PF+LU4/w%d", w)])
			row = append(row, f2(sp))
			sums[wi] += sp
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, f2(s/float64(len(results))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}
