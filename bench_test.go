// Package repro's root benchmarks regenerate the paper's tables under the
// Go benchmark harness: one benchmark per table (4-9), reporting the
// table's headline number as a custom metric, plus microbenchmarks for the
// pipeline stages and an ablation for the scheduler's register-pressure
// control. Absolute cycle counts come from the simulated Alpha 21164
// model, so ns/op measures harness cost while the custom metrics carry
// the reproduced results.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/hlirgen"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// tableSubset keeps table benchmarks fast while spanning the workload's
// behaviour classes: a stencil, a matrix code, a branchy code and a
// sparse code.
var tableSubset = []string{"ARC2D", "dnasa7", "DYFESM", "spice2g6"}

func runSuite(b *testing.B, names []string) *exp.Suite {
	b.Helper()
	s, err := exp.RunGrid(names, exp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// avgSpeedup averages base-config cycles over new-config cycles.
func avgSpeedup(s *exp.Suite, names []string, base, new core.Config) float64 {
	t := 0.0
	for _, n := range names {
		t += float64(s.Get(n, base).Metrics.Cycles) / float64(s.Get(n, new).Metrics.Cycles)
	}
	return t / float64(len(names))
}

var (
	bsNone = core.Config{Policy: sched.Balanced}
	tsNone = core.Config{Policy: sched.Traditional}
	bsLU4  = core.Config{Policy: sched.Balanced, Unroll: 4}
	bsLU8  = core.Config{Policy: sched.Balanced, Unroll: 8}
	tsLU4  = core.Config{Policy: sched.Traditional, Unroll: 4}
	tsLU8  = core.Config{Policy: sched.Traditional, Unroll: 8}
	bsTrS4 = core.Config{Policy: sched.Balanced, Trace: true, Unroll: 4}
	tsTrS4 = core.Config{Policy: sched.Traditional, Trace: true, Unroll: 4}
	bsTrS8 = core.Config{Policy: sched.Balanced, Trace: true, Unroll: 8}
	bsLA   = core.Config{Policy: sched.Balanced, Locality: true}
	bsLA8  = core.Config{Policy: sched.Balanced, Locality: true, Unroll: 8}
)

// BenchmarkTable4 regenerates Table 4's headline: balanced-scheduling
// speedup from loop unrolling by 4 and by 8.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, tableSubset)
		b.ReportMetric(avgSpeedup(s, tableSubset, bsNone, bsLU4), "speedup-LU4")
		b.ReportMetric(avgSpeedup(s, tableSubset, bsNone, bsLU8), "speedup-LU8")
	}
}

// BenchmarkTable5 regenerates Table 5's headline: balanced over
// traditional scheduling at each unrolling level.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, tableSubset)
		b.ReportMetric(avgSpeedup(s, tableSubset, tsNone, bsNone), "BSvsTS-noLU")
		b.ReportMetric(avgSpeedup(s, tableSubset, tsLU4, bsLU4), "BSvsTS-LU4")
		b.ReportMetric(avgSpeedup(s, tableSubset, tsLU8, bsLU8), "BSvsTS-LU8")
	}
}

// BenchmarkTable6 regenerates Table 6's headline: speedups over balanced
// scheduling alone for the strongest combination.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, tableSubset)
		b.ReportMetric(avgSpeedup(s, tableSubset, bsNone, bsTrS8), "speedup-TrS-LU8")
		b.ReportMetric(avgSpeedup(s, tableSubset, bsNone, bsLA), "speedup-LA")
	}
}

// BenchmarkTable7 regenerates Table 7's headline: balanced vs traditional
// with trace scheduling and unrolling.
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, tableSubset)
		b.ReportMetric(avgSpeedup(s, tableSubset, tsTrS4, bsTrS4), "BSvsTS-TrS-LU4")
	}
}

// BenchmarkTable8 regenerates Table 8's headline: load interlock cycles as
// a share of execution, balanced vs traditional.
func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, tableSubset)
		var bsShare, tsShare float64
		for _, n := range tableSubset {
			bsShare += s.Get(n, bsNone).Metrics.LoadInterlockShare()
			tsShare += s.Get(n, tsNone).Metrics.LoadInterlockShare()
		}
		b.ReportMetric(100*bsShare/float64(len(tableSubset)), "loadIL%-BS")
		b.ReportMetric(100*tsShare/float64(len(tableSubset)), "loadIL%-TS")
	}
}

// BenchmarkTable9 regenerates Table 9's headline: locality analysis
// speedups over balanced scheduling alone, on the benchmark the paper
// singles out (tomcatv) plus the subset average.
func BenchmarkTable9(b *testing.B) {
	names := append([]string{"tomcatv"}, tableSubset...)
	for i := 0; i < b.N; i++ {
		s := runSuite(b, names)
		b.ReportMetric(avgSpeedup(s, []string{"tomcatv"}, bsNone, bsLA), "tomcatv-LA")
		b.ReportMetric(avgSpeedup(s, names, bsNone, bsLA8), "speedup-LA-LU8")
	}
}

// BenchmarkGridEngine measures the cell-parallel experiment engine on
// the table subset at one worker, at GOMAXPROCS workers and
// oversubscribed, so scheduler-granularity wins (and regressions) show
// up as ns/op deltas on multi-core hardware.
func BenchmarkGridEngine(b *testing.B) {
	for _, jobs := range []int{1, 0, 32} {
		name := fmt.Sprintf("jobs=%d", jobs)
		if jobs == 0 {
			name = "jobs=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunGrid(tableSubset, exp.Options{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridEngineGenerated measures the engine on a seeded generated
// corpus (internal/hlirgen) instead of the paper benchmarks, so the cell
// count scales far past the 17×16 paper grid. The corpus size comes from
// GRID_BENCH_PROGRAMS (default 40 programs × 5 reduced configs = 200
// cells); the million-cell drill sets it to 200000 (10⁶ cells):
//
//	GRID_BENCH_PROGRAMS=200000 go test -run '^$' \
//	    -bench GridEngineGenerated/jobs=gomaxprocs -benchtime 1x
//
// Corpus minting happens outside the timed loop, so ns/op is the engine
// alone: front-end pre-phase, cell scheduling, pool traffic and the
// in-order finalize.
func BenchmarkGridEngineGenerated(b *testing.B) {
	n := 40
	if s := os.Getenv("GRID_BENCH_PROGRAMS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			b.Fatalf("bad GRID_BENCH_PROGRAMS=%q", s)
		}
		n = v
	}
	items, err := hlirgen.Corpus(7, n)
	if err != nil {
		b.Fatal(err)
	}
	cells := float64(n * len(exp.GenCells()))
	for _, jobs := range []int{1, 0} {
		name := fmt.Sprintf("jobs=%d", jobs)
		if jobs == 0 {
			name = "jobs=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunGenerated(items, exp.Options{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cells, "cells")
			b.ReportMetric(cells/b.Elapsed().Seconds()*float64(b.N), "cells/s")
		})
	}
}

// ----- pipeline-stage microbenchmarks -----

func buildLowered(b *testing.B, name string) (*lower.Result, *core.Data) {
	b.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	res, err := lower.Lower(p)
	if err != nil {
		b.Fatal(err)
	}
	return res, d
}

// BenchmarkBalancedWeights measures the Kerns-Eggers weight computation on
// the workload's largest basic block (BDNA's force body).
func BenchmarkBalancedWeights(b *testing.B) {
	res, _ := buildLowered(b, "BDNA")
	var big = res.Fn.Blocks[0]
	for _, blk := range res.Fn.Blocks {
		if len(blk.Instrs) > len(big.Instrs) {
			big = blk
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dag.Build(big.Instrs, dag.Options{})
		sched.AssignWeights(g, sched.Balanced)
	}
	b.ReportMetric(float64(len(big.Instrs)), "block-instrs")
}

// BenchmarkListSchedule measures the list scheduler itself.
func BenchmarkListSchedule(b *testing.B) {
	res, _ := buildLowered(b, "BDNA")
	var big = res.Fn.Blocks[0]
	for _, blk := range res.Fn.Blocks {
		if len(blk.Instrs) > len(big.Instrs) {
			big = blk
		}
	}
	g := dag.Build(big.Instrs, dag.Options{})
	sched.AssignWeights(g, sched.Balanced)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Schedule(g, res.Fn.RegClass)
	}
}

// BenchmarkLower measures lowering with address analysis on tomcatv
// unrolled by 4 (255 instructions); run with -benchmem for its allocation
// shape.
func BenchmarkLower(b *testing.B) {
	bm, err := workload.ByName("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	p, _ := bm.Build()
	p = unroll.Apply(p, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.Lower(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegalloc measures register allocation on block-scheduled TRFD
// (66 instructions in 7 blocks, allocated without spills).
func BenchmarkRegalloc(b *testing.B) {
	bm, err := workload.ByName("TRFD")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, _ := bm.Build()
		q := p.Clone()
		res, err := lower.Lower(q)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range res.Fn.Blocks {
			if err := trace.ScheduleBlock(res.Fn, blk, sched.Balanced, nil, false); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := regalloc.Allocate(res.Fn, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulation throughput
// (instructions/second of the 21164 model).
func BenchmarkSimulator(b *testing.B) {
	bm, err := workload.ByName("QCD2")
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	c, err := core.Compile(p, core.Config{Policy: sched.Balanced}, d, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.New(c.Fn)
		if err != nil {
			b.Fatal(err)
		}
		core.InitMachine(m, c.ArrayID, d)
		met, err := m.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += met.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkSimulatorPooled is BenchmarkSimulator drawing its machine from
// a sim.Pool: the zero-alloc steady state of the grid engine's hot path
// (Reset + Run, no memory-image rebuild). One Get/Put before the timer
// starts warms the pool, so no timed Get builds a cold machine.
func BenchmarkSimulatorPooled(b *testing.B) {
	bm, err := workload.ByName("QCD2")
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	c, err := core.Compile(p, core.Config{Policy: sched.Balanced}, d, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pool := sim.NewPool(nil)
	m, _, err := pool.Get(c.Fn)
	if err != nil {
		b.Fatal(err)
	}
	pool.Put(m)
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := pool.Get(c.Fn)
		if err != nil {
			b.Fatal(err)
		}
		core.InitMachine(m, c.ArrayID, d)
		met, err := m.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += met.Instrs
		pool.Put(m)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkSimulatorReference measures the original instruction-walking
// stepper (sim.Machine.Reference), the differential-testing baseline the
// predecoded fast core is measured against.
func BenchmarkSimulatorReference(b *testing.B) {
	bm, err := workload.ByName("QCD2")
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	c, err := core.Compile(p, core.Config{Policy: sched.Balanced}, d, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.New(c.Fn)
		if err != nil {
			b.Fatal(err)
		}
		m.Reference = true
		core.InitMachine(m, c.ArrayID, d)
		met, err := m.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += met.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkCompileFullPipeline measures end-to-end compilation (locality,
// unrolling, lowering, profiling, trace scheduling, allocation).
func BenchmarkCompileFullPipeline(b *testing.B) {
	bm, err := workload.ByName("hydro2d")
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	cfg := core.Config{Policy: sched.Balanced, Unroll: 8, Trace: true, Locality: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(p, cfg, d, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPressureControl quantifies the scheduler's
// register-pressure throttle (DESIGN.md §3.2): scheduling BDNA's huge
// block with and without pressure tracking and reporting the simulated
// cycle counts. Without the throttle, balanced scheduling front-loads
// every load and the allocator's spill code erases the gains.
func BenchmarkAblationPressureControl(b *testing.B) {
	bm, err := workload.ByName("BDNA")
	if err != nil {
		b.Fatal(err)
	}
	run := func(pressure bool) int64 {
		p, d := bm.Build()
		res, err := lower.Lower(p.Clone())
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range res.Fn.Blocks {
			if len(blk.Instrs) < 2 {
				continue
			}
			g := dag.Build(blk.Instrs, dag.Options{})
			sched.AssignWeights(g, sched.Balanced)
			classes := res.Fn.RegClass
			if !pressure {
				classes = nil
			}
			blk.Instrs = sched.Schedule(g, classes)
		}
		if _, err := regalloc.Allocate(res.Fn, nil, false); err != nil {
			b.Fatal(err)
		}
		m, err := sim.New(res.Fn)
		if err != nil {
			b.Fatal(err)
		}
		core.InitMachine(m, res.ArrayID, d)
		met, err := m.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		return met.Cycles
	}
	for i := 0; i < b.N; i++ {
		with := run(true)
		without := run(false)
		b.ReportMetric(float64(with), "cycles-with-throttle")
		b.ReportMetric(float64(without), "cycles-without")
	}
}

// BenchmarkProfileCollection measures the execution-driven edge profiler:
// one functional-only walk (sim.Machine.CountEdges) of DYFESM on a fresh
// machine.
func BenchmarkProfileCollection(b *testing.B) {
	bm, err := workload.ByName("DYFESM")
	if err != nil {
		b.Fatal(err)
	}
	p, d := bm.Build()
	res, err := lower.Lower(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Collect(res.Fn, func(m *sim.Machine) {
			core.InitMachine(m, res.ArrayID, d)
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableE1 regenerates the superscalar extension's headline.
func BenchmarkTableE1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.RunExt(tableSubset, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var w1, w4 float64
		for _, n := range tableSubset {
			ts, bs := s.Get(n, tsLU4), s.Get(n, bsLU4)
			w1 += float64(ts.Metrics.Cycles) / float64(bs.Metrics.Cycles)
			w4 += float64(ts.Wide[4].Cycles) / float64(bs.Wide[4].Cycles)
		}
		b.ReportMetric(w1/float64(len(tableSubset)), "BSvsTS-w1")
		b.ReportMetric(w4/float64(len(tableSubset)), "BSvsTS-w4")
	}
}

// BenchmarkTableE2 regenerates the policy extension's headline.
func BenchmarkTableE2(b *testing.B) {
	autoLU4 := core.Config{Policy: sched.Auto, Unroll: 4}
	for i := 0; i < b.N; i++ {
		s, err := exp.RunExt(tableSubset, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avgSpeedup(s, tableSubset, tsLU4, autoLU4), "AUTOvsTS")
	}
}

// BenchmarkTableE3 regenerates the prefetching extension's headline on the
// benchmarks with prefetchable streams.
func BenchmarkTableE3(b *testing.B) {
	names := []string{"TRFD", "alvinn", "dnasa7"}
	bsLA4 := core.Config{Policy: sched.Balanced, Locality: true, Unroll: 4}
	bsLAPF4 := core.Config{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4}
	for i := 0; i < b.N; i++ {
		s, err := exp.RunExt(names, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avgSpeedup(s, names, bsLA4, bsLAPF4), "PF-speedup")
	}
}

// BenchmarkAblationLICM quantifies the opt-in loop-invariant code motion
// pass (DESIGN.md: the default pipeline omits it to stay calibrated to the
// paper; Multiflow had it). Reported metrics are simulated cycles for
// balanced scheduling with and without the pass across the subset.
func BenchmarkAblationLICM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var with, without int64
		for _, name := range tableSubset {
			bm, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p, d := bm.Build()
			for _, on := range []bool{true, false} {
				cfg := core.Config{Policy: sched.Balanced, Unroll: 4, LICM: on}
				c, err := core.Compile(p, cfg, d, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := core.Execute(c, d)
				if err != nil {
					b.Fatal(err)
				}
				if on {
					with += met.Cycles
				} else {
					without += met.Cycles
				}
			}
		}
		b.ReportMetric(float64(without)/float64(with), "licm-speedup")
	}
}
