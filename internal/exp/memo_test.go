package exp

import (
	"context"
	"maps"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hlirgen"
	"repro/internal/ir"
	"repro/internal/workload"
)

// reusedCells counts the timing runs the benchmarks' memos served in an
// observed grid run.
func reusedCells(t *testing.T, s *Suite) int64 {
	t.Helper()
	merged := s.MergedObs()
	if merged == nil {
		t.Fatal("observed run has no counters")
	}
	return merged.Counters["sim/reused"]
}

// TestGridReusesIdenticalCells pins how many timing runs the memo saves:
// at Jobs:1 the paper grid reuses 124 of its 272 width-1 simulations and
// the pinned 200-program corpus 508 of its 1000. Every cell still
// carries its own metrics (the tables and bench digests pin their
// values).
func TestGridReusesIdenticalCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper grid and a 200-program corpus; skipped with -short")
	}
	paper, err := RunGrid(nil, Options{Jobs: 1, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := reusedCells(t, paper); got != 124 {
		t.Errorf("paper grid reused %d of 272 simulations, want 124", got)
	}
	items, err := hlirgen.Corpus(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := RunGenerated(items, Options{Jobs: 1, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := reusedCells(t, gen); got != 508 {
		t.Errorf("generated corpus reused %d of 1000 simulations, want 508", got)
	}
}

// twins compiles one build of bench under cfg, a fresh copy per call,
// the way a grid's cells share their benchmark's front-end.
func twins(t *testing.T, bench string, cfg core.Config) (compile func() *core.Compiled, d *core.Data) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p, d := b.Build()
	return func() *core.Compiled {
		c, err := core.Compile(p, cfg, d, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, d
}

// TestSimMemoMissesOnAnyKeyedChange stores one tomcatv cell's run and
// looks up identical recompilations with one keyed input changed: each
// must miss, and the unchanged twin must hit.
func TestSimMemoMissesOnAnyKeyedChange(t *testing.T) {
	compile, d := twins(t, "tomcatv", bsNone)
	first := compile()
	met, sum, _, err := core.ExecutePooled(first, d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := &simMemo{}
	memo.store(memo.key(first, 1), first, met, sum)

	twin := compile()
	got, gotSum, ok := memo.lookup(memo.key(twin, 1), twin)
	if !ok || *got != *met || gotSum != sum {
		t.Fatalf("identical recompilation missed the memo (hit=%v)", ok)
	}
	if got == met {
		t.Error("a hit returned the stored metrics, not a copy")
	}

	// firstWith returns the first instruction satisfying pick.
	firstWith := func(c *core.Compiled, pick func(*ir.Instr) bool) *ir.Instr {
		for _, b := range c.Fn.Blocks {
			for _, in := range b.Instrs {
				if pick(in) {
					return in
				}
			}
		}
		t.Fatal("no instruction to mutate")
		return nil
	}
	mutations := []struct {
		name   string
		width  int
		mutate func(c *core.Compiled)
	}{
		{"an Imm", 1, func(c *core.Compiled) {
			firstWith(c, func(in *ir.Instr) bool { return in.UseImm }).Imm++
		}},
		{"a source register", 1, func(c *core.Compiled) {
			in := firstWith(c, func(in *ir.Instr) bool {
				return in.Src[0] != ir.NoReg && in.Src[1] != ir.NoReg && in.Src[0] != in.Src[1]
			})
			in.Src[0], in.Src[1] = in.Src[1], in.Src[0]
		}},
		{"a successor", 1, func(c *core.Compiled) {
			for _, b := range c.Fn.Blocks {
				if len(b.Succs) == 2 {
					b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
					return
				}
			}
			t.Fatal("no two-way block")
		}},
		{"an array size", 1, func(c *core.Compiled) { c.Fn.Arrays[0].Size += 64 }},
		{"the issue width", 2, func(c *core.Compiled) {}},
		{"the ArrayID mapping", 1, func(c *core.Compiled) {
			ids := maps.Clone(c.ArrayID)
			for a, id := range ids {
				ids[a] = id + 1
				break
			}
			c.ArrayID = ids
		}},
		{"the outputs", 1, func(c *core.Compiled) {
			c.Outputs = c.Outputs[:len(c.Outputs)-1]
		}},
	}
	for _, m := range mutations {
		c := compile()
		m.mutate(c)
		if _, _, ok := memo.lookup(memo.key(c, m.width), c); ok {
			t.Errorf("changing %s still hit the memo", m.name)
		}
	}
}

// TestFailedSimulationLeavesNoEntry injects an error into the first
// timing run of a tomcatv grid of BS and BS+TrS, which compile to
// identical code. BS fails; BS+TrS must then run its own simulation
// rather than reuse anything, while a clean grid reuses BS's run. A
// CellRunner always simulates, and its metrics equal the reused cell's.
func TestFailedSimulationLeavesNoEntry(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	grid := func() (*Suite, error) {
		return RunBenchmarksConfigs([]workload.Benchmark{b}, []core.Config{bsNone, bsTrS}, Options{Jobs: 1, Observe: true})
	}
	clean, err := grid()
	if err != nil {
		t.Fatal(err)
	}
	reused := clean.Get("tomcatv", bsTrS)
	if n := reused.Obs.Counters["sim/reused"]; n != 1 {
		t.Fatalf("clean grid: BS+TrS reused %d runs, want 1 (BS's)", n)
	}

	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "sim/run", Key: "tomcatv", Mode: faultinject.ModeError, OnHit: 1,
	}))
	s, err := grid()
	faultinject.Disable()
	if err == nil {
		t.Fatal("injected simulation error did not degrade the grid")
	}
	if r := s.Get("tomcatv", bsNone); r.Err == nil || !faultinject.IsInjected(r.Err.Err) {
		t.Fatalf("BS: want the injected simulation error, got %v", r.Err)
	}
	r := s.Get("tomcatv", bsTrS)
	if r.Err != nil {
		t.Fatalf("BS+TrS failed: %v", r.Err)
	}
	if n := r.Obs.Counters["sim/reused"]; n != 0 {
		t.Errorf("BS+TrS reused %d runs after BS's run failed, want its own simulation", n)
	}
	if *r.Metrics != *reused.Metrics {
		t.Errorf("simulated BS+TrS %v differs from the reused one %v", r.Metrics, reused.Metrics)
	}

	cr := NewCellRunner()
	for _, cfg := range []core.Config{bsNone, bsTrS} {
		res, err := cr.Run(context.Background(), "tomcatv", cfg, Options{Observe: true})
		if err != nil {
			t.Fatal(err)
		}
		// One machine for the simulation, and one more for the profile
		// run of the trace configuration.
		c, draws := res.Obs.Counters, int64(1)
		if cfg.Trace {
			draws = 2
		}
		if c["sim/reused"] != 0 || c["sim/machine_pool_hits"]+c["sim/machine_pool_misses"] != draws {
			t.Errorf("CellRunner %s: reused=%d pool draws=%d, want a real simulation", cfg.Name(),
				c["sim/reused"], c["sim/machine_pool_hits"]+c["sim/machine_pool_misses"])
		}
		if *res.Metrics != *clean.Get("tomcatv", cfg).Metrics {
			t.Errorf("CellRunner %s metrics %v differ from the grid's %v", cfg.Name(), res.Metrics, clean.Get("tomcatv", cfg).Metrics)
		}
	}
}

// TestSimMemoConcurrent has workers look up, and on a miss store,
// identical cells at once, as a grid's workers do at Jobs > 1: every
// hit must return the first run's values, in a private copy.
func TestSimMemoConcurrent(t *testing.T) {
	compile, d := twins(t, "tomcatv", bsNone)
	cells := []*core.Compiled{compile(), compile(), compile(), compile()}
	met, sum, _, err := core.ExecutePooled(cells[0], d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := *met
	memo := &simMemo{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(c *core.Compiled) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := memo.key(c, 1)
				got, gotSum, ok := memo.lookup(k, c)
				if !ok {
					memo.store(k, c, &want, sum)
					continue
				}
				if *got != want || gotSum != sum {
					t.Errorf("hit returned %v/%#x, want %v/%#x", got, gotSum, want, sum)
					return
				}
				got.Cycles++ // a caller's copy is its own
			}
		}(cells[w%len(cells)])
	}
	wg.Wait()
}
