package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// met fetches a cell's metrics, panicking on a missing cell — the test
// grids below are complete by construction.
func met(s *Suite, bench string, cfg core.Config) *sim.Metrics {
	m, ok := s.metrics(bench, cfg)
	if !ok {
		panic(fmt.Sprintf("missing cell %s/%s", bench, cfg.Name()))
	}
	return m
}

// subset keeps the grid small for test runtime while covering the three
// behaviour archetypes: a stencil (unrolling + locality), a branchy
// program (trace scheduling) and a sparse program (nothing applies).
var subset = []string{"tomcatv", "DYFESM", "spice2g6"}

func runSubset(t *testing.T) *Suite {
	t.Helper()
	// Verifiers are always on in tests: every scheduled region is checked
	// against its DAG and every allocation against its live ranges.
	s, err := RunGrid(subset, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCellsComplete(t *testing.T) {
	cells := Cells()
	if len(cells) != 16 {
		t.Fatalf("grid has %d cells, want 16", len(cells))
	}
	names := map[string]bool{}
	for _, c := range cells {
		n := c.Name()
		if names[n] {
			t.Errorf("duplicate cell %s", n)
		}
		names[n] = true
		if c.Policy == sched.Traditional && c.Locality {
			t.Errorf("cell %s: locality analysis has no traditional-scheduling counterpart", n)
		}
	}
	for _, want := range []string{"BS", "TS", "BS+LU4", "BS+LU8", "TS+LU8",
		"BS+TrS+LU8", "BS+LA", "BS+LA+TrS+LU8", "TS+TrS+LU4"} {
		if !names[want] {
			t.Errorf("grid missing cell %s", want)
		}
	}
}

func TestRunFillsGridAndVerifiesOutputs(t *testing.T) {
	s := runSubset(t)
	for _, b := range subset {
		for _, cfg := range Cells() {
			r := s.Get(b, cfg)
			if r == nil {
				t.Fatalf("missing cell %s/%s", b, cfg.Name())
			}
			if r.Metrics.Cycles == 0 || r.Metrics.Instrs == 0 {
				t.Errorf("%s/%s: empty metrics", b, cfg.Name())
			}
		}
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if _, err := RunGrid([]string{"nope"}, Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRunRejectsRepeatedBenchmark: a suite holds one row per benchmark,
// so both grid entry points refuse a name given twice, naming it,
// before any cell runs.
func TestRunRejectsRepeatedBenchmark(t *testing.T) {
	names := []string{"tomcatv", "TRFD", "tomcatv"}
	for _, run := range []struct {
		name string
		fn   func([]string, Options) (*Suite, error)
	}{{"RunGrid", RunGrid}, {"RunExt", RunExt}} {
		s, err := run.fn(names, Options{})
		if err == nil || !strings.Contains(err.Error(), `"tomcatv"`) {
			t.Errorf("%s(%v) = error %v, want one naming tomcatv", run.name, names, err)
		}
		if s != nil {
			t.Errorf("%s returned a suite for a repeated benchmark", run.name)
		}
	}
}

func TestTablesRender(t *testing.T) {
	s := runSubset(t)
	for i, tab := range s.Tables() {
		if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("table %d empty", i+4)
		}
		var sb strings.Builder
		tab.Write(&sb)
		out := sb.String()
		if !strings.Contains(out, tab.Header[0]) {
			t.Errorf("table %d render missing header", i+4)
		}
		for _, b := range subset {
			if i < 2 && !strings.Contains(out, b) {
				t.Errorf("table %d missing row for %s", i+4, b)
			}
		}
	}
	for _, tab := range []*Table{Table1(), Table2(), Table3()} {
		var sb strings.Builder
		tab.Write(&sb)
		if len(sb.String()) == 0 {
			t.Error("static table rendered empty")
		}
	}
}

func TestTable1ListsSeventeenPrograms(t *testing.T) {
	if got := len(Table1().Rows); got != 17 {
		t.Errorf("Table 1 lists %d programs, want 17", got)
	}
}

// TestPaperShapeSubset asserts the qualitative results the paper reports,
// on the subset: tomcatv gains strongly from locality analysis; DYFESM is
// hurt (or at best not helped) by trace scheduling relative to unrolling
// alone; spice2g6 is insensitive to unrolling.
func TestPaperShapeSubset(t *testing.T) {
	s := runSubset(t)
	bs := core.Config{Policy: sched.Balanced}
	la := core.Config{Policy: sched.Balanced, Locality: true}
	lu4 := core.Config{Policy: sched.Balanced, Unroll: 4}
	trs4 := core.Config{Policy: sched.Balanced, Trace: true, Unroll: 4}

	// tomcatv: LA ≥ 1.3 over BS alone (paper: 1.5).
	tom0 := met(s, "tomcatv", bs)
	tomLA := met(s, "tomcatv", la)
	if sp := speedup(tom0, tomLA); sp < 1.3 {
		t.Errorf("tomcatv locality speedup = %.2f, want >= 1.3", sp)
	}

	// DYFESM: trace scheduling must not beat plain unrolling by much —
	// its branches are 50/50, the paper's trace-scheduling failure mode.
	dyLU := met(s, "DYFESM", lu4)
	dyTr := met(s, "DYFESM", trs4)
	if sp := speedup(dyLU, dyTr); sp > 1.05 {
		t.Errorf("DYFESM gained %.2f from trace scheduling; expected none", sp)
	}

	// spice2g6: unrolling must barely change the instruction count (the
	// conditionals block it).
	sp0 := met(s, "spice2g6", bs)
	sp4 := met(s, "spice2g6", lu4)
	if d := pctDecrease(sp0.Instrs, sp4.Instrs); d > 1 {
		t.Errorf("spice2g6 instruction count fell %.1f%% under unrolling; expected ~0", d)
	}

	// spice2g6: load interlocks dominate under both schedulers.
	ts := core.Config{Policy: sched.Traditional}
	if met(s, "spice2g6", bs).LoadInterlockShare() < 0.3 ||
		met(s, "spice2g6", ts).LoadInterlockShare() < 0.3 {
		t.Error("spice2g6 load interlock share unexpectedly low")
	}
}

func TestHelpers(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if pctDecrease(0, 5) != 0 {
		t.Error("pctDecrease division by zero")
	}
	if pctDecrease(100, 75) != 25 {
		t.Error("pctDecrease wrong")
	}
}

func TestExtensionTables(t *testing.T) {
	s, err := RunExt(subset, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.JSON().Configs; len(got) != 6 {
		t.Errorf("extension grid ran configurations %v, want the 6 of E1-E3", got)
	}
	for name, tab := range map[string]*Table{"E1": s.TableE1(), "E2": s.TableE2(), "E3": s.TableE3()} {
		if len(tab.Rows) != len(subset)+1 {
			t.Errorf("%s has %d rows, want %d", name, len(tab.Rows), len(subset)+1)
		}
	}
	var sb strings.Builder
	s.TableE1().Write(&sb)
	s.TableE2().Write(&sb)
	if !strings.Contains(sb.String(), "width 4") || !strings.Contains(sb.String(), "AUTO") {
		t.Error("extension tables missing expected columns")
	}
}

func TestExtensionRejectsUnknownBenchmark(t *testing.T) {
	if _, err := RunExt([]string{"nope"}, Options{}); err == nil {
		t.Error("RunExt accepted unknown benchmark")
	}
}

// TestFullGridShape runs the complete 17-benchmark grid (about five
// seconds) and asserts the paper's headline shape — the regression net
// for the reproduction's claims. Skipped under -short.
func TestFullGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid takes seconds; skipped with -short")
	}
	s, err := RunGrid(nil, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(f func(b string) float64) float64 {
		t := 0.0
		for _, b := range s.Benchmarks {
			t += f(b)
		}
		return t / float64(len(s.Benchmarks))
	}
	bsVsTs := func(bs, ts core.Config) float64 {
		return avg(func(b string) float64 {
			return speedup(met(s, b, ts), met(s, b, bs))
		})
	}

	// 1. Balanced scheduling's advantage must grow when unrolling adds
	//    ILP (the paper's core claim), and never fall below break-even on
	//    average.
	noLU := bsVsTs(bsNone, tsNone)
	lu4 := bsVsTs(bsLU4, tsLU4)
	if noLU < 0.97 {
		t.Errorf("BS/TS with no optimizations = %.3f; expected ≈1 or better", noLU)
	}
	if lu4 < noLU+0.05 {
		t.Errorf("BS advantage did not grow with unrolling: %.3f -> %.3f", noLU, lu4)
	}

	// 2. Balanced scheduling's load-interlock share must sit well below
	//    traditional scheduling's at every optimization level.
	for _, lv := range [][2]core.Config{{bsNone, tsNone}, {bsLU4, tsLU4}, {bsLU8, tsLU8}, {bsTrS4, tsTrS4}, {bsTrS8, tsTrS8}} {
		lv := lv
		bsShare := avg(func(b string) float64 { return met(s, b, lv[0]).LoadInterlockShare() })
		tsShare := avg(func(b string) float64 { return met(s, b, lv[1]).LoadInterlockShare() })
		if bsShare > 0.85*tsShare {
			t.Errorf("%s: BS load-interlock share %.1f%% not well below TS %.1f%%",
				lv[0].Name(), 100*bsShare, 100*tsShare)
		}
	}

	// 3. Unrolling by 8 must beat unrolling by 4 for balanced scheduling
	//    (paper Table 4: 1.19 -> 1.28).
	sp4 := avg(func(b string) float64 { return speedup(met(s, b, bsNone), met(s, b, bsLU4)) })
	sp8 := avg(func(b string) float64 { return speedup(met(s, b, bsNone), met(s, b, bsLU8)) })
	if sp8 <= sp4 {
		t.Errorf("LU8 speedup %.2f not above LU4 %.2f", sp8, sp4)
	}

	// 4. Locality analysis must deliver real speedup on its own and
	//    compound with unrolling (paper Table 9's relative column).
	laAlone := avg(func(b string) float64 { return speedup(met(s, b, bsNone), met(s, b, bsLA)) })
	la8 := avg(func(b string) float64 { return speedup(met(s, b, bsNone), met(s, b, bsLA8)) })
	if laAlone < 1.1 {
		t.Errorf("locality analysis alone = %.2f, want >= 1.1 (paper: 1.15)", laAlone)
	}
	if la8 < laAlone+0.1 {
		t.Errorf("LA+LU8 %.2f does not compound over LA alone %.2f", la8, laAlone)
	}

	// 5. Per-benchmark signatures from the paper's narrative.
	if sp := speedup(met(s, "tomcatv", bsNone), met(s, "tomcatv", bsLA)); sp < 1.3 {
		t.Errorf("tomcatv locality speedup = %.2f, want >= 1.3", sp)
	}
	for _, frozen := range []string{"BDNA", "doduc", "mdljdp2", "ora", "spice2g6"} {
		if d := pctDecrease(met(s, frozen, bsNone).Instrs, met(s, frozen, bsLU4).Instrs); d > 0.5 {
			t.Errorf("%s: unrolling changed instruction count by %.1f%%; paper says it must not unroll", frozen, d)
		}
	}
	swm4 := speedup(met(s, "swm256", bsNone), met(s, "swm256", bsLU4))
	swm8 := speedup(met(s, "swm256", bsNone), met(s, "swm256", bsLU8))
	if swm4 > 1.02 || swm8 < 1.2 {
		t.Errorf("swm256 = %.2f/%.2f at LU4/LU8; paper: blocked at 4, unrolls at 8", swm4, swm8)
	}
	if sp := speedup(met(s, "BDNA", tsNone), met(s, "BDNA", bsNone)); sp < 1.0 {
		t.Errorf("BDNA BS/TS = %.2f; its huge blocks should favour balanced scheduling", sp)
	}

	// 6. On the single-issue machine every cycle issues one instruction
	//    or sits in exactly one stall bucket, in all 272 cells.
	for _, b := range s.Benchmarks {
		for _, cfg := range Cells() {
			m := met(s, b, cfg)
			if sum := m.Instrs + m.LoadInterlock + m.FixedInterlock + m.FetchStall + m.BranchStall + m.StoreStall; sum != m.Cycles {
				t.Errorf("%s/%s: %d cycles, but instructions and stall buckets sum to %d", b, cfg.Name(), m.Cycles, sum)
			}
		}
	}
}

func TestSuiteGetMissing(t *testing.T) {
	s := &Suite{results: map[string]map[string]*Result{}}
	if s.Get("nothing", core.Config{}) != nil {
		t.Error("missing cell returned a result")
	}
}

// TestSortedBenchesTable1Order asserts subset runs render rows in paper
// Table 1 order however the subset was spelled, and that names outside
// the workload sort last without disturbing the rest.
func TestSortedBenchesTable1Order(t *testing.T) {
	s := &Suite{Benchmarks: []string{"tomcatv", "ARC2D", "spice2g6", "BDNA"}}
	got := s.sortedBenches()
	want := []string{"ARC2D", "BDNA", "spice2g6", "tomcatv"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedBenches = %v, want %v", got, want)
		}
	}
	s = &Suite{Benchmarks: []string{"zz-unknown", "tomcatv", "ARC2D"}}
	got = s.sortedBenches()
	if got[0] != "ARC2D" || got[1] != "tomcatv" || got[2] != "zz-unknown" {
		t.Fatalf("unknown benchmark not sorted last: %v", got)
	}
}

// TestProgressCountsCells asserts the engine reports monotonically
// increasing cells-done over the exact cell total, from a single
// goroutine.
func TestProgressCountsCells(t *testing.T) {
	var calls int
	wantTotal := len(subset) * len(Cells())
	_, err := RunGrid(subset, Options{
		Jobs: 4,
		Progress: func(done, total int, bench, config string) {
			calls++
			if total != wantTotal {
				t.Errorf("total = %d, want %d", total, wantTotal)
			}
			if done != calls {
				t.Errorf("done = %d on call %d; progress not monotonic", done, calls)
			}
			if bench == "" || config == "" {
				t.Errorf("empty progress identifiers %q/%q", bench, config)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != wantTotal {
		t.Errorf("progress called %d times, want %d", calls, wantTotal)
	}
}

// TestJobsOneMatchesParallel asserts worker count cannot change results:
// the grid is deterministic, so a serial run and a wide run must agree on
// every metric.
func TestJobsOneMatchesParallel(t *testing.T) {
	serial, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Cells() {
		a := serial.Get("tomcatv", cfg).Metrics
		b := wide.Get("tomcatv", cfg).Metrics
		if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.LoadInterlock != b.LoadInterlock {
			t.Errorf("%s: serial %v != parallel %v", cfg.Name(), a, b)
		}
	}
}

// donorCells are the paper grid's profile donors: the first cell of each
// transform prefix that a trace cell shares, none of them
// trace-scheduled.
var donorCells = map[core.Config]bool{tsNone: true, tsLU4: true, tsLU8: true, bsLA4: true, bsLA8: true}

// TestResultPhasesRecorded asserts every cell records its phase timings as
// trace spans nested in its "cell" span: the phases that always run must
// take non-zero time, and optional phases must appear exactly when the
// configuration enables them. Profile time sits in exactly the five donor
// cells of each benchmark, which donate their timed runs' edge counts
// (and, under Verify, walk the prefix code to check them), and in no
// trace cell, since every trace cell takes a donated profile.
func TestResultPhasesRecorded(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := RunGrid(subset, Options{Verify: true, Jobs: 2, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	// Spans on a worker's lane that lie inside a cell span ran for that
	// cell; a phase's time is the sum of its spans' durations.
	const eps = 0.01
	phases := map[string]map[string]float64{}
	for _, c := range trace.TraceEvents {
		if c.Ph != "X" || c.Name != "cell" {
			continue
		}
		key := c.Args["bench"] + "/" + c.Args["config"]
		if phases[key] != nil {
			t.Errorf("%s: more than one cell span", key)
		}
		ph := map[string]float64{}
		for _, ev := range trace.TraceEvents {
			if ev.Ph == "X" && ev.Name != "cell" && ev.TID == c.TID &&
				ev.TS >= c.TS-eps && ev.TS+ev.Dur <= c.TS+c.Dur+eps {
				ph[ev.Name] += ev.Dur
			}
		}
		phases[key] = ph
	}
	for _, b := range subset {
		for _, cfg := range Cells() {
			ph, ok := phases[b+"/"+cfg.Name()]
			if !ok {
				t.Errorf("%s/%s: no cell span", b, cfg.Name())
				continue
			}
			if ph["lower"] <= 0 || ph["regalloc"] <= 0 || ph["sim"] <= 0 {
				t.Errorf("%s/%s: missing mandatory phase times: %v", b, cfg.Name(), ph)
			}
			if cfg.Trace {
				if ph["trace"] <= 0 {
					t.Errorf("%s/%s: trace scheduling ran but trace time is zero", b, cfg.Name())
				}
				if _, ok := ph["sched"]; ok {
					t.Errorf("%s/%s: trace-scheduled cell has block-scheduling spans", b, cfg.Name())
				}
			} else {
				if ph["sched"] <= 0 {
					t.Errorf("%s/%s: block scheduling ran but sched time is zero", b, cfg.Name())
				}
				if _, ok := ph["trace"]; ok {
					t.Errorf("%s/%s: block-scheduled cell has trace-scheduling spans", b, cfg.Name())
				}
			}
			if _, ok := ph["profile"]; ok != donorCells[cfg] || ok && ph["profile"] <= 0 {
				t.Errorf("%s/%s: profile time %v in a cell that is a donor: %v", b, cfg.Name(), ph["profile"], donorCells[cfg])
			}
		}
	}
}

// TestRunAbortsOnFailingCell asserts a failing cell surfaces its error
// rather than deadlocking the pool or panicking the aggregator.
func TestRunAbortsOnFailingCell(t *testing.T) {
	bad := workload.Benchmark{
		Name:        "broken",
		Lang:        "fuzz",
		Description: "program whose reference interpretation fails",
		Build: func() (*hlir.Program, *core.Data) {
			p := &hlir.Program{Name: "broken"}
			a := p.NewArray("A", hlir.KFloat, 4)
			p.Outputs = []*hlir.Array{a}
			// Out-of-bounds store: the reference interpreter rejects it.
			p.Body = []hlir.Stmt{hlir.Set(hlir.At(a, hlir.I(99)), hlir.F(1))}
			return p, core.NewData()
		},
	}
	ok, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBenchmarksConfigs([]workload.Benchmark{ok, bad}, Cells(), Options{Jobs: 8}); err == nil {
		t.Fatal("failing benchmark did not fail the run")
	}
}
