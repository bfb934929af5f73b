package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// compilerView keeps the part of a cell's snapshot that describes its
// compilation: it drops the runtime deltas, the simulator's counters
// (metrics, machine-pool traffic, reused runs) and the profile cache's
// hits, which depend on the grid's caches and the order cells ran in.
func compilerView(s *obs.Snapshot) obs.Snapshot {
	keep := func(name string) bool {
		return !strings.HasPrefix(name, "runtime/") && !strings.HasPrefix(name, "sim/") &&
			name != "core/profile_cache_hits"
	}
	var out obs.Snapshot
	if s == nil {
		return out
	}
	for k, v := range s.Counters {
		if keep(k) {
			if out.Counters == nil {
				out.Counters = map[string]int64{}
			}
			out.Counters[k] = v
		}
	}
	for k, h := range s.Hists {
		if keep(k) {
			if out.Hists == nil {
				out.Hists = map[string]obs.HistSnapshot{}
			}
			out.Hists[k] = h
		}
	}
	return out
}

// freshCompile compiles one cell the way CellRunner does — lowering
// afresh, with no memo — and returns the result, the data it executes
// on and its compiler view.
func freshCompile(t *testing.T, b workload.Benchmark, cfg core.Config) (*core.Compiled, *core.Data, obs.Snapshot) {
	t.Helper()
	p, d := b.Build()
	st := obs.NewStats()
	c, err := core.Compile(p, cfg, d, core.Options{Verify: true, Obs: &obs.Obs{Stats: st}})
	if err != nil {
		t.Fatalf("%s %s: %v", b.Name, cfg.Name(), err)
	}
	return c, d, compilerView(st.Snapshot())
}

// TestPrefixMemoCountersMatchFreshCompile runs verified, observed grids
// at Jobs:1 and Jobs:4 over the paper's configurations plus prefetching
// and LICM ones. Each cell lowers its transform prefix once per grid and
// replays the build's counters, so every cell's compiler counters and
// histograms — locality, unrolling, prefetching, verification, LICM,
// DAG, scheduler and allocator alike — must equal those of a compile
// that lowers afresh.
func TestPrefixMemoCountersMatchFreshCompile(t *testing.T) {
	bal, trad := sched.Balanced, sched.Traditional
	cfgs := append(Cells(),
		core.Config{Policy: bal, Locality: true, Prefetch: true, Unroll: 4},
		core.Config{Policy: bal, LICM: true, Unroll: 4},
		core.Config{Policy: trad, LICM: true, Unroll: 4},
		core.Config{Policy: bal, Locality: true, LICM: true, Trace: true, Unroll: 8},
	)
	var benches []workload.Benchmark
	for _, name := range []string{"tomcatv", "TRFD"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	type cell struct{ bench, cfg string }
	want := map[cell]obs.Snapshot{}
	for _, b := range benches {
		for _, cfg := range cfgs {
			_, _, want[cell{b.Name, cfg.Name()}] = freshCompile(t, b, cfg)
		}
	}
	for _, jobs := range []int{1, 4} {
		s, err := RunBenchmarksConfigs(benches, cfgs, Options{Jobs: jobs, Observe: true, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, b := range benches {
			for _, cfg := range cfgs {
				got := compilerView(s.Get(b.Name, cfg).Obs)
				if w := want[cell{b.Name, cfg.Name()}]; !reflect.DeepEqual(got, w) {
					t.Errorf("jobs=%d %s %s: compiler counters differ from a fresh compile's:\n got %+v\nwant %+v",
						jobs, b.Name, cfg.Name(), got, w)
				}
				for k := range got.Counters {
					seen[k] = true
				}
				for k := range got.Hists {
					seen[k] = true
				}
			}
		}
		for _, k := range []string{"locality/miss_marks", "unroll/loops_seen", "unroll/factor", "prefetch/hints",
			"verify/checks", "licm/loops", "dag/nodes", "regalloc/intervals"} {
			if !seen[k] {
				t.Errorf("jobs=%d: no cell recorded %s", jobs, k)
			}
		}
	}
}

// TestPrefixSharingGrid runs all sixteen paper configurations of one
// benchmark from one front-end at Jobs:8, so policy siblings share their
// prefix's build and trace siblings their profile. Every cell's compiler
// counters and metrics must equal those of a fresh compile and
// execution. (core's TestPrefixSharingPaperConfigs checks that each such
// compilation has its own copy of the code, with siblings waiting on
// each other's builds.)
func TestPrefixSharingGrid(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunBenchmarksConfigs([]workload.Benchmark{b}, Cells(), Options{Jobs: 8, Observe: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Cells() {
		r := s.Get(b.Name, cfg)
		fresh, d, view := freshCompile(t, b, cfg)
		if got := compilerView(r.Obs); !reflect.DeepEqual(got, view) {
			t.Errorf("%s: compiler counters differ from a fresh compile's:\n got %+v\nwant %+v", cfg.Name(), got, view)
		}
		met, _, err := core.Execute(fresh, d)
		if err != nil {
			t.Fatal(err)
		}
		if *r.Metrics != *met {
			t.Errorf("%s: metrics differ from a fresh compile's:\n got %+v\nwant %+v", cfg.Name(), r.Metrics, met)
		}
	}
}

// TestPrefixCellsRunOnOneLane checks the engine's unit of work on a
// traced Jobs:2 tomcatv grid: every transform prefix's cells run on one
// lane, one after another, in grid order.
func TestPrefixCellsRunOnOneLane(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 2, Tracer: tr}); err != nil {
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
	cells := map[string]obs.Event{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "cell" {
			cells[ev.Args["config"]] = ev
		}
	}
	prev := map[core.Config]string{} // each prefix's last cell so far, in grid order
	for _, cfg := range Cells() {
		c, ok := cells[cfg.Name()]
		if !ok {
			t.Fatalf("%s: no cell span", cfg.Name())
		}
		if name, ok := prev[cfg.Prefix()]; ok {
			if p := cells[name]; c.TID != p.TID || c.TS < p.TS+p.Dur {
				t.Errorf("%s ran on lane %d at %.0fµs, its prefix sibling %s on lane %d at %.0f-%.0fµs: want one lane, in grid order",
					cfg.Name(), c.TID, c.TS, name, p.TID, p.TS, p.TS+p.Dur)
			}
		}
		prev[cfg.Prefix()] = cfg.Name()
	}
}

// TestProfileSharingGridSurvivesPanic panics the profile walk of the
// first trace cell of a Jobs:1 tomcatv grid. The grid holds only trace
// cells, so no cell donates a profile and every prefix is walked. The
// cell's retry and its trace siblings must collect or share a fresh
// profile: the grid completes with no failed cell, and the panic is
// counted and retried.
func TestProfileSharingGridSurvivesPanic(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.Config
	for _, cfg := range Cells() {
		if cfg.Trace {
			cfgs = append(cfgs, cfg)
		}
	}
	// At Jobs:1 the first trace cell's profile walk is tomcatv's first
	// sim/run hit.
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "sim/run", Key: "tomcatv", Mode: faultinject.ModePanic, OnHit: 1,
	}))
	defer faultinject.Disable()
	type outcome struct {
		s   *Suite
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		s, err := RunBenchmarksConfigs([]workload.Benchmark{b}, cfgs, Options{Jobs: 1})
		done <- outcome{s, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("grid still running after 60s: a cell is blocked on the panicked profile walk")
	}
	if o.err != nil {
		t.Fatalf("grid degraded: %v", o.err)
	}
	eng := o.s.MergedObs()
	if eng == nil || eng.Counters["exp/cell_panics"] != 1 || eng.Counters["exp/cell_retries"] != 1 {
		t.Errorf("engine counters %v, want one cell panic and one retry", eng)
	}
	for _, cfg := range cfgs {
		if r := o.s.Get(b.Name, cfg); r == nil || r.Err != nil || r.Metrics == nil {
			t.Errorf("%s: no healthy result", cfg.Name())
		}
	}
}
