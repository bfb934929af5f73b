package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
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
// afresh, with no memo — and returns the result and its compiler view.
func freshCompile(t *testing.T, b workload.Benchmark, cfg core.Config) (*core.Compiled, obs.Snapshot) {
	t.Helper()
	p, d := b.Build()
	st := obs.NewStats()
	c, err := core.Compile(p, cfg, d, core.Options{Verify: true, Obs: &obs.Obs{Stats: st}})
	if err != nil {
		t.Fatalf("%s %s: %v", b.Name, cfg.Name(), err)
	}
	return c, compilerView(st.Snapshot())
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
			_, want[cell{b.Name, cfg.Name()}] = freshCompile(t, b, cfg)
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
// prefix's build while others wait on it. Every cell's code must equal a
// fresh compile's, its compiler counters too, and no two cells may share
// a block, an instruction or a memory reference: each schedules and
// allocates its own copy.
func TestPrefixSharingGrid(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunBenchmarksConfigs([]workload.Benchmark{b}, Cells(), Options{Jobs: 8, Observe: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[any]string{}
	claim := func(ptr any, cfg string) {
		if prev, ok := owner[ptr]; ok {
			t.Fatalf("%s and %s share code", prev, cfg)
		}
		owner[ptr] = cfg
	}
	for _, cfg := range Cells() {
		r := s.Get(b.Name, cfg)
		fresh, view := freshCompile(t, b, cfg)
		// The arrays are the front-end's, which the fresh compile built
		// anew: compare the code and the outputs' shape, not identities.
		if !sameCode(r.Static, fresh) {
			t.Errorf("%s: code differs from a fresh compile's", cfg.Name())
		}
		if got := compilerView(r.Obs); !reflect.DeepEqual(got, view) {
			t.Errorf("%s: compiler counters differ from a fresh compile's:\n got %+v\nwant %+v", cfg.Name(), got, view)
		}
		for _, blk := range r.Static.Fn.Blocks {
			claim(blk, cfg.Name())
			for _, in := range blk.Instrs {
				claim(in, cfg.Name())
				if in.Mem != nil {
					claim(in.Mem, cfg.Name())
				}
			}
		}
	}
}

// sameCode reports whether two compilations of separately built copies
// of one benchmark produced the same code over the same array layout.
func sameCode(a, b *core.Compiled) bool {
	if !reflect.DeepEqual(a.Fn.Blocks, b.Fn.Blocks) || a.Fn.NumRegs != b.Fn.NumRegs ||
		!reflect.DeepEqual(a.Fn.Arrays, b.Fn.Arrays) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	ids := func(c *core.Compiled) []int {
		var out []int
		for _, arr := range c.Outputs {
			out = append(out, c.ArrayID[arr])
		}
		return out
	}
	return reflect.DeepEqual(ids(a), ids(b))
}
