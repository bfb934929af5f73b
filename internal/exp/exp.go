// Package exp runs the paper's experiment grid and regenerates its tables.
// Each benchmark is compiled and simulated under every scheduling
// configuration the evaluation section uses — traditional and balanced
// scheduling crossed with loop unrolling (4, 8), trace scheduling and
// locality analysis — and the per-cell metrics are aggregated into the
// paper's Tables 4 through 9. Output correctness is enforced on every
// cell: a configuration whose simulated output differs from the reference
// interpreter's fails the run.
//
// Execution is cell-parallel (see engine.go): a bounded worker pool runs
// individual (benchmark, configuration) cells, sharing each benchmark's
// front-end — built program, input data, reference checksum, edge-profile
// cache — read-only across its sixteen cells.
package exp

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cells returns the experiment grid: the 16 configurations the paper's
// tables draw from. Traditional scheduling has no locality-analysis cells
// (the paper notes locality analysis has no traditional counterpart, since
// traditional scheduling uses a single load latency).
func Cells() []core.Config {
	bal := sched.Balanced
	trad := sched.Traditional
	return []core.Config{
		{Policy: trad},
		{Policy: trad, Unroll: 4},
		{Policy: trad, Unroll: 8},
		{Policy: trad, Trace: true, Unroll: 4},
		{Policy: trad, Trace: true, Unroll: 8},
		{Policy: bal},
		{Policy: bal, Unroll: 4},
		{Policy: bal, Unroll: 8},
		{Policy: bal, Trace: true},
		{Policy: bal, Trace: true, Unroll: 4},
		{Policy: bal, Trace: true, Unroll: 8},
		{Policy: bal, Locality: true},
		{Policy: bal, Locality: true, Unroll: 4},
		{Policy: bal, Locality: true, Unroll: 8},
		{Policy: bal, Locality: true, Trace: true, Unroll: 4},
		{Policy: bal, Locality: true, Trace: true, Unroll: 8},
	}
}

// Result is the outcome of one (benchmark, configuration) cell.
type Result struct {
	// Bench is the benchmark name.
	Bench string
	// Config is the compilation configuration.
	Config core.Config
	// Metrics are the simulation measurements.
	Metrics *sim.Metrics
	// Static carries compile-time phase reports.
	Static *core.Compiled
	// Phases records the cell's wall-clock per pipeline phase, including
	// simulation.
	Phases core.PhaseTimes
	// Obs is the cell's observability snapshot — compiler counters,
	// simulator metrics and runtime allocation deltas — when the grid ran
	// with Options.Observe; nil otherwise.
	Obs *obs.Snapshot
	// Err is the cell's structured failure when it could not produce
	// metrics (the grid completed degraded); nil for healthy cells.
	Err *CellError
}

// Suite holds a full grid of results. It is filled on the caller's
// goroutine by the engine's end-of-run merge and read-only afterwards.
type Suite struct {
	// Benchmarks lists benchmark names in table order.
	Benchmarks []string

	results map[string]map[string]*Result // bench -> config name -> result
	engine  *obs.Snapshot                 // engine robustness counters; nil when none fired
}

// Get returns the result for (bench, cfg), or nil.
func (s *Suite) Get(bench string, cfg core.Config) *Result {
	return s.results[bench][cfg.Name()]
}

// MergedObs merges every cell's observability snapshot into one
// suite-level snapshot (counters summed, histograms widened), the value
// behind paperbench's -metrics dump — plus the engine's robustness
// counters (cell panics, timeouts, retries, resumes, verification
// failures) when any fired. Nil when no cell carried a snapshot and no
// engine event occurred.
func (s *Suite) MergedObs() *obs.Snapshot {
	var merged *obs.Snapshot
	for _, byCfg := range s.results {
		for _, r := range byCfg {
			if r.Obs == nil {
				continue
			}
			if merged == nil {
				merged = &obs.Snapshot{}
			}
			merged.Merge(r.Obs)
		}
	}
	if s.engine != nil {
		if merged == nil {
			merged = &obs.Snapshot{}
		}
		merged.Merge(s.engine)
	}
	return merged
}

// metrics returns the simulation metrics for (bench, cfg) and whether the
// cell produced them. ok is false for cells the grid never ran (degraded
// or resumed-partial runs) and for cells that failed — table renderers
// use it to print degraded rows instead of panicking.
func (s *Suite) metrics(bench string, cfg core.Config) (*sim.Metrics, bool) {
	r := s.Get(bench, cfg)
	if r == nil || r.Metrics == nil {
		return nil, false
	}
	return r.Metrics, true
}

// Run executes the whole grid for the given benchmarks (all benchmarks
// when names is empty) on the cell-parallel engine with default options.
// Progress, when non-nil, receives one line per completed benchmark (the
// engine's per-cell progress, folded; use RunGrid with Options.Progress
// for cell granularity).
func Run(names []string, progress func(string)) (*Suite, error) {
	var opt Options
	if progress != nil {
		cells := len(Cells())
		perBench := map[string]int{}
		// Progress calls are serialized by the engine.
		opt.Progress = func(done, total int, bench, config string) {
			perBench[bench]++
			if perBench[bench] == cells {
				progress(bench)
			}
		}
	}
	return RunGrid(names, opt)
}

// speedup returns base/new cycle ratio (>1 means new is faster).
func speedup(base, new *sim.Metrics) float64 {
	if new.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(new.Cycles)
}

// pctDecrease returns the percentage decrease from base to new.
func pctDecrease(base, new int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-new) / float64(base)
}

// mean is the arithmetic mean, the paper's averaging convention for
// speedups and percentages.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sortedBenches returns the suite's benchmarks in stable order.
func (s *Suite) sortedBenches() []string {
	out := append([]string(nil), s.Benchmarks...)
	sort.SliceStable(out, func(a, b int) bool {
		return benchRank(out[a]) < benchRank(out[b])
	})
	return out
}

// benchRanks maps benchmark name to its paper Table 1 position, built
// once — sortedBenches used to rebuild workload.All() on every sort
// comparison.
var benchRanks = struct {
	once sync.Once
	m    map[string]int
}{}

func benchRank(name string) int {
	benchRanks.once.Do(func() {
		benchRanks.m = make(map[string]int)
		for i, b := range workload.All() {
			benchRanks.m[b.Name] = i
		}
	})
	if r, ok := benchRanks.m[name]; ok {
		return r
	}
	return 1 << 30
}
