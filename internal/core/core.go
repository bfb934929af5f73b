// Package core assembles the paper's full compilation and measurement
// pipeline. A Config names one experimental cell — scheduler policy
// (traditional or balanced) × loop unrolling factor × trace scheduling ×
// locality analysis — and Compile runs the corresponding phase sequence:
//
//	HLIR → [locality analysis] → [loop unrolling] → lower →
//	[profile → trace scheduling | per-block scheduling] →
//	register allocation → executable Alpha-like code
//
// Execute then runs the code on the 21164 model and returns the paper's
// metrics. Every configuration of the same program computes bit-identical
// outputs; Checksum exposes the token the integration tests compare.
package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/licm"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unroll"
)

// Options selects optional pipeline behaviour beyond the experimental
// configuration itself.
type Options struct {
	// Verify runs the structural invariant checkers of internal/verify
	// between phases: the IR verifier after lowering, the DAG and schedule
	// verifiers on every scheduling region, and the register-allocation
	// post-condition checks. Verification is read-only — a verified
	// pipeline produces bit-identical code — and any violation surfaces as
	// a *verify.Error.
	Verify bool
	// Ctx, when non-nil, is consulted at every phase boundary: a canceled
	// or expired context aborts the pipeline promptly with the context's
	// error instead of running the remaining phases. This is how request
	// deadlines (bschedd) and SIGINT (paperbench) cancel a compile
	// mid-flight. A nil Ctx disables the checks.
	Ctx context.Context
	// Pool, when non-nil, supplies the simulation machine for the
	// profiling phase (trace scheduling's execution-driven profile run)
	// instead of allocating a fresh one. Pooled runs are bit-identical to
	// fresh-machine runs; the experiment engine passes its one pool per
	// run here so profiling shares machines with cell execution.
	Pool *sim.Pool
	// Profiles, when non-nil, caches the execution-driven edge profile
	// trace scheduling needs: it is looked up there and collected (then
	// stored) only on a miss. Profiles depend only on the configuration's
	// transform prefix, so configurations differing solely in scheduler
	// policy share one profiling run. The cache must be dedicated to the
	// (program, data) pair being compiled; see ProfileCache.
	Profiles *ProfileCache
	// Prefixes, when non-nil, memoizes the transform prefix — locality
	// analysis, unrolling, prefetching, lowering and LICM — so
	// configurations differing solely in scheduler policy lower once and
	// each schedules its own copy of the code. Nil lowers afresh. The
	// memo must be dedicated to the (program, Verify) pair being
	// compiled; see PrefixMemo.
	Prefixes *PrefixMemo
	// Obs, when non-nil, observes the pipeline: every phase runs under a
	// trace span on its lane, and the phases record their counters into
	// its registry. Nil tracer/stats inside it disable the corresponding
	// instrument for free.
	Obs *obs.Obs
}

// err returns the context's error, or nil when no context is carried.
func (o Options) err() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Config selects one point in the paper's experiment grid.
type Config struct {
	// Policy is the load-weight policy (traditional or balanced).
	Policy sched.Policy
	// Unroll is the loop unrolling factor: 0 (off) or a power of two
	// from 2 to unroll.MaxFactor. The paper uses 4 and 8.
	Unroll int
	// Trace enables trace scheduling (profile-guided).
	Trace bool
	// Locality enables locality analysis with hit/miss marking.
	Locality bool
	// Prefetch enables Mowry-style selective software prefetching of the
	// predicted-miss loads (extension E3; requires Locality for the
	// marks).
	Prefetch bool
	// LICM enables loop-invariant code motion after lowering (opt-in so
	// the paper-calibrated pipeline stays fixed; see internal/licm).
	LICM bool
}

// Name renders the configuration the way the paper's tables label it.
func (c Config) Name() string {
	s := "TS"
	switch c.Policy {
	case sched.Balanced:
		s = "BS"
	case sched.BalancedFixed:
		s = "BF"
	case sched.Auto:
		s = "AUTO"
	}
	if c.Locality {
		s += "+LA"
	}
	if c.Prefetch {
		s += "+PF"
	}
	if c.LICM {
		s += "+LICM"
	}
	if c.Trace {
		s += "+TrS"
	}
	if c.Unroll > 0 {
		s += fmt.Sprintf("+LU%d", c.Unroll)
	}
	return s
}

// Data carries a program's initial array contents, keyed by the program's
// array descriptors (which all transformed clones share).
type Data struct {
	// F holds float-array inputs.
	F map[*hlir.Array][]float64
	// I holds integer-array inputs.
	I map[*hlir.Array][]int64
}

// NewData allocates an empty input set.
func NewData() *Data {
	return &Data{F: map[*hlir.Array][]float64{}, I: map[*hlir.Array][]int64{}}
}

// Compiled is the result of running the pipeline on one program.
type Compiled struct {
	// Fn is the final, allocated machine code.
	Fn *ir.Func
	// ArrayID maps HLIR arrays to simulator array IDs. Cells sharing a
	// transform prefix share the map; it is read-only.
	ArrayID map[*hlir.Array]int
	// Outputs lists the program's output arrays (the descriptors every
	// transformed clone shares), which locate the results.
	Outputs []*hlir.Array
	// Config echoes the compilation configuration.
	Config Config
	// Locality and Trace report what the optional phases did (nil when
	// the phase did not run); Alloc always runs.
	Locality *locality.Report
	Trace    *trace.Report
	Alloc    *regalloc.Report
	// Prefetches counts inserted software-prefetch hints.
	Prefetches int
	// LICM reports hoisting when the optional pass ran.
	LICM *licm.Report

	prefix *ir.Func // the transform prefix's unscheduled code; Fn itself without Options.Prefixes
}

// Compile runs the configured pipeline on p under opt. The data is
// needed when trace scheduling is enabled, because trace selection is
// profile driven — the paper profiles each program on its input before
// compiling with traces (Section 4.2).
//
// Compile never mutates p or data: every transform (locality, unroll,
// prefetch) clones before rewriting and lowering only reads its input,
// so one front-end — a built program, its input data and its Reference
// checksum — may be shared read-only across any number of concurrent
// Compile calls. The cell-parallel experiment engine (internal/exp)
// depends on this. The code Compile schedules and allocates is always
// the call's own: freshly lowered, or cloned from Options.Prefixes.
func Compile(p *hlir.Program, cfg Config, data *Data, opt Options) (*Compiled, error) {
	if err := faultinject.Hit("core/compile", p.Name); err != nil {
		return nil, err
	}
	st := opt.Obs.Stat()
	out := &Compiled{Config: cfg}
	c := &compilation{p: p, cfg: cfg, opt: opt}
	phase := c.phase
	pre, fn, err := c.prefix(st)
	if err != nil {
		return nil, err
	}
	out.Fn = fn
	out.prefix = pre.fn
	out.ArrayID = pre.arrayID
	out.Outputs = pre.outputs
	out.Locality = pre.locality
	out.Prefetches = pre.prefetches
	out.LICM = pre.licm

	if cfg.Trace {
		collect := func() (profile.Edges, error) {
			var e profile.Edges
			perr := phase("profile", func() error {
				ee, reused, err := profile.Collect(fn, func(m *sim.Machine) {
					InitMachine(m, out.ArrayID, data)
				}, opt.Pool)
				countPoolDraw(opt, reused)
				e = ee
				return err
			})
			return e, perr
		}
		var edges profile.Edges
		var perr error
		built := true
		if opt.Profiles != nil {
			edges, built, perr = opt.Profiles.get(opt.Ctx, cfg, collect)
		} else {
			edges, perr = collect()
		}
		if perr != nil {
			return nil, fmt.Errorf("core: profiling %s: %w", p.Name, perr)
		}
		if !built {
			// Cache hit: the counts are for an identical CFG; only the
			// per-block frequency annotation must be redone on this clone.
			profile.Annotate(fn, edges)
			st.Inc("core/profile_cache_hits")
		}
		err := phase("trace", func() error {
			rep, err := trace.ScheduleAll(fn, edges, cfg.Policy, st, opt.Verify)
			out.Trace = rep
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core: trace scheduling %s: %w", p.Name, err)
		}
		st.Add("trace/traces", int64(out.Trace.Traces))
		st.Add("trace/comp_copies", int64(out.Trace.CompCopies))
		st.Add("trace/speculated", int64(out.Trace.Speculated))
	} else {
		err := phase("sched", func() error {
			for _, b := range fn.Blocks {
				if err := trace.ScheduleBlock(fn, b, cfg.Policy, st, opt.Verify); err != nil {
					return err
				}
			}
			return fn.Validate()
		})
		if err != nil {
			return nil, fmt.Errorf("core: block scheduling %s: %w", p.Name, err)
		}
	}

	err = phase("regalloc", func() error {
		alloc, err := regalloc.Allocate(fn, st, opt.Verify)
		out.Alloc = alloc
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: allocating %s: %w", p.Name, err)
	}
	return out, nil
}

// compilation is one Compile call's state, which its phases share.
type compilation struct {
	p   *hlir.Program
	cfg Config
	opt Options
}

// countPoolDraw counts a machine drawn from opt.Pool, recycled or not,
// into opt.Obs's registry.
func countPoolDraw(opt Options, reused bool) {
	switch st := opt.Obs.Stat(); {
	case opt.Pool == nil:
	case reused:
		st.Inc("sim/machine_pool_hits")
	default:
		st.Inc("sim/machine_pool_misses")
	}
}

// phase wraps one pipeline phase in a trace span. A canceled or expired
// Options.Ctx aborts at the boundary, before the phase body runs.
func (c *compilation) phase(name string, f func() error) error {
	if err := c.opt.err(); err != nil {
		return fmt.Errorf("core: %s canceled before %s: %w", c.p.Name, name, err)
	}
	sp := c.opt.Obs.Begin(name, "compile")
	err := f()
	sp.End()
	return err
}

// InitMachine writes the input data into a fresh simulation instance.
func InitMachine(m *sim.Machine, ids map[*hlir.Array]int, data *Data) {
	if data == nil {
		return
	}
	for a, vals := range data.F {
		id, ok := ids[a]
		if !ok {
			continue
		}
		for i, v := range vals {
			m.WriteF64(id, int64(i)*8, v)
		}
	}
	for a, vals := range data.I {
		id, ok := ids[a]
		if !ok {
			continue
		}
		for i, v := range vals {
			m.WriteI64(id, int64(i)*8, v)
		}
	}
}

// Execute simulates compiled code on the 21164 model with the given
// inputs, returning the metrics and the output checksum.
func Execute(c *Compiled, data *Data) (*sim.Metrics, uint64, error) {
	met, sum, _, err := ExecutePooled(c, data, 1, nil, nil)
	return met, sum, err
}

// ExecutePooled simulates on a machine issuing up to width instructions
// per cycle (width 1 is the paper's model; 2 and 4 explore its
// superscalar future work), drawing the machine from pool (nil allocates
// a fresh one): a pooled machine is rewound rather than reallocated, so
// the hot path of the experiment grid runs without rebuilding
// multi-megabyte memory images. reused reports whether the machine came
// out of the pool, for the caller's pool-efficiency counters. Pooled and
// fresh runs are bit-identical. Lock contention on a shared pool lands in
// the pool's own wait histogram (sim.NewPool). counts, when non-nil,
// receives the run's edge counts as sim.Machine.Run takes them, for
// ProfileCache.Offer.
func ExecutePooled(c *Compiled, data *Data, width int, pool *sim.Pool, counts []int64) (met *sim.Metrics, sum uint64, reused bool, err error) {
	var m *sim.Machine
	if pool == nil {
		m, err = sim.New(c.Fn)
	} else {
		m, reused, err = pool.Get(c.Fn)
	}
	if err != nil {
		return nil, 0, reused, err
	}
	m.IssueWidth = width
	InitMachine(m, c.ArrayID, data)
	met, err = m.Run(counts)
	if err != nil {
		return nil, 0, reused, fmt.Errorf("core: executing %s (%s): %w", c.Fn.Name, c.Config.Name(), err)
	}
	sum = Checksum(m, c)
	if pool != nil {
		pool.Put(m)
	}
	return met, sum, reused, nil
}

// SameExecution reports whether executing a and b on the same data must
// give identical metrics and checksums at any issue width: the simulator
// reads the same code (sim.SameCode), InitMachine reads the same array
// mapping and Checksum the same outputs.
func SameExecution(a, b *Compiled) bool {
	return sim.SameCode(a.Fn, b.Fn) && maps.Equal(a.ArrayID, b.ArrayID) &&
		slices.Equal(a.Outputs, b.Outputs)
}

// Checksum hashes the program outputs in simulator memory, bit-compatible
// with hlir.Interp.Checksum.
func Checksum(m *sim.Machine, c *Compiled) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(bits uint64) {
		for i := 0; i < 8; i++ {
			h ^= (bits >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range c.Outputs {
		id := c.ArrayID[a]
		for i := 0; i < a.Len(); i++ {
			if a.Elem == hlir.KFloat {
				mix(math.Float64bits(m.ReadF64(id, int64(i)*8)))
			} else {
				mix(uint64(m.ReadI64(id, int64(i)*8)))
			}
		}
	}
	return h
}

// Reference runs the HLIR interpreter on p with the inputs and returns
// the ground-truth checksum.
func Reference(p *hlir.Program, data *Data) (uint64, error) {
	it := hlir.NewInterp(p)
	if data != nil {
		for a, vals := range data.F {
			copy(it.F[a], vals)
		}
		for a, vals := range data.I {
			copy(it.I[a], vals)
		}
	}
	if err := it.Run(p); err != nil {
		return 0, err
	}
	return it.Checksum(p), nil
}

// ParseConfig parses a configuration name in the tables' notation: "BS",
// "TS", "BF" or "AUTO" optionally followed by "+LA", "+PF", "+LICM",
// "+TrS" and "+LUn" options in any order (e.g. "BS+LA+TrS+LU8"), where n
// is a power of two from 2 to unroll.MaxFactor: the unroller halves a
// factor that does not fit its instruction limit, and lowering handles
// the remainder loop's modulus only by a power of two. It is the inverse
// of Config.Name.
func ParseConfig(s string) (Config, error) {
	cfg := Config{}
	for i, part := range strings.Split(s, "+") {
		switch {
		case i == 0 && part == "BS":
			cfg.Policy = sched.Balanced
		case i == 0 && part == "TS":
			cfg.Policy = sched.Traditional
		case i == 0 && part == "BF":
			cfg.Policy = sched.BalancedFixed
		case i == 0 && part == "AUTO":
			cfg.Policy = sched.Auto
		case i == 0:
			return cfg, fmt.Errorf("core: config must start with BS, TS, BF or AUTO: %q", s)
		case part == "LA":
			cfg.Locality = true
		case part == "PF":
			cfg.Prefetch = true
		case part == "LICM":
			cfg.LICM = true
		case part == "TrS":
			cfg.Trace = true
		case strings.HasPrefix(part, "LU"):
			n, err := strconv.Atoi(part[2:])
			if err != nil || n < 2 || n > unroll.MaxFactor || n&(n-1) != 0 {
				return cfg, fmt.Errorf("core: bad unroll factor in %q (want a power of two from 2 to %d)", s, unroll.MaxFactor)
			}
			cfg.Unroll = n
		default:
			return cfg, fmt.Errorf("core: unknown option %q in %q", part, s)
		}
	}
	return cfg, nil
}
