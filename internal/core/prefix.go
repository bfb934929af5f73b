package core

import (
	"fmt"
	"sync"

	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/licm"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/unroll"
	"repro/internal/verify"
)

// prefix is what a configuration's transform prefix produces: the code
// before scheduling, and what the transforms report.
type prefix struct {
	fn         *ir.Func
	arrayID    map[*hlir.Array]int
	outputs    []*hlir.Array
	locality   *locality.Report
	prefetches int
	licm       *licm.Report
}

// prefixKey identifies cfg's transform prefix: every configuration with
// the same key lowers to identical code, because the scheduler policy and
// trace scheduling enter only after it.
func prefixKey(cfg Config) Config {
	cfg.Policy, cfg.Trace = 0, false
	return cfg
}

// lowerPrefix runs the transform prefix — locality analysis, unrolling,
// prefetching, lowering, the IR verifier (under Verify) and LICM — each
// phase timed into the compilation's PhaseTimes and counting into st.
func (c *compilation) lowerPrefix(st *obs.Stats) (*prefix, error) {
	cfg, ph := c.cfg, &c.out.Phases
	prog := c.p
	pre := &prefix{}
	if cfg.Locality {
		if err := c.phase("locality", &ph.Locality, func() error {
			prog, pre.locality = locality.Apply(prog, cfg.Unroll)
			return nil
		}); err != nil {
			return nil, err
		}
		st.Add("locality/loops_analyzed", int64(pre.locality.LoopsAnalyzed))
		st.Add("locality/miss_marks", int64(pre.locality.Misses))
		st.Add("locality/hit_marks", int64(pre.locality.Hits))
	}
	if cfg.Unroll > 0 {
		// After locality analysis, reuse loops carry NoUnroll and keep
		// their hit/miss marks; the general unroller handles the rest.
		if err := c.phase("unroll", &ph.Unroll, func() error {
			prog = unroll.ApplyObserved(prog, cfg.Unroll, st)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if cfg.Prefetch {
		if err := c.phase("prefetch", &ph.Prefetch, func() error {
			prog, pre.prefetches = prefetch.Apply(prog)
			return nil
		}); err != nil {
			return nil, err
		}
		st.Add("prefetch/hints", int64(pre.prefetches))
	}
	var res *lower.Result
	if err := c.phase("lower", &ph.Lower, func() error {
		r, err := lower.Lower(prog)
		res = r
		return err
	}); err != nil {
		return nil, err
	}
	if c.opt.Verify {
		if err := verify.Func(res.Fn); err != nil {
			return nil, fmt.Errorf("core: lowering %s: %w", c.p.Name, err)
		}
		st.Inc("verify/checks")
	}
	if cfg.LICM {
		if err := c.phase("licm", &ph.LICM, func() error {
			pre.licm = licm.Apply(res.Fn)
			return nil
		}); err != nil {
			return nil, err
		}
		st.Add("licm/loops", int64(pre.licm.Loops))
		st.Add("licm/hoisted", int64(pre.licm.Hoisted))
	}
	pre.fn, pre.arrayID, pre.outputs = res.Fn, res.ArrayID, prog.Outputs
	return pre, nil
}

// prefix returns the compilation's transform prefix and the code it may
// schedule. Without a memo it lowers afresh, counting into st. With one
// it takes the prefix from the memo, building it first when no other
// compilation has, folds the build's counters into st and clones the
// code.
func (c *compilation) prefix(st *obs.Stats) (*prefix, *ir.Func, error) {
	pm := c.opt.Prefixes
	if pm == nil {
		pre, err := c.lowerPrefix(st)
		if err != nil {
			return nil, nil, err
		}
		return pre, pre.fn, nil
	}
	var canceled <-chan struct{}
	if c.opt.Ctx != nil {
		canceled = c.opt.Ctx.Done()
	}
	key := prefixKey(c.cfg)
	for {
		if err := c.opt.err(); err != nil {
			return nil, nil, fmt.Errorf("core: %s canceled before lower: %w", c.p.Name, err)
		}
		fl, build := pm.flight(key)
		if build {
			if err := pm.build(key, fl, c.lowerPrefix); err != nil {
				return nil, nil, err
			}
		}
		// The lookup, a wait on the builder included, and the clone count
		// as lowering, as a reused timing run counts as simulation.
		var fn *ir.Func
		if err := c.phase("lower", &c.out.Phases.Lower, func() error {
			select {
			case <-fl.done:
			case <-canceled:
				return fmt.Errorf("core: %s canceled in lower: %w", c.p.Name, c.opt.Ctx.Err())
			}
			if fl.pre != nil {
				fn = fl.pre.fn.Clone()
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		if fn != nil {
			st.Merge(fl.stats)
			return fl.pre, fn, nil
		}
		// The build failed and left no entry: try again, perhaps as the
		// builder, so no compilation inherits another's failure.
	}
}

// PrefixMemo shares transform prefixes across the configurations of one
// program, for one grid run. Each entry, one per transform prefix
// (locality, unrolling, prefetching, LICM), owns the lowered function,
// its array map, the output arrays, the transform reports and the
// counters the build recorded. The entry's function is never scheduled:
// every compilation clones it and schedules and allocates the clone, and
// replays the counters into its own registry, so its results and
// snapshot are those of a compilation that lowered afresh.
//
// Lookups are single-flight per key: the first compilation of a prefix
// builds it while later ones wait, each on its own context. A build
// completes its flight on every path — success, error, cancellation or
// panic — and a failed build is not cached, so its waiters retry.
//
// A memo must not be shared across programs or across Options.Verify
// settings: the key only encodes the configuration's transform prefix.
// The zero value is an empty memo. Safe for concurrent use.
type PrefixMemo struct {
	mu sync.Mutex
	m  map[Config]*prefixFlight
}

// prefixFlight is one in-flight (or completed) prefix build; done is
// closed once pre and stats are final. pre stays nil when the build
// failed.
type prefixFlight struct {
	done  chan struct{}
	pre   *prefix
	stats *obs.Snapshot
}

// flight returns key's flight, registering a new one when there is none;
// build reports that the caller registered it and must build it.
func (pm *PrefixMemo) flight(key Config) (fl *prefixFlight, build bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if fl, ok := pm.m[key]; ok {
		return fl, false
	}
	if pm.m == nil {
		pm.m = map[Config]*prefixFlight{}
	}
	fl = &prefixFlight{done: make(chan struct{})}
	pm.m[key] = fl
	return fl, true
}

// build runs lower for fl with a private counter registry and completes
// the flight, even when lower panics. A failed build leaves no entry.
func (pm *PrefixMemo) build(key Config, fl *prefixFlight, lower func(*obs.Stats) (*prefix, error)) error {
	defer func() {
		if fl.pre == nil {
			pm.mu.Lock()
			delete(pm.m, key)
			pm.mu.Unlock()
		}
		close(fl.done)
	}()
	rec := obs.NewStats()
	pre, err := lower(rec)
	if err != nil {
		return err
	}
	fl.pre, fl.stats = pre, rec.Snapshot()
	return nil
}
