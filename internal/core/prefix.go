package core

import (
	"fmt"

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
	stats      *obs.Snapshot // the build's counters; nil when lowered without a memo
}

// prefixKey identifies cfg's transform prefix: every configuration with
// the same key lowers to identical code, because the scheduler policy and
// trace scheduling enter only after it.
func prefixKey(cfg Config) Config {
	cfg.Policy, cfg.Trace = 0, false
	return cfg
}

// Prefix returns the key of c's transform prefix (prefixKey).
func (c Config) Prefix() Config { return prefixKey(c) }

// lowerPrefix runs the transform prefix — locality analysis, unrolling,
// prefetching, lowering, the IR verifier (under Verify) and LICM — each
// phase under its own span and counting into st.
func (c *compilation) lowerPrefix(st *obs.Stats) (*prefix, error) {
	cfg := c.cfg
	prog := c.p
	pre := &prefix{}
	if cfg.Locality {
		if err := c.phase("locality", func() error {
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
		if err := c.phase("unroll", func() error {
			prog = unroll.ApplyObserved(prog, cfg.Unroll, st)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if cfg.Prefetch {
		if err := c.phase("prefetch", func() error {
			prog, pre.prefetches = prefetch.Apply(prog)
			return nil
		}); err != nil {
			return nil, err
		}
		st.Add("prefetch/hints", int64(pre.prefetches))
	}
	var res *lower.Result
	if err := c.phase("lower", func() error {
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
		if err := c.phase("licm", func() error {
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
	if c.opt.Prefixes == nil {
		pre, err := c.lowerPrefix(st)
		if err != nil {
			return nil, nil, err
		}
		return pre, pre.fn, nil
	}
	pre, built, err := c.opt.Prefixes.get(c.opt.Ctx, c.cfg, c.buildPrefix)
	if err != nil {
		if !built {
			err = fmt.Errorf("core: %s canceled in lower: %w", c.p.Name, err)
		}
		return nil, nil, err
	}
	// The clone counts as lowering, as a reused timing run counts as
	// simulation.
	var fn *ir.Func
	if err := c.phase("lower", func() error {
		fn = pre.fn.Clone()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	st.Merge(pre.stats)
	return pre, fn, nil
}

// buildPrefix lowers the prefix for a PrefixMemo, counting into a
// private registry whose snapshot every compilation of the prefix
// replays.
func (c *compilation) buildPrefix() (*prefix, error) {
	rec := obs.NewStats()
	pre, err := c.lowerPrefix(rec)
	if err != nil {
		return nil, err
	}
	pre.stats = rec.Snapshot()
	return pre, nil
}
