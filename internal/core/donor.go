package core

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Offer stores counts, the edge counts of the timed run of c, as the
// profile of c's transform prefix, so the prefix's trace compilations
// take them as a cache hit instead of walking the prefix code. The
// caller offers only a run whose output has passed the checksum oracle.
// Block scheduling only reorders instructions within a block and
// register allocation only adds spill code within blocks, so a
// compilation that is not trace-scheduled keeps the prefix code's blocks
// and successor lists, and its timed run (sim.Machine.Run with counts)
// traverses exactly the edges a profile walk of the prefix code would.
//
// Offer stores nothing, and returns nil, when c is trace-scheduled, when
// c's blocks or successor lists differ from the prefix code's, or when
// the key already has a profile or a walk in flight. Otherwise it runs
// under a "profile" span on opt.Obs's lane. Under opt.Verify the span
// also walks the prefix code on data, drawing the machine from opt.Pool
// and leaving the shared code unannotated; counts that differ from the
// walk's are not stored and are returned as a *verify.Error.
func (pc *ProfileCache) Offer(c *Compiled, counts []int64, data *Data, opt Options) error {
	if c.Config.Trace || !sameCFG(c.Fn, c.prefix) || len(counts) != 2*len(c.prefix.Blocks) {
		return nil
	}
	key := prefixKey(c.Config)
	fl, first := pc.flight(key)
	if !first {
		return nil
	}
	sp := opt.Obs.Begin("profile", "compile")
	defer sp.End()
	_, err := pc.build(key, fl, func() (profile.Edges, error) {
		if opt.Verify {
			walked, reused, err := profile.Walk(c.prefix, func(m *sim.Machine) {
				InitMachine(m, c.ArrayID, data)
			}, opt.Pool)
			countPoolDraw(opt, reused)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(walked, counts) {
				return nil, verify.Errorf("profile", c.Fn.Name, "%s: the timed run's edge counts differ from a profile walk's", c.Config.Name())
			}
		}
		return counts, nil
	})
	return err
}

// sameCFG reports whether a and b have the same entry, blocks and
// successor lists, so edge counts indexed 2·block+successor mean the same
// edges in both.
func sameCFG(a, b *ir.Func) bool {
	if a.Entry != b.Entry || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i, blk := range a.Blocks {
		if !slices.Equal(blk.Succs, b.Blocks[i].Succs) {
			return false
		}
	}
	return true
}
