package core

import (
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Donation is a ProfileCache flight reserved for a donor: a compilation
// of the flight's transform prefix that is not trace-scheduled. Block
// scheduling only reorders instructions within a block and register
// allocation only adds spill code within blocks, so the donor's final
// code keeps the prefix code's blocks and successor lists, and its timed
// run (sim.Machine.Run with counts) traverses exactly the edges a profile
// walk of the prefix code would count. The prefix's trace compilations
// wait on the reserved flight as they wait on a walk in progress, and
// take the donor's counts as a cache hit.
//
// Exactly one of Donate and Fail completes the flight; later calls of
// either do nothing, from any goroutine. Methods on a nil Donation do
// nothing.
type Donation struct {
	pc      *ProfileCache
	key     Config
	fl      *flight[profile.Edges]
	claimed atomic.Bool
}

// errNoDonation fails a reserved flight whose donor gave no counts; the
// waiting trace compilations then walk the prefix code themselves.
var errNoDonation = errors.New("core: no donated profile")

// Donors reserves the profile flights of cfgs, listed in the order their
// compilations start. For each transform prefix that a trace
// configuration in cfgs shares, the prefix's first configuration is its
// donor when it is not trace-scheduled itself, and its flight is
// reserved before any compilation looks it up. The result holds each
// donor's Donation at the donor's index and nil elsewhere. A prefix whose
// first configuration is trace-scheduled gets no donor: its trace
// compilations walk it, as they do in a cache without donors.
//
// A trace compilation waits on its donor, so the donor must start first
// and never wait on a later compilation; a donor only ever waits on its
// prefix's build, which waits on nothing.
func (pc *ProfileCache) Donors(cfgs []Config) []*Donation {
	first := map[Config]int{}
	traced := map[Config]bool{}
	for i, cfg := range cfgs {
		k := prefixKey(cfg)
		if _, ok := first[k]; !ok {
			first[k] = i
		}
		traced[k] = traced[k] || cfg.Trace
	}
	dons := make([]*Donation, len(cfgs))
	for k, i := range first {
		if !traced[k] || cfgs[i].Trace {
			continue
		}
		if fl, ok := pc.flight(k); ok {
			dons[i] = &Donation{pc: pc, key: k, fl: fl}
		}
	}
	return dons
}

// Donate completes d's flight with counts, the edge counts of the timed
// run of c, the donor's compilation, whose output has passed the
// checksum oracle. It runs under a "profile" span on opt.Obs's lane.
// When c's blocks or successor lists differ from the prefix code's, the
// flight fails and the prefix's trace compilations walk it themselves.
// Under opt.Verify the span also walks the prefix code on data, drawing
// the machine from opt.Pool and leaving the shared code unannotated;
// counts that differ from the walk's fail the flight and are returned as
// a *verify.Error.
func (d *Donation) Donate(c *Compiled, counts []int64, data *Data, opt Options) error {
	if d == nil || !d.claimed.CompareAndSwap(false, true) {
		return nil
	}
	sp := opt.Obs.Begin("profile", "compile")
	defer sp.End()
	_, err := d.pc.build(d.key, d.fl, func() (profile.Edges, error) {
		if !sameCFG(c.Fn, c.prefix) || len(counts) != 2*len(c.prefix.Blocks) {
			return nil, errNoDonation
		}
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
	if errors.Is(err, errNoDonation) {
		return nil
	}
	return err
}

// Fail completes d's flight as failed unless Donate claimed it first, so
// the trace compilations waiting on it walk the prefix code themselves.
func (d *Donation) Fail() {
	if d == nil || !d.claimed.CompareAndSwap(false, true) {
		return
	}
	d.pc.build(d.key, d.fl, func() (profile.Edges, error) { return nil, errNoDonation })
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
