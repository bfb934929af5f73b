// Package profile collects execution-driven edge profiles: the paper's
// trace-scheduling methodology first profiles the programs to determine
// basic-block execution frequencies, which then guide the Multiflow
// compiler's trace selection (Section 4.2). We run the program once on the
// functional side of the simulator with the experiment's inputs and record
// every control-flow edge traversal: sim.Machine.CountEdges walks the
// predecoded code executing values, memory and branch outcomes only,
// skipping the caches, predictor and stall accounting that edge counts
// cannot depend on.
package profile

import (
	"repro/internal/ir"
	"repro/internal/sim"
)

// Edges maps (block ID, successor index) to a traversal count.
type Edges map[[2]int]int64

// Count returns the traversal count of edge (b, succIdx).
func (e Edges) Count(b, succIdx int) int64 { return e[[2]int{b, succIdx}] }

// BestSucc returns the successor index of b with the highest count, or -1
// when no successor edge of b was ever taken.
func (e Edges) BestSucc(fn *ir.Func, b int) int {
	best, bestCount := -1, int64(0)
	for si := range fn.Blocks[b].Succs {
		if c := e.Count(b, si); c > bestCount {
			best, bestCount = si, c
		}
	}
	return best
}

// Collect executes fn once with memory prepared by init (may be nil) and
// returns the edge counts. Block frequencies (entry counts) are stored
// into fn.Blocks[i].Freq as a side effect, ready for trace formation.
// The simulation machine comes from pool when it is non-nil, so the
// profiling run reuses an existing memory image instead of allocating
// one; reused reports whether it did, for the caller's pool-efficiency
// counters.
func Collect(fn *ir.Func, init func(m *sim.Machine), pool *sim.Pool) (edges Edges, reused bool, err error) {
	var m *sim.Machine
	if pool == nil {
		m, err = sim.New(fn)
	} else {
		m, reused, err = pool.Get(fn)
	}
	if err != nil {
		return nil, reused, err
	}
	if init != nil {
		init(m)
	}
	counts, err := m.CountEdges()
	if pool != nil {
		// Trace scheduling rewrites the profiled function in place after
		// this returns, so the machine's predecoded stream must not be
		// trusted against the same pointer again.
		m.Invalidate()
		pool.Put(m)
	}
	if err != nil {
		return nil, reused, err
	}
	// counts is indexed 2·block+successor; untraversed edges stay absent.
	edges = Edges{}
	for i, c := range counts {
		if c != 0 {
			edges[[2]int{i / 2, i % 2}] = c
		}
	}
	Annotate(fn, edges)
	return edges, reused, nil
}

// Annotate stores block entry counts computed from edges into Block.Freq.
func Annotate(fn *ir.Func, edges Edges) {
	for _, b := range fn.Blocks {
		b.Freq = 0
	}
	fn.Blocks[fn.Entry].Freq = 1
	for e, c := range edges {
		succ := fn.Blocks[e[0]].Succs[e[1]]
		fn.Blocks[succ].Freq += c
	}
}
