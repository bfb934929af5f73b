package exp

import (
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// simMemo lets one grid run's cells of one benchmark share timing runs.
// A cell whose final code is identical to an earlier cell's — a
// transform that changed nothing for this program, such as unrolling a
// loop the unroller leaves alone — takes a copy of that cell's metrics
// and output checksum instead of simulating again, and the run's edge
// counts when it counted them, so a profile donor whose run is reused
// still donates.
//
// The map key is the code's sim.Fingerprint plus the issue width, and
// every hit is confirmed field by field against the first cell's
// Compiled (core.SameExecution), never by the hash alone. The memo is
// the only holder of a run's final code: a cell's result keeps its
// numbers, and each stored run keeps its Compiled until the run ends.
// Only runs that succeeded and passed the checksum oracle are stored: an
// error, a cancellation or a timeout leaves no entry.
// There is no single-flight: at Jobs > 1 two identical cells may both
// simulate, and their results are identical.
//
// A nil *simMemo never hits and stores nothing; CellRunner's front-ends
// carry none. Safe for concurrent use.
type simMemo struct {
	mu   sync.Mutex
	runs map[simKey][]*simRun
}

type simKey struct {
	code  uint64 // sim.Fingerprint of the final code
	width int
}

// simRun is one stored timing run and the cell that produced it.
type simRun struct {
	c      *core.Compiled
	met    sim.Metrics
	sum    uint64
	counts []int64 // edge counts, indexed 2·block+successor; nil when the run counted none
}

// key computes c's memo key at width (the zero key on a nil memo, which
// skips fingerprinting).
func (sm *simMemo) key(c *core.Compiled, width int) simKey {
	if sm == nil {
		return simKey{}
	}
	return simKey{code: sim.Fingerprint(c.Fn), width: width}
}

// lookup returns a copy of the metrics, the checksum and the edge counts
// (shared, read-only) of a stored run whose cell executes exactly like c.
func (sm *simMemo) lookup(k simKey, c *core.Compiled) (*sim.Metrics, uint64, []int64, bool) {
	if sm == nil {
		return nil, 0, nil, false
	}
	sm.mu.Lock()
	runs := sm.runs[k] // append-only: the entries below len never change
	sm.mu.Unlock()
	for _, r := range runs {
		if core.SameExecution(r.c, c) {
			met := r.met
			return &met, r.sum, r.counts, true
		}
	}
	return nil, 0, nil, false
}

// store records c's verified run under k, with its edge counts (nil when
// it counted none), which nothing may change afterwards.
func (sm *simMemo) store(k simKey, c *core.Compiled, met *sim.Metrics, sum uint64, counts []int64) {
	if sm == nil {
		return
	}
	sm.mu.Lock()
	if sm.runs == nil {
		sm.runs = map[simKey][]*simRun{}
	}
	sm.runs[k] = append(sm.runs[k], &simRun{c: c, met: *met, sum: sum, counts: counts})
	sm.mu.Unlock()
}
