package core

import (
	"sync"
	"time"

	"repro/internal/profile"
)

// PhaseTimes records the wall-clock time spent in each pipeline phase for
// one compilation (plus simulation, filled in by harnesses that execute
// the result). The zero value means "phase did not run". Durations
// marshal to JSON as integer nanoseconds.
type PhaseTimes struct {
	// Locality is time in locality analysis (reuse detection, peeling,
	// hit/miss marking).
	Locality time.Duration `json:"locality"`
	// Unroll is time in loop unrolling (including postconditioning).
	Unroll time.Duration `json:"unroll"`
	// Prefetch is time inserting software-prefetch hints (extension E3).
	Prefetch time.Duration `json:"prefetch"`
	// Lower is time lowering HLIR to the Alpha-like IR.
	Lower time.Duration `json:"lower"`
	// LICM is time in loop-invariant code motion (opt-in pass).
	LICM time.Duration `json:"licm"`
	// Profile is time collecting the execution-driven edge profile (trace
	// scheduling only; zero when the profile came from a ProfileCache).
	Profile time.Duration `json:"profile"`
	// Trace is time in trace formation and trace scheduling.
	Trace time.Duration `json:"trace"`
	// Sched is time in per-block list scheduling (the non-trace path).
	Sched time.Duration `json:"sched"`
	// Regalloc is time in register allocation.
	Regalloc time.Duration `json:"regalloc"`
	// Sim is time simulating the compiled code (filled by the experiment
	// engine, not by Compile). A grid cell whose code is identical to an
	// earlier cell's reuses that cell's run and records only its lookup
	// time here.
	Sim time.Duration `json:"sim"`
}

// ProfileCache memoizes execution-driven edge profiles across the
// configurations of one (program, data) pair. The profile is collected on
// the lowered-but-unscheduled function, which depends only on the HLIR
// transforms (locality, unrolling, prefetch, LICM) — not on the scheduler
// policy — so e.g. TS+TrS+LU4 and BS+TrS+LU4 share one profiling run.
// Edge counts are keyed by stable block IDs and lowering is deterministic,
// so a cached profile annotates any function lowered from the same
// transformed program. Safe for concurrent use.
//
// A cache must not be shared across different programs or input data:
// the key only encodes the configuration's transform prefix.
//
// Lookups are single-flight per key: when several configurations sharing
// a transform prefix compile concurrently, exactly one collects the
// profile and the rest wait for it and count as cache hits. That keeps
// redundant profiling runs from sneaking back in at high worker counts
// and makes the hit count a pure function of the configuration set —
// (trace configs) − (distinct transform keys) — independent of
// scheduling order.
type ProfileCache struct {
	mu sync.Mutex
	m  map[Config]*profileFlight
}

// profileFlight is one in-flight (or completed) profile collection; done
// is closed once edges/err are final.
type profileFlight struct {
	done  chan struct{}
	edges profile.Edges
	err   error
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{m: map[Config]*profileFlight{}}
}

// getOrCollect returns the edge profile for cfg's prefix key, running
// collect on the first call for that key. hit reports whether the caller
// must re-annotate its own function clone (every caller but the one that
// ran collect). A failed collection is not cached: waiters of that
// flight see its error, later callers retry from scratch.
func (pc *ProfileCache) getOrCollect(cfg Config, collect func() (profile.Edges, error)) (edges profile.Edges, hit bool, err error) {
	key := prefixKey(cfg)
	pc.mu.Lock()
	if fl, ok := pc.m[key]; ok {
		pc.mu.Unlock()
		<-fl.done
		return fl.edges, true, fl.err
	}
	fl := &profileFlight{done: make(chan struct{})}
	pc.m[key] = fl
	pc.mu.Unlock()
	fl.edges, fl.err = collect()
	if fl.err != nil {
		pc.mu.Lock()
		delete(pc.m, key)
		pc.mu.Unlock()
	}
	close(fl.done)
	return fl.edges, false, fl.err
}
