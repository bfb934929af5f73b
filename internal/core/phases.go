package core

import "time"

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
