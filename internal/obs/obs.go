// Package obs is the stack's unified observability layer: nestable span
// tracing exported as Chrome trace-event JSON (renderable as a per-worker
// timeline in Perfetto/chrome://tracing), a named counter/histogram
// registry carried per experiment cell, and runtime profiling hooks
// (pprof CPU/heap profiles and Go execution traces) shared by the
// command-line harnesses.
//
// Everything is built around a disabled-by-default fast path: a nil
// *Tracer, *Stats or *Obs is a valid receiver whose methods do nothing
// and allocate nothing, so instrumented code (the compilation pipeline,
// the DAG builder, the list scheduler's inner loop) pays one nil check
// when observability is off. The experiment engine flips it on per run.
package obs

// Obs bundles the observability context one compilation or simulation
// carries: a tracer (nil = tracing off), the trace lane (the Chrome-trace
// thread ID, one per engine worker so a grid run renders as per-worker
// timelines), and a counter registry (nil = counters off). A nil *Obs is
// fully disabled.
type Obs struct {
	// Tracer receives spans; nil disables tracing.
	Tracer *Tracer
	// Lane is the trace lane (Chrome trace tid) spans are tagged with.
	Lane int
	// Stats receives counters and histograms; nil disables them.
	Stats *Stats
	// TL is the worker's state timeline (nil = timelines off): deep
	// callees (the pool path in core.ExecutePooled) flip the worker's
	// blocked/running state through it.
	TL *Timeline
	// Waits is the run's per-resource wait-histogram registry (nil =
	// wait attribution off).
	Waits *WaitProfile
}

// Begin opens a span on the context's tracer and lane. Safe on a nil
// receiver (returns a nil span whose End is a no-op).
func (o *Obs) Begin(name, cat string) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.Begin(o.Lane, name, cat)
}

// Stat returns the context's stats registry (nil when disabled), for
// passing into instrumented callees.
func (o *Obs) Stat() *Stats {
	if o == nil {
		return nil
	}
	return o.Stats
}

// State flips the context's worker timeline into state s. Safe (and
// free) on a nil receiver or with timelines disabled.
func (o *Obs) State(s WorkerState) {
	if o == nil {
		return
	}
	o.TL.Set(s)
}

// Wait returns the wait histogram for resource name (nil when wait
// attribution is off), for one-line TimedMutex wiring.
func (o *Obs) Wait(name string) *WaitHist {
	if o == nil {
		return nil
	}
	return o.Waits.Hist(name)
}
