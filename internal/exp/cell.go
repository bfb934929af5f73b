package exp

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/workload"
)

// CellRunner executes individual (benchmark, configuration) cells on
// demand with the engine's full fault isolation — recover guard, bounded
// retry, deadline/cancellation handling, structured CellError — outside
// of a grid run. It is the serving layer's entry into the pipeline: each
// benchmark's front-end (built program, input data, reference checksum,
// edge-profile cache) is built once on first use and shared read-only
// across all later cells of that benchmark, exactly as the grid engine
// shares it across workers. Safe for concurrent use.
type CellRunner struct {
	mu  sync.Mutex
	fes map[string]*frontEnd
	// lane rotates per request so concurrent server cells spread across
	// the sharded machine pool instead of hammering shard 0.
	lane atomic.Uint64
}

// NewCellRunner returns a runner with no front-ends built yet.
func NewCellRunner() *CellRunner {
	return &CellRunner{fes: map[string]*frontEnd{}}
}

// Run compiles and simulates one cell. ctx bounds the whole attempt
// sequence: an expired deadline or cancellation aborts the cell at its
// next stage boundary and is not retried. On failure the returned error
// is the cell's *CellError and the Result still identifies the cell
// (with Err set, Metrics nil). Options.Journal/Resume/Progress are grid
// concerns and ignored here.
func (cr *CellRunner) Run(ctx context.Context, bench string, cfg core.Config, opt Options) (*Result, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	cr.mu.Lock()
	fe := cr.fes[bench]
	if fe == nil {
		fe = &frontEnd{b: b}
		cr.fes[bench] = fe
	}
	cr.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	r := runCellAttempts(ctx, fe, cellSpec{cfg: cfg}, opt, int(cr.lane.Add(1)-1)%64)
	res := &Result{
		Bench:   r.bench,
		Config:  r.cfg,
		Metrics: r.mets[1],
		Static:  r.static,
		Phases:  r.phases,
		Obs:     r.snap,
		Err:     r.err,
	}
	if r.err != nil {
		return res, r.err
	}
	return res, nil
}
