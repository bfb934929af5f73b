package exp

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CellRunner executes individual (benchmark, configuration) cells on
// demand with the engine's full fault isolation — recover guard, bounded
// retry, deadline/cancellation handling, structured CellError — outside
// of a grid run. It is the serving layer's entry into the pipeline: each
// benchmark's front-end (built program, input data, reference checksum,
// edge-profile cache) is built once on first use and shared read-only
// across all later cells of that benchmark, exactly as the grid engine
// shares it across workers. Every cell draws its machines from one
// pool. Safe for concurrent use.
type CellRunner struct {
	mu   sync.Mutex
	fes  map[string]*frontEnd
	pool *sim.Pool // created by the first Run
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
// concerns and ignored here. The first call's Options.Contention supplies
// the pool's wait histogram.
func (cr *CellRunner) Run(ctx context.Context, bench string, cfg core.Config, opt Options) (*Result, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	cr.mu.Lock()
	if cr.pool == nil {
		cr.pool = sim.NewPool(opt.Contention.Hist("pool"))
	}
	pool := cr.pool
	fe := cr.fes[bench]
	if fe == nil {
		fe = &frontEnd{b: b}
		cr.fes[bench] = fe
	}
	cr.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	var l lane
	r := runCellAttempts(ctx, task{fe: fe, spec: cellSpec{cfg: cfg}}, pool, opt, &l)
	l.release()
	if r.err != nil {
		return r.result(), r.err
	}
	return r.result(), nil
}
