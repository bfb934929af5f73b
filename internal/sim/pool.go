package sim

import (
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/obs"
)

// poolHits and poolMisses aggregate Get outcomes across every pool in the
// process, for the serving layer's /metrics gauges (per-cell attribution
// goes through each caller's obs registry instead).
var poolHits, poolMisses atomic.Int64

// PoolCounters returns the process-wide machine-pool hit and miss totals.
func PoolCounters() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// Pool recycles simulation machines so repeated runs — the experiment
// grid's cells, the profiler's collection pass, the serving layer's
// requests — reuse memory images, register files, hierarchies and
// predecoded streams instead of reallocating multiple megabytes per run.
// Machines come out of Get rewound for the requested function
// (Machine.Reset re-lays memory for any function, reusing storage that
// is large enough), so a pooled run is bit-identical to one on a fresh
// machine and one pool can serve every benchmark; the differential tests
// enforce this. Safe for concurrent use; a machine must be used by one
// goroutine at a time between Get and Put.
type Pool struct {
	// mu guards free; it is a TimedMutex so lock contention stays
	// attributable to the pool's wait histogram.
	mu   obs.TimedMutex
	free []*Machine
}

// maxPoolFree bounds each pool's idle machines; beyond it Put drops the
// machine for the garbage collector. The bound only matters when more
// goroutines return machines than ever run concurrently again.
const maxPoolFree = 16

// NewPool returns an empty pool whose lock waits are recorded into h
// (nil records nothing).
func NewPool(h *obs.WaitHist) *Pool {
	p := &Pool{}
	p.mu.H = h
	return p
}

// Get returns a machine pointed at fn: a recycled one (reused=true) when
// the pool has an idle machine — rewound with Reset, skipping
// fn.Validate — or a freshly built one via New (which validates) when it
// does not. The caller must Put the machine back when done with it and
// its memory image (checksums read the image, so Put comes after them).
func (p *Pool) Get(fn *ir.Func) (m *Machine, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if m != nil {
		poolHits.Add(1)
		m.Reset(fn)
		return m, true, nil
	}
	poolMisses.Add(1)
	m, err = New(fn)
	if err != nil {
		return nil, false, err
	}
	return m, false, nil
}

// Put returns m to the pool for reuse. A nil machine is ignored, so Put
// is safe on error paths.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxPoolFree {
		p.free = append(p.free, m)
	}
	p.mu.Unlock()
}

// idle returns the idle-machine count (testing hook).
func (p *Pool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
