package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hlir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workload"
)

// This file is the cell-parallel experiment engine. The grid's unit of
// work is one (benchmark, configuration) cell, not one benchmark. The
// engine is built so that no stage serializes the workers (the scale
// report measured the old single-aggregator design flat-lining at
// GOMAXPROCS):
//
//   - the task queue is sharded into per-worker deques with work
//     stealing — a worker pops its own contiguous chunk from the front
//     (keeping benchmark affinity) and steals from the back of a
//     sibling's deque when its own runs dry, so wide widths do not
//     starve behind a single channel;
//   - benchmark front-ends (workload build + reference interpretation +
//     edge-profile cache) are built in parallel as a pre-phase, one
//     builder per benchmark, instead of lazily under a shared
//     once-lock on the first cell that needs them;
//   - finished cells land in per-worker result buffers — no aggregator
//     goroutine, no result channel — and are merged deterministically
//     (by task index) on the caller's goroutine after the workers join,
//     so tables are byte-identical at every width by construction;
//   - each worker appends its finished cell to the JSONL journal itself,
//     one synchronous whole-line write under a short lock (the "journal"
//     wait histogram), so every finished cell is on disk when its worker
//     moves on and a crash can tear only the final line;
//   - each sim.Pool is sharded per worker lane, so the machine-pool
//     mutex vanishes from the steady-state path.
//
// The main grid (Run), the extension grids (E1/E2/E3) and the fuzzing
// harness all execute through runGrid.
//
// The engine is fault-isolated: every cell attempt runs in its own
// goroutine with a recover guard and an optional deadline, so a panicking
// or hung cell becomes a structured CellError on its result instead of a
// process crash, transient failures (panics, timeouts) get one bounded
// retry, and the grid always runs to completion — a degraded run returns
// a *GridError listing the injured cells next to the still-valid Suite.

// Options configures a grid run.
type Options struct {
	// Ctx, when non-nil, is the base context of the whole run: canceling
	// it stops the grid promptly — in-flight cells abort at their next
	// stage boundary (the pipeline checks it between compile phases),
	// queued cells are not started, and every unfinished cell surfaces as
	// a canceled CellError so the run completes degraded with its journal
	// flushed rather than dying mid-write. Nil means context.Background().
	Ctx context.Context
	// Jobs bounds the number of concurrently executing cells; 0 or
	// negative means GOMAXPROCS.
	Jobs int
	// Progress, when non-nil, is called after each completed cell with
	// the running completion count, the total number of cells, and the
	// finished cell's benchmark and configuration names. Calls are
	// serialized (the engine holds a mutex across each invocation), so
	// the callback needs no locking of its own, but they may come from
	// different worker goroutines.
	Progress func(done, total int, bench, config string)
	// Tracer, when non-nil, records one span per cell (with nested
	// compile-phase and simulation spans) on a lane per worker, for
	// Chrome-trace export (internal/obs).
	Tracer *obs.Tracer
	// Contention, when non-nil, enables contention attribution: each
	// worker records a busy/blocked state timeline (running a cell,
	// stealing from a sibling's deque, blocked on the machine pool or a
	// front-end build, merging its results) and every shared resource —
	// task deques, machine pool, front-ends, journal — wraps its blocking
	// operation in a named wait histogram. Off (nil) it costs one nil
	// check per site and zero allocations.
	Contention *obs.Contention
	// Observe enables the per-cell counter registry: each cell collects
	// compiler counters (dag/sched/regalloc/unroll/...), simulator
	// metrics and runtime allocation deltas into an obs.Snapshot stored
	// on its Result.
	Observe bool
	// Verify runs the structural invariant checkers of internal/verify
	// between every compile phase of every cell (core.Options.Verify).
	Verify bool
	// CellTimeout, when positive, bounds each cell attempt's wall clock;
	// an expired cell is abandoned and reported as a timed-out CellError
	// (after one retry).
	CellTimeout time.Duration
	// Journal, when non-empty, is the path of a JSONL cell journal:
	// every finished cell is appended as it completes, so an interrupted
	// grid can be resumed.
	Journal string
	// Resume skips cells already present (successfully) in the Journal,
	// emitting their journaled results instead of recomputing them.
	// Requires Journal.
	Resume bool
}

func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// cellSpec is one column of a grid: a configuration plus the issue
// widths to simulate it at (nil means the paper's single-issue machine).
type cellSpec struct {
	cfg    core.Config
	widths []int
}

// cellResult is one completed (or failed) cell.
type cellResult struct {
	idx    int // position in the task queue; the deterministic merge key
	bench  string
	cfg    core.Config
	mets   map[int]*sim.Metrics // by issue width; nil when the cell failed
	static *core.Compiled
	phases core.PhaseTimes
	snap   *obs.Snapshot // nil unless Options.Observe

	err              *CellError // non-nil when every attempt failed
	attempts         int        // attempts made (1, or 2 after a retry)
	panics, timeouts int        // per-attempt fault tallies
	resumed          bool       // replayed from the journal, not executed
}

// frontEnd lazily builds one benchmark's shared state: the program, its
// input data, the reference interpreter's checksum and the per-benchmark
// profile cache. The first cell of a benchmark pays for it; every later
// cell reads it without copying.
type frontEnd struct {
	b        workload.Benchmark
	once     sync.Once
	built    atomic.Bool
	p        *hlir.Program
	d        *core.Data
	want     uint64
	profiles *core.ProfileCache
	pool     *sim.Pool
	err      error
}

// get builds the front-end on first call (under a "frontend" span on the
// calling worker's lane, since that worker pays the cost). With
// contention attribution on, a worker that arrives while another is
// still building records the wait on its state lane (block-frontend)
// and in the "frontend" wait histogram — the per-benchmark front-end
// serialization the scale report attributes.
func (f *frontEnd) get(ob *obs.Obs) (*hlir.Program, *core.Data, uint64, *core.ProfileCache, error) {
	built := f.built.Load()
	var start time.Time
	waited := true
	if !built {
		ob.State(obs.StateBlockFrontend)
		start = time.Now()
	}
	f.once.Do(func() {
		// This goroutine is the builder: it is working, not waiting.
		waited = false
		ob.State(obs.StateRun)
		sp := ob.Begin("frontend", "exp").Arg("bench", f.b.Name)
		defer sp.End()
		f.p, f.d = f.b.Build()
		f.profiles = core.NewProfileCache()
		f.pool = sim.NewPool()
		f.pool.SetWaitHist(ob.Wait("pool"))
		f.want, f.err = core.Reference(f.p, f.d)
		if f.err != nil {
			f.err = fmt.Errorf("exp: %s reference: %w", f.b.Name, f.err)
		}
		f.built.Store(true)
	})
	if !built {
		ob.State(obs.StateRun)
		if waited {
			ob.Wait("frontend").Observe(time.Since(start))
		}
	}
	return f.p, f.d, f.want, f.profiles, f.err
}

// phaseTracker names the pipeline stage a cell attempt is in, readable
// race-free from the parent goroutine when the attempt is abandoned on
// timeout.
type phaseTracker struct{ v atomic.Int32 }

const (
	phaseFrontend int32 = iota
	phaseCompile
	phaseSim
	phaseCheck
)

var phaseNames = [...]string{"frontend", "compile", "sim", "check"}

func (p *phaseTracker) set(v int32)  { p.v.Store(v) }
func (p *phaseTracker) name() string { return phaseNames[p.v.Load()] }

// runCell compiles and simulates one cell, enforcing the output-checksum
// oracle at every width. When ob carries a tracer, the whole cell runs
// under a "cell" span on the worker's lane with nested compile-phase and
// per-width "sim" spans; when it carries a stats registry, the cell's
// compiler counters, simulator metrics (width 1) and runtime allocation
// deltas are snapshotted into the result. ctx is consulted at stage
// boundaries so an expired attempt stops promptly instead of running the
// remaining widths.
func runCell(ctx context.Context, fe *frontEnd, spec cellSpec, ob *obs.Obs, opt Options, ph *phaseTracker) (*cellResult, error) {
	ph.set(phaseFrontend)
	p, d, want, profiles, err := fe.get(ob)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Hit("exp/cell", fe.b.Name+"/"+spec.cfg.Name()); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cellSpan := ob.Begin("cell", "exp").
		Arg("bench", fe.b.Name).Arg("config", spec.cfg.Name())
	defer cellSpan.End()

	st := ob.Stat()
	var mem0 runtime.MemStats
	if st != nil {
		runtime.ReadMemStats(&mem0)
	}
	ph.set(phaseCompile)
	c, err := core.Compile(p, spec.cfg, d, core.Options{Verify: opt.Verify, Ctx: ctx, Pool: fe.pool, Profiles: profiles, Obs: ob})
	if err != nil {
		return nil, fmt.Errorf("exp: %s %s: %w", fe.b.Name, spec.cfg.Name(), err)
	}
	widths := spec.widths
	if len(widths) == 0 {
		widths = []int{1}
	}
	out := &cellResult{
		bench:  fe.b.Name,
		cfg:    spec.cfg,
		mets:   make(map[int]*sim.Metrics, len(widths)),
		static: c,
		phases: c.Phases,
	}
	for _, w := range widths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ph.set(phaseSim)
		simSpan := ob.Begin("sim", "sim").Arg("width", strconv.Itoa(w))
		start := time.Now()
		met, got, reused, err := core.ExecutePooled(c, d, w, fe.pool, ob)
		out.phases.Sim += time.Since(start)
		simSpan.End()
		if st != nil {
			if reused {
				st.Inc("sim/machine_pool_hits")
			} else {
				st.Inc("sim/machine_pool_misses")
			}
		}
		if err != nil {
			return nil, fmt.Errorf("exp: %s %s w%d: %w", fe.b.Name, spec.cfg.Name(), w, err)
		}
		// The checksum oracle is always on: it is the sim cross-check
		// against reference interpretation, typed as a verification
		// failure.
		ph.set(phaseCheck)
		if err := verify.Checksums(fe.b.Name, spec.cfg.Name(), got, want); err != nil {
			return nil, fmt.Errorf("exp: %s %s w%d: %w", fe.b.Name, spec.cfg.Name(), w, err)
		}
		out.mets[w] = met
		if w == 1 && st != nil {
			met.Each(func(name string, v int64) { st.Add("sim/"+name, v) })
		}
	}
	if st != nil {
		// Allocation delta across the cell. With parallel workers the
		// runtime stats are process-global, so concurrent cells bleed into
		// each other's deltas; they are an attribution estimate, exact
		// only at -jobs 1.
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		st.Add("runtime/alloc_bytes", int64(mem1.TotalAlloc-mem0.TotalAlloc))
		st.Add("runtime/mallocs", int64(mem1.Mallocs-mem0.Mallocs))
		out.snap = st.Snapshot()
	}
	return out, nil
}

// runCellOnce executes one attempt of a cell inside its own goroutine,
// converting a panic, deadline expiry or parent cancellation into a
// *CellError. The attempt goroutine writes its outcome to a buffered
// channel, so an abandoned (timed-out or canceled) attempt can still
// complete its send and exit when the hung stage eventually returns — the
// goroutine outlives the deadline but does not leak forever.
func runCellOnce(parent context.Context, fe *frontEnd, spec cellSpec, opt Options, lane int) (*cellResult, *CellError) {
	ctx := parent
	cancel := func() {}
	if opt.CellTimeout > 0 {
		ctx, cancel = context.WithTimeout(parent, opt.CellTimeout)
	}
	defer cancel()

	var ph phaseTracker
	cellErr := func(err error) *CellError {
		return &CellError{
			Bench: fe.b.Name, Config: spec.cfg.Name(), Phase: ph.name(), Err: err,
			Timeout:  errors.Is(err, context.DeadlineExceeded),
			Canceled: errors.Is(err, context.Canceled),
		}
	}
	type outcome struct {
		r     *cellResult
		err   error
		pv    any
		stack string
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				done <- outcome{pv: v, stack: string(debug.Stack())}
			}
		}()
		// One Obs per attempt: the stats registry is single-goroutine by
		// design, so each attempt gets a fresh one; the tracer, the
		// worker's state timeline and the wait-histogram registry are
		// shared and the lane identifies the worker.
		ob := &obs.Obs{Tracer: opt.Tracer, Lane: lane, TL: opt.Contention.Lane(lane)}
		if opt.Contention != nil {
			ob.Waits = opt.Contention.Waits
		}
		if opt.Observe {
			ob.Stats = obs.NewStats()
		}
		r, err := runCell(ctx, fe, spec, ob, opt, &ph)
		done <- outcome{r: r, err: err}
	}()
	select {
	case o := <-done:
		switch {
		case o.pv != nil:
			ce := cellErr(nil)
			ce.Panic = o.pv
			ce.Stack = o.stack
			return nil, ce
		case o.err != nil:
			return nil, cellErr(o.err)
		default:
			return o.r, nil
		}
	case <-ctx.Done():
		return nil, cellErr(ctx.Err())
	}
}

// runCellAttempts drives a cell to completion with one bounded retry for
// transient failures (panics and per-cell timeouts); deterministic
// failures — compile errors, verification failures, checksum mismatches —
// are not retried, and neither is any failure once the parent context is
// dead (a canceled run or an expired request deadline would only fail the
// same way again). The returned result always carries the attempt and
// fault tallies for the engine's robustness counters.
func runCellAttempts(parent context.Context, fe *frontEnd, spec cellSpec, opt Options, lane int) *cellResult {
	const maxAttempts = 2
	var panics, timeouts int
	for attempt := 1; ; attempt++ {
		r, cerr := runCellOnce(parent, fe, spec, opt, lane)
		if cerr == nil {
			r.attempts = attempt
			r.panics, r.timeouts = panics, timeouts
			return r
		}
		if cerr.Panic != nil {
			panics++
		}
		if cerr.Timeout {
			timeouts++
		}
		transient := (cerr.Panic != nil || cerr.Timeout) && parent.Err() == nil
		if attempt >= maxAttempts || !transient {
			cerr.Attempts = attempt
			return &cellResult{
				bench: fe.b.Name, cfg: spec.cfg,
				err: cerr, attempts: attempt, panics: panics, timeouts: timeouts,
			}
		}
	}
}

// task is one queued cell, stamped with its queue position so the
// end-of-run merge can restore deterministic order regardless of which
// worker executed it.
type task struct {
	idx  int
	fe   *frontEnd
	spec cellSpec
}

// taskDeque is one worker's shard of the task queue. The owner pops from
// the front (preserving the contiguous, benchmark-affine chunk order);
// thieves steal from the back, so owner and thief contend on opposite
// ends and a steal takes the task the owner would reach last. The lock
// is a TimedMutex attributed to the "taskqueue" wait histogram, so
// residual deque contention stays measurable.
type taskDeque struct {
	mu    obs.TimedMutex
	tasks []task
	head  int // owner pops here
	tail  int // exclusive; thieves steal here
}

// popFront takes the owner's next task.
func (d *taskDeque) popFront() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= d.tail {
		return task{}, false
	}
	t := d.tasks[d.head]
	d.head++
	return t, true
}

// stealBack takes a task from the victim's far end.
func (d *taskDeque) stealBack() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= d.tail {
		return task{}, false
	}
	d.tail--
	return d.tasks[d.tail], true
}

// shardTasks deals queue into n contiguous chunks: cells of one
// benchmark are adjacent in queue order, so contiguous chunks give each
// worker front-end and pool-shard affinity, with stealing rebalancing
// the tail.
func shardTasks(queue []task, n int) []*taskDeque {
	deques := make([]*taskDeque, n)
	chunk := (len(queue) + n - 1) / n
	for w := 0; w < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo > len(queue) {
			lo = len(queue)
		}
		if hi > len(queue) {
			hi = len(queue)
		}
		deques[w] = &taskDeque{tasks: queue, head: lo, tail: hi}
	}
	return deques
}

// stealTask scans every other deque, starting after the thief's own
// lane, and steals the first available task. attempts reports how many
// victims were probed (empty-handed probes included).
func stealTask(deques []*taskDeque, lane int) (t task, attempts int, ok bool) {
	n := len(deques)
	for i := 1; i < n; i++ {
		v := (lane + i) % n
		attempts++
		if t, ok = deques[v].stealBack(); ok {
			return t, attempts, true
		}
	}
	return task{}, attempts, false
}

// workerTally is one worker's sharded output: its completed cells (in
// execution order, sorted into queue order during the merge state) and
// its steal statistics, merged into the engine counters at the end.
type workerTally struct {
	results       []cellResult
	steals        int64
	stealAttempts int64
}

// runGrid executes every (benchmark, spec) cell under opt and feeds
// completed cells to emit, which runs on the caller's goroutine after
// the workers join, in deterministic queue order (resumed cells first,
// then live cells by task index). Failed cells arrive at emit too (with
// cellResult.err set); when any cell failed, runGrid returns a
// *GridError after the whole grid has drained. eng, when non-nil,
// receives the engine's robustness counters (cell panics, timeouts,
// retries, errors, resumes, steals, verification failures); it is only
// touched from the caller's goroutine.
func runGrid(benches []workload.Benchmark, specs []cellSpec, opt Options, eng *obs.Stats, emit func(cellResult)) error {
	fes := make([]*frontEnd, len(benches))
	for i, b := range benches {
		fes[i] = &frontEnd{b: b}
	}

	// Resume: index the journal's successful cells (first entry wins).
	var journaled map[string]journalEntry
	if opt.Resume {
		if opt.Journal == "" {
			return fmt.Errorf("exp: Resume requires Journal")
		}
		entries, err := readJournal(opt.Journal)
		if err != nil {
			return err
		}
		journaled = make(map[string]journalEntry, len(entries))
		for _, e := range entries {
			if e.Error != "" {
				continue // failed cells are re-run
			}
			k := e.Bench + "\x00" + e.Config
			if _, ok := journaled[k]; !ok {
				journaled[k] = e
			}
		}
	}

	// Pre-register every attributable resource, so an uncontended run
	// reports zero-count series rather than omitting them (absence must
	// mean "attribution off", never "no waits").
	taskWait := opt.Contention.Hist("taskqueue")
	opt.Contention.Hist("pool")
	opt.Contention.Hist("frontend")
	stealWait := opt.Contention.Hist("steal")
	mergeWait := opt.Contention.Hist("merge")

	var jw *Appender
	if opt.Journal != "" {
		w, err := OpenAppender(opt.Journal, opt.Contention.Hist("journal"))
		if err != nil {
			return err
		}
		jw = w
	}

	total := len(benches) * len(specs)
	var failed []*CellError
	// finalize runs on the caller's goroutine — pre-worker for resumed
	// cells, during the merge for live ones — and owns eng, failed and
	// emit.
	finalize := func(r cellResult) {
		if eng != nil {
			eng.Add("exp/cell_panics", int64(r.panics))
			eng.Add("exp/cell_timeouts", int64(r.timeouts))
			if r.attempts > 1 {
				eng.Add("exp/cell_retries", int64(r.attempts-1))
			}
			if r.resumed {
				eng.Inc("exp/cells_resumed")
			}
			if r.err != nil {
				eng.Inc("exp/cell_errors")
				if r.err.Canceled {
					eng.Inc("exp/cells_canceled")
				}
				if verify.IsVerification(r.err.Err) {
					eng.Inc("verify/failures")
				}
			}
		}
		if r.err != nil {
			failed = append(failed, r.err)
		}
		emit(r)
	}
	// progress serializes the Progress callback across workers and owns
	// the completion counter.
	var progMu sync.Mutex
	done := 0
	progress := func(r *cellResult) {
		if opt.Progress == nil {
			return
		}
		progMu.Lock()
		done++
		opt.Progress(done, total, r.bench, r.cfg.Name())
		progMu.Unlock()
	}
	// journal appends a finished live cell; called from workers at
	// completion time so an interrupted run has every finished cell on
	// disk.
	journal := func(r *cellResult) {
		if jw == nil || r.resumed {
			return
		}
		e := journalEntry{Bench: r.bench, Config: r.cfg.Name(), Widths: r.mets, Phases: r.phases, Obs: r.snap}
		if r.err != nil {
			e.Error = r.err.Error()
		}
		jw.Append(e)
	}

	// Partition cells into journal replays and live work. Replays are
	// finalized immediately, in queue order; live tasks get their queue
	// index as the deterministic merge key.
	var queue []task
	for _, fe := range fes {
		for _, spec := range specs {
			if e, ok := journaled[fe.b.Name+"\x00"+spec.cfg.Name()]; ok {
				r := cellResult{
					bench: fe.b.Name, cfg: spec.cfg,
					mets: e.Widths, phases: e.Phases, snap: e.Obs,
					attempts: 1, resumed: true,
				}
				finalize(r)
				progress(&r)
				continue
			}
			queue = append(queue, task{idx: len(queue), fe: fe, spec: spec})
		}
	}

	ctx := opt.ctx()
	nw := opt.jobs()
	deques := shardTasks(queue, nw)
	for w := range deques {
		deques[w].mu.H = taskWait
		// Open the lane's timeline now, so a lane with no front-end to
		// build records the pre-phase as idle rather than leaving it
		// outside every state.
		opt.Contention.Lane(w)
	}

	// Front-end pre-phase: build every live benchmark's front-end in
	// parallel before the cell workers start, one builder per benchmark,
	// so no worker ever blocks on another's once-lock during the grid
	// proper. Build errors are left sticky on the frontEnd; each of its
	// cells surfaces the same error exactly as under lazy building.
	var pre []*frontEnd
	seen := make(map[*frontEnd]bool, len(fes))
	for _, t := range queue {
		if !seen[t.fe] {
			seen[t.fe] = true
			pre = append(pre, t.fe)
		}
	}
	builders := nw
	if len(pre) < builders {
		builders = len(pre)
	}
	if builders > 0 {
		feCh := make(chan *frontEnd)
		var fwg sync.WaitGroup
		for w := 0; w < builders; w++ {
			fwg.Add(1)
			go func(lane int) {
				defer fwg.Done()
				ob := &obs.Obs{Tracer: opt.Tracer, Lane: lane, TL: opt.Contention.Lane(lane)}
				if opt.Contention != nil {
					ob.Waits = opt.Contention.Waits
				}
				for fe := range feCh {
					fe.get(ob) // sticky error surfaces per cell
				}
			}(w)
		}
		for _, fe := range pre {
			feCh <- fe
		}
		close(feCh)
		fwg.Wait()
	}

	tallies := make([]workerTally, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		opt.Tracer.NameLane(w, fmt.Sprintf("worker %d", w))
		go func(lane int) {
			defer wg.Done()
			tl := opt.Contention.Lane(lane)
			tally := &tallies[lane]
			for {
				t, ok := deques[lane].popFront()
				if !ok {
					// Own deque dry: steal from a sibling. One failed
					// scan terminates the worker — tasks are only ever
					// removed, so an empty sweep cannot race new work.
					tl.Set(obs.StateSteal)
					start := time.Now()
					var attempts int
					t, attempts, ok = stealTask(deques, lane)
					stealWait.Observe(time.Since(start))
					tally.stealAttempts += int64(attempts)
					if !ok {
						break
					}
					tally.steals++
				}
				// A dead run context skips queued cells without starting
				// them: each becomes a canceled CellError so the grid
				// still accounts for every cell and the journal records
				// the interruption.
				var r *cellResult
				if err := ctx.Err(); err != nil {
					r = &cellResult{
						bench: t.fe.b.Name, cfg: t.spec.cfg, attempts: 1,
						err: &CellError{
							Bench: t.fe.b.Name, Config: t.spec.cfg.Name(),
							Phase: "queue", Err: err, Attempts: 1,
							Timeout:  errors.Is(err, context.DeadlineExceeded),
							Canceled: errors.Is(err, context.Canceled),
						},
					}
				} else {
					tl.Set(obs.StateRun)
					r = runCellAttempts(ctx, t.fe, t.spec, opt, lane)
				}
				r.idx = t.idx
				journal(r)
				tally.results = append(tally.results, *r)
				progress(r)
			}
			// Merge state: sort this worker's shard into queue order so
			// the caller's merge is a cheap concatenation-and-sort of
			// pre-sorted runs.
			tl.Set(obs.StateMerge)
			sort.Slice(tally.results, func(a, b int) bool {
				return tally.results[a].idx < tally.results[b].idx
			})
			tl.Set(obs.StateIdle)
		}(w)
	}
	wg.Wait()

	// Deterministic merge on the caller's goroutine: concatenate the
	// per-worker buffers and restore queue order by task index. The
	// result set is identical at every worker count by construction.
	mergeStart := time.Now()
	var live []cellResult
	for w := range tallies {
		live = append(live, tallies[w].results...)
		if eng != nil {
			eng.Add("exp/steals", tallies[w].steals)
			eng.Add("exp/steal_attempts", tallies[w].stealAttempts)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].idx < live[b].idx })
	for i := range live {
		finalize(live[i])
	}
	mergeWait.Observe(time.Since(mergeStart))

	// Workers have exited, so the state timelines are final: export them
	// into the span trace as their own lanes, so one Perfetto load shows
	// both what each worker did and what it was waiting on.
	if opt.Tracer != nil && opt.Contention != nil {
		opt.Tracer.AddEvents(opt.Contention.Timelines.Events())
	}
	if err := jw.Close(); err != nil {
		return err
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool {
			if failed[a].Bench != failed[b].Bench {
				return failed[a].Bench < failed[b].Bench
			}
			return failed[a].Config < failed[b].Config
		})
		return &GridError{Cells: failed}
	}
	return nil
}

// RunGrid runs the paper's full 16-configuration grid over the named
// benchmarks (all seventeen when names is empty) on the cell-parallel
// engine.
func RunGrid(names []string, opt Options) (*Suite, error) {
	benches, err := pick(names)
	if err != nil {
		return nil, err
	}
	return RunBenchmarks(benches, opt)
}

// RunBenchmarks is RunGrid for pre-resolved benchmarks — including
// synthetic ones (e.g. the fuzzing harness wraps random programs in
// ad-hoc workload.Benchmark values and pushes them through the same
// engine and oracle as the paper grid). When the grid completes degraded
// the returned error is a *GridError and the Suite is still valid for
// every healthy cell.
func RunBenchmarks(benches []workload.Benchmark, opt Options) (*Suite, error) {
	return RunBenchmarksConfigs(benches, Cells(), opt)
}

// RunBenchmarksConfigs is RunBenchmarks over an explicit configuration
// set instead of the paper's 16-cell grid — the entry point for generated
// corpora, whose statistics mode trades grid width for corpus size.
func RunBenchmarksConfigs(benches []workload.Benchmark, cfgs []core.Config, opt Options) (*Suite, error) {
	s := &Suite{results: map[string]map[string]*Result{}}
	for _, b := range benches {
		s.Benchmarks = append(s.Benchmarks, b.Name)
		s.results[b.Name] = map[string]*Result{}
	}
	specs := make([]cellSpec, 0, len(cfgs))
	for _, cfg := range cfgs {
		specs = append(specs, cellSpec{cfg: cfg})
	}
	eng := obs.NewStats()
	err := runGrid(benches, specs, opt, eng, func(r cellResult) {
		s.results[r.bench][r.cfg.Name()] = &Result{
			Bench:   r.bench,
			Config:  r.cfg,
			Metrics: r.mets[1],
			Static:  r.static,
			Phases:  r.phases,
			Obs:     r.snap,
			Err:     r.err,
		}
	})
	if snap := eng.Snapshot(); len(snap.Counters) > 0 {
		s.engine = snap
	}
	if err != nil {
		return s, err
	}
	return s, nil
}
