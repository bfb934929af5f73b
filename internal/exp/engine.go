package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
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
// work is one benchmark's transform prefix: the live cells that share
// it run one after another, in grid order, on one worker, and each keeps
// its own fault isolation, journal line and progress call. A run has two
// phases, both scheduled by forEach: one shared counter hands out
// indices, one at a time, to at most Jobs workers, which balances units
// of a few milliseconds as well as per-worker queues would.
//
//   - The front-end pre-phase builds each live benchmark's front-end
//     (workload build + reference interpretation) exactly once, before
//     any cell starts.
//   - The cell phase runs every live cell, one prefix group per index.
//     Each worker stores its group's cells at the group's index, so the
//     caller finalizes in queue order after the workers join and tables
//     are byte-identical at every width by construction.
//
// Each worker appends its finished cell to the JSONL journal itself, one
// synchronous whole-line write under a short lock (the "journal" wait
// histogram), so every finished cell is on disk when its worker moves on
// and a crash can tear only the final line. Every cell of a run draws
// its simulation machines from one sim.Pool: Machine.Reset re-lays a
// machine for any function, so one pool serves every benchmark. Cells of
// one benchmark sharing a transform prefix lower it once per run
// (core.PrefixMemo) and each schedules its own copy of the code. A cell
// whose final code is identical to an earlier cell's of the same
// benchmark does not simulate at all: it copies that cell's run from
// the benchmark's memo (memo.go), one memo per benchmark per run. Trace
// cells take their edge profile from a profile donor, their group's
// first cell when it is block-scheduled: the donor runs before them and
// offers the edge counts of its verified timed run, which are the edges
// a profile walk would count (core.ProfileCache.Offer). A prefix without
// a donor, or whose donor fails for good, is walked. With
// Options.Contention set, the machine pool, front-ends and journal
// record their waits in named wait histograms.
//
// The main grid (RunGrid), generated corpora (RunGenerated), the
// extension grid (RunExt) and the fuzzing harness all execute through
// runSuite, and each returns one Suite whose numbers depend only on
// (benchmark, configuration, issue width).
//
// The engine is fault-isolated: every cell attempt runs on its worker's
// attempt goroutine (lane) with a recover guard and an optional deadline,
// so a panicking or hung cell becomes a structured CellError on its
// result instead of a process crash, transient failures (panics, timeouts) get one bounded
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
	// Contention, when non-nil, enables contention attribution: every
	// shared resource — machine pool, front-ends, journal — wraps its
	// blocking operation in a named wait histogram. Off (nil) it costs
	// one nil check per site, no clock reads and zero allocations.
	Contention *obs.Contention
	// Observe enables the per-cell counter registry: each cell collects
	// compiler counters (dag/sched/regalloc/unroll/...) and its width-1
	// simulator metrics into an obs.Snapshot stored on its Result.
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

// issueWidths returns the widths spec simulates, in order.
func (spec cellSpec) issueWidths() []int {
	if len(spec.widths) == 0 {
		return []int{1}
	}
	return spec.widths
}

// task is one live cell: its benchmark's front-end, its column and
// whether it is its transform prefix's profile donor.
type task struct {
	fe    *frontEnd
	spec  cellSpec
	donor bool
}

// cellResult is one completed (or failed) cell: its numbers, not its
// code.
type cellResult struct {
	bench string
	cfg   core.Config
	mets  map[int]*sim.Metrics // by issue width; nil when the cell failed
	snap  *obs.Snapshot        // nil unless Options.Observe

	err              *CellError // non-nil when every attempt failed
	attempts         int        // attempts made (1, or 2 after a retry)
	panics, timeouts int        // per-attempt fault tallies
	resumed          bool       // replayed from the journal, not executed
}

// result converts r to the Result a Suite or CellRunner hands out: its
// width-1 metrics, and its other widths' in Wide.
func (r *cellResult) result() *Result {
	res := &Result{Bench: r.bench, Config: r.cfg, Metrics: r.mets[1], Obs: r.snap, Err: r.err}
	for w, m := range r.mets {
		if w == 1 {
			continue
		}
		if res.Wide == nil {
			res.Wide = map[int]*sim.Metrics{}
		}
		res.Wide[w] = m
	}
	return res
}

// frontEnd lazily builds one benchmark's shared state: the program, its
// input data and the reference interpreter's checksum. It is built once
// — by the grid's pre-phase, or by the first CellRunner request for the
// benchmark — and every cell reads it without copying. Its profile cache
// lives as long as it does. A grid's front-ends also carry the
// benchmark's lowered code (code) and timing runs (sims) for that run;
// CellRunner's carry neither, so a long-lived server keeps no code
// between requests.
type frontEnd struct {
	b          workload.Benchmark
	code       *core.PrefixMemo
	sims       *simMemo
	profiles   core.ProfileCache
	countEdges bool // width-1 timed runs count their edges: the grid gave the benchmark a profile donor
	once       sync.Once
	built      atomic.Bool
	p          *hlir.Program
	d          *core.Data
	want       uint64
	err        error
}

// get builds the front-end on first call, under a "frontend" span on the
// building goroutine's lane. A caller that arrives while another is
// still building records its wait in the "frontend" wait histogram; only
// CellRunner requests can wait, since the grid builds every front-end
// before its cells start.
func (f *frontEnd) get(ob *obs.Obs) (*hlir.Program, *core.Data, uint64, error) {
	if !f.built.Load() {
		start := time.Now()
		waited := true
		f.once.Do(func() {
			waited = false
			sp := ob.Begin("frontend", "exp").Arg("bench", f.b.Name)
			defer sp.End()
			f.p, f.d = f.b.Build()
			f.want, f.err = core.Reference(f.p, f.d)
			if f.err != nil {
				f.err = fmt.Errorf("exp: %s reference: %w", f.b.Name, f.err)
			}
			f.built.Store(true)
		})
		if waited {
			ob.Wait("frontend").Observe(time.Since(start))
		}
	}
	return f.p, f.d, f.want, f.err
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
// compiler counters and simulator metrics (width 1) are snapshotted into
// the result. ctx is consulted at stage
// boundaries so an expired attempt stops promptly instead of running the
// remaining widths. Machines for the profiling run and every width come
// from pool; a width whose run the benchmark's memo already holds for
// identical code reuses it, and every verified fresh run is stored there.
// A profile donor offers its width-1 run's edge counts once the run
// passes the checksum oracle, unless its attempt was abandoned.
func runCell(ctx context.Context, t task, pool *sim.Pool, ob *obs.Obs, opt Options, ph *phaseTracker) (*cellResult, error) {
	fe, spec := t.fe, t.spec
	ph.set(phaseFrontend)
	p, d, want, err := fe.get(ob)
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
	ph.set(phaseCompile)
	copt := core.Options{Verify: opt.Verify, Ctx: ctx, Pool: pool, Profiles: &fe.profiles, Prefixes: fe.code, Obs: ob}
	c, err := core.Compile(p, spec.cfg, d, copt)
	if err != nil {
		return nil, fmt.Errorf("exp: %s %s: %w", fe.b.Name, spec.cfg.Name(), err)
	}
	widths := spec.issueWidths()
	out := &cellResult{
		bench: fe.b.Name,
		cfg:   spec.cfg,
		mets:  make(map[int]*sim.Metrics, len(widths)),
	}
	for _, w := range widths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ph.set(phaseSim)
		simSpan := ob.Begin("sim", "sim").Arg("width", strconv.Itoa(w))
		k := fe.sims.key(c, w)
		met, got, counts, memoized := fe.sims.lookup(k, c)
		var err error
		if memoized {
			// The reused run stands in for a simulation, fault point
			// included, so a fault plan sees the same sim/run hits.
			err = faultinject.Hit("sim/run", c.Fn.Name)
			st.Inc("sim/reused")
		} else {
			if w == 1 && fe.countEdges {
				counts = make([]int64, 2*len(c.Fn.Blocks))
			}
			var pooled bool
			met, got, pooled, err = core.ExecutePooled(c, d, w, pool, counts)
			// Registered at zero, so every cell's snapshot has the same
			// keys whichever of two identical cells happened to run first.
			st.Add("sim/reused", 0)
			if pooled {
				st.Inc("sim/machine_pool_hits")
			} else {
				st.Inc("sim/machine_pool_misses")
			}
		}
		simSpan.End()
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
		if !memoized && ctx.Err() == nil {
			fe.sims.store(k, c, met, got, counts)
		}
		if w == 1 && t.donor && ctx.Err() == nil {
			if err := fe.profiles.Offer(c, counts, d, copt); err != nil {
				return nil, fmt.Errorf("exp: %s %s: %w", fe.b.Name, spec.cfg.Name(), err)
			}
		}
		out.mets[w] = met
		if w == 1 && st != nil {
			met.Each(func(name string, v int64) { st.Add("sim/"+name, v) })
		}
	}
	if st != nil {
		out.snap = st.Snapshot()
	}
	return out, nil
}

// lane is one worker's attempt goroutine. Every attempt of the worker's
// cells runs on it, so an attempt starts on the stack that earlier
// attempts grew rather than growing a fresh goroutine's stack step by
// step deep inside the pipeline. An attempt abandoned on timeout or
// cancellation keeps its goroutine until the hung stage returns, and the
// lane starts a new one for its next attempt. A lane is used by one
// goroutine at a time.
type lane struct {
	id   int         // the trace lane its spans land on
	work chan func() // nil before the first attempt and after an abandoned one
}

// run hands f to the lane's goroutine, starting one when there is none.
func (l *lane) run(f func()) {
	if l.work == nil {
		l.work = make(chan func())
		go func(work <-chan func()) {
			for f := range work {
				f()
			}
		}(l.work)
	}
	l.work <- f
}

// release lets the lane's goroutine exit once its current attempt, if
// any, returns.
func (l *lane) release() {
	if l.work != nil {
		close(l.work)
		l.work = nil
	}
}

// runCellOnce executes one attempt of a cell on l's goroutine, converting
// a panic, deadline expiry or parent cancellation into a *CellError. The
// attempt writes its outcome to a buffered channel, so an abandoned
// (timed-out or canceled) attempt can still complete its send and free
// its goroutine when the hung stage eventually returns — the goroutine
// outlives the deadline but does not leak forever.
func runCellOnce(parent context.Context, t task, pool *sim.Pool, opt Options, l *lane) (*cellResult, *CellError) {
	ctx := parent
	cancel := func() {}
	if opt.CellTimeout > 0 {
		ctx, cancel = context.WithTimeout(parent, opt.CellTimeout)
	}
	defer cancel()

	var ph phaseTracker
	cellErr := func(err error) *CellError {
		return &CellError{
			Bench: t.fe.b.Name, Config: t.spec.cfg.Name(), Phase: ph.name(), Err: err,
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
	l.run(func() {
		defer func() {
			if v := recover(); v != nil {
				done <- outcome{pv: v, stack: string(debug.Stack())}
			}
		}()
		// One Obs per attempt: the stats registry is single-goroutine by
		// design, so each attempt gets a fresh one; the tracer and the
		// wait-histogram registry are shared and the lane identifies the
		// worker.
		ob := &obs.Obs{Tracer: opt.Tracer, Lane: l.id}
		if opt.Contention != nil {
			ob.Waits = opt.Contention.Waits
		}
		if opt.Observe {
			ob.Stats = obs.NewStats()
		}
		r, err := runCell(ctx, t, pool, ob, opt, &ph)
		done <- outcome{r: r, err: err}
	})
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
		l.release()
		return nil, cellErr(ctx.Err())
	}
}

// runCellAttempts drives a cell to completion with one bounded retry for
// transient failures (panics and per-cell timeouts); deterministic
// failures — compile errors, verification failures, checksum mismatches —
// are not retried, and neither is any failure once the parent context is
// dead (a canceled run or an expired request deadline would only fail the
// same way again). The returned result always carries the attempt and
// fault tallies for the engine's robustness counters. A profile donor
// offers from whichever attempt succeeds: its trace siblings run after
// it on the same worker.
func runCellAttempts(parent context.Context, t task, pool *sim.Pool, opt Options, l *lane) *cellResult {
	const maxAttempts = 2
	var panics, timeouts int
	fe, spec := t.fe, t.spec
	for attempt := 1; ; attempt++ {
		r, cerr := runCellOnce(parent, t, pool, opt, l)
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

// forEach calls fn(w, i) for every i in [0, n) on at most jobs worker
// goroutines, w = 0, 1, …, and returns once every call has. Indices come
// from one shared counter, one at a time and in order, so a worker that
// draws short tasks simply draws more of them.
func forEach(n, jobs int, fn func(w, i int)) {
	if jobs > n {
		jobs = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// runSuite executes every (benchmark, spec) cell under opt into one
// Suite, finalized on the caller's goroutine in deterministic queue
// order: journal replays as the queue is built, then live cells after
// the workers join. Failed cells are in the Suite too (Result.Err set);
// when any cell failed, runSuite returns a *GridError next to the Suite
// after the whole grid has drained. The engine's robustness counters
// (cell panics, timeouts, retries, errors, resumes, verification
// failures) join the Suite's merged snapshot.
func runSuite(benches []workload.Benchmark, specs []cellSpec, opt Options) (*Suite, error) {
	// Resume: index the journal's successful cells (first entry wins).
	var journaled map[string]journalEntry
	if opt.Resume {
		if opt.Journal == "" {
			return nil, fmt.Errorf("exp: Resume requires Journal")
		}
		entries, err := readJournal(opt.Journal)
		if err != nil {
			return nil, err
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
	opt.Contention.Hist("frontend")
	pool := sim.NewPool(opt.Contention.Hist("pool"))

	var jw *Appender
	if opt.Journal != "" {
		w, err := OpenAppender(opt.Journal, opt.Contention.Hist("journal"))
		if err != nil {
			return nil, err
		}
		jw = w
	}

	s := &Suite{results: map[string]map[string]*Result{}}
	for _, b := range benches {
		s.Benchmarks = append(s.Benchmarks, b.Name)
		s.results[b.Name] = map[string]*Result{}
	}
	for _, spec := range specs {
		s.cfgs = append(s.cfgs, spec.cfg)
	}
	total := len(benches) * len(specs)
	var failed []*CellError
	eng := obs.NewStats()
	// finalize runs on the caller's goroutine and owns s, eng and failed.
	finalize := func(r cellResult) {
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
			failed = append(failed, r.err)
		}
		s.results[r.bench][r.cfg.Name()] = r.result()
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
		e := journalEntry{Bench: r.bench, Config: r.cfg.Name(), Widths: r.mets, Obs: r.snap}
		if r.err != nil {
			e.Error = r.err.Error()
		}
		jw.Append(e)
	}

	// Partition cells into journal replays, finalized immediately, and
	// live work; pre lists each benchmark with at least one live cell.
	// Each benchmark's live cells are grouped by transform prefix in grid
	// order, one group per unit of work. A group's first cell is its
	// profile donor when it is block-scheduled and the group has a trace
	// cell, which then runs after it.
	var groups [][]task
	var pre []*frontEnd
	for _, b := range benches {
		fe := &frontEnd{b: b, code: &core.PrefixMemo{}, sims: &simMemo{}}
		first := len(groups)
		byPrefix := map[core.Config]int{}
		for _, spec := range specs {
			// A journaled cell replays only when it holds every width the
			// spec simulates: the paper grid journals BS+LU4 at width 1,
			// the extension grid at widths 1, 2 and 4.
			e, ok := journaled[b.Name+"\x00"+spec.cfg.Name()]
			for _, w := range spec.issueWidths() {
				ok = ok && e.Widths[w] != nil
			}
			if ok {
				r := cellResult{
					bench: b.Name, cfg: spec.cfg,
					mets: e.Widths, snap: e.Obs,
					attempts: 1, resumed: true,
				}
				finalize(r)
				progress(&r)
				continue
			}
			if len(pre) == 0 || pre[len(pre)-1] != fe {
				pre = append(pre, fe)
			}
			k := spec.cfg.Prefix()
			g, ok := byPrefix[k]
			if !ok {
				g = len(groups)
				byPrefix[k] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], task{fe: fe, spec: spec})
		}
		for _, g := range groups[first:] {
			traced := slices.ContainsFunc(g, func(t task) bool { return t.spec.cfg.Trace })
			if traced && !g[0].spec.cfg.Trace {
				g[0].donor = true
				fe.countEdges = true
			}
		}
	}

	ctx := opt.ctx()
	nw := opt.jobs()
	for w := 0; w < nw; w++ {
		opt.Tracer.NameLane(w, fmt.Sprintf("worker %d", w))
	}

	// Front-end pre-phase: no cell ever waits on another's build. Build
	// errors stay sticky on the frontEnd; each of its cells surfaces the
	// same error.
	forEach(len(pre), nw, func(w, i int) {
		pre[i].get(&obs.Obs{Tracer: opt.Tracer, Lane: w})
	})

	results := make([][]*cellResult, len(groups))
	lanes := make([]lane, nw)
	for w := range lanes {
		lanes[w].id = w
	}
	forEach(len(groups), nw, func(w, g int) {
		for _, t := range groups[g] {
			// A dead run context skips queued cells without starting
			// them: each becomes a canceled CellError so the grid still
			// accounts for every cell and the journal records the
			// interruption.
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
				r = runCellAttempts(ctx, t, pool, opt, &lanes[w])
			}
			journal(r)
			progress(r)
			results[g] = append(results[g], r)
		}
	})
	for i := range lanes {
		lanes[i].release()
	}
	for _, rs := range results {
		for _, r := range rs {
			finalize(*r)
		}
	}
	if snap := eng.Snapshot(); len(snap.Counters) > 0 {
		s.engine = snap
	}

	if err := jw.Close(); err != nil {
		return s, err
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool {
			if failed[a].Bench != failed[b].Bench {
				return failed[a].Bench < failed[b].Bench
			}
			return failed[a].Config < failed[b].Config
		})
		return s, &GridError{Cells: failed}
	}
	return s, nil
}

// RunGrid runs the paper's full 16-configuration grid over the named
// benchmarks (all seventeen when names is empty) on the cell-parallel
// engine. When the grid completes degraded the returned error is a
// *GridError and the Suite is still valid for every healthy cell.
func RunGrid(names []string, opt Options) (*Suite, error) {
	benches, err := pick(names)
	if err != nil {
		return nil, err
	}
	return RunBenchmarksConfigs(benches, Cells(), opt)
}

// RunBenchmarksConfigs runs an explicit configuration set over
// pre-resolved benchmarks, synthetic ones included: generated corpora,
// whose statistics mode trades grid width for corpus size, and the
// fuzzing harness, which wraps random programs in ad-hoc
// workload.Benchmark values and pushes them through the same engine and
// oracle as the paper grid. A degraded run returns a *GridError next to
// a Suite that is valid for every healthy cell.
func RunBenchmarksConfigs(benches []workload.Benchmark, cfgs []core.Config, opt Options) (*Suite, error) {
	specs := make([]cellSpec, 0, len(cfgs))
	for _, cfg := range cfgs {
		specs = append(specs, cellSpec{cfg: cfg})
	}
	return runSuite(benches, specs, opt)
}

// pick resolves benchmark names (every benchmark when names is empty).
// A name given twice is an error: a suite holds one row per benchmark.
func pick(names []string) ([]workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	var out []workload.Benchmark
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("exp: benchmark %q named twice", n)
		}
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
