// Package fleet is bschedd's coordinator mode: one process that shards
// /v1/grid cells across a fleet of worker daemons and keeps serving
// while workers die, join and leave. It is the distributed analogue of
// the paper's balanced-scheduling insight — spread work to where the
// latency estimates say capacity is — applied to processes instead of
// functional units:
//
//   - Sharding: cells route by rendezvous hash on benchmark name, so
//     all configurations of a benchmark land on the same worker and its
//     per-benchmark front-end and result caches stay hot. The members'
//     scores for a benchmark, highest first, are each cell's
//     deterministic failover order.
//   - Membership: the fleet is elastic. Workers join via POST
//     /v1/fleet/join (probed synchronously, taking new cells within one
//     probe interval), leave via POST /v1/fleet/leave (in-flight cells
//     drain, new cells stop routing at once), and are evicted after
//     sustained probe failure. Placement is derived from the member set,
//     so a membership change moves only ~1/n of the keyspace — every
//     other benchmark keeps its worker, and that worker keeps its hot
//     caches.
//   - Health: every member is probed via GET /readyz on its own loop —
//     steady cadence while healthy, exponential backoff while down —
//     and dispatch-time transport failures mark a worker unhealthy
//     immediately rather than waiting for the next probe. A probe loop
//     lives exactly as long as its worker's membership. A probe that
//     gets no HTTP answer at all also ends every attempt in flight on
//     that worker, so the cells of a frozen but still connected worker
//     (one under SIGSTOP, say) fail over within one probe interval plus
//     the probe timeout instead of hanging until the request deadline.
//     Any answer, even a 503 from a draining worker, keeps in-flight
//     work running.
//   - Robustness: per-cell retry with jittered backoff fails over to
//     the next healthy worker in the cell's order, up to max(3, 2 ×
//     members) attempts read from the current roster, so a fleet grown
//     by joins can reach every replica; a worker-level circuit
//     breaker (layered on the workers' own per-benchmark breakers)
//     stops hammering a sick worker; 429/503 Retry-After hints from
//     shedding or draining workers are honored as per-worker backoff
//     windows. When every replica is exhausted a cell degrades to a
//     structured error entry — a grid response never fails whole.
//   - Shared cache tier: every served cell's bytes are promoted into a
//     coordinator-side server.Results store, never evicted (every key
//     has passed server.ParseCell), and a failover consults that tier
//     before recomputing, so a worker death stops costing recomputation
//     of everything it had already served. A cell the tier misses goes
//     to the next replica, which answers from its own result store when
//     it has the cell. Cached bytes are byte-identical to cold bytes
//     (the documents are deterministic), so the tier never changes a
//     response.
//   - Streaming: /v1/grid?stream=jsonl (or sse) emits each cell as it
//     completes instead of buffering the whole grid; the buffered
//     default stays byte-identical to a single-node bschedd response.
//   - Durability: every finished cell is appended to a JSONL journal
//     recording which worker served it; -resume replays completed cells
//     through the same torn-tail-tolerant reader as every other journal
//     in the system, across topology changes.
//   - Drain: SIGTERM stops intake, finishes or cancels in-flight cells
//     on the workers (by canceling the dispatch requests), flushes the
//     journal and exits 0.
package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config parameterizes a Coordinator. The zero value of every field but
// Workers gets a sensible default from New; the deadline, body-limit and
// logger defaults are the server.Daemon's, shared with the worker.
type Config struct {
	// Workers are the initial worker daemons' host:port addresses. At
	// least one is required at startup; the fleet is elastic afterwards
	// (POST /v1/fleet/join and /v1/fleet/leave).
	Workers []string
	// RetryBackoff is the base jittered backoff between a cell's
	// attempts; it doubles per retry up to 2s. Default 50ms.
	RetryBackoff time.Duration
	// ProbeInterval is the /readyz health-check cadence for a healthy
	// worker. Default 500ms. ProbeInterval + ProbeTimeout bounds how long
	// the in-flight cells of a frozen worker wait before they fail over.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health-check request. Default 1s. A probe
	// it cuts short, like one refused outright, ends every attempt in
	// flight on the worker.
	ProbeTimeout time.Duration
	// EvictAfterFails removes a worker from the fleet after this many
	// consecutive failed health probes (its probe loop stops, its keys
	// remap to the survivors). 0 disables eviction — dead workers stay
	// on the roster and are probed back into rotation if they revive.
	// The last member is never auto-evicted. Default 0.
	EvictAfterFails int
	// MinWorkers is the readiness quorum: /readyz answers 503 (naming
	// the down workers) while fewer than this many members are healthy.
	// Default 1.
	MinWorkers int
	// BreakerThreshold is the consecutive transport-level failures that
	// open a worker's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open worker breaker waits before a
	// half-open probe dispatch. Default 5s.
	BreakerCooldown time.Duration
	// DefaultDeadline is the per-request deadline when the client sets
	// none. Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// MaxBodyBytes caps request-body size (413 beyond it). Default 1 MiB.
	MaxBodyBytes int64
	// Journal, when non-empty, is the coordinator's JSONL cell journal:
	// every finished cell is appended with the worker that served it.
	Journal string
	// Resume preloads completed cells from Journal, so a restarted
	// coordinator replays them without dispatching — even when the
	// worker set has changed since they were served.
	Resume bool
	// Logger receives structured logs. Nil discards.
	Logger *slog.Logger
}

const (
	// inflight bounds concurrently dispatched cells per worker — the
	// window that keeps one slow worker from absorbing a whole grid.
	inflight = 8
	// probeMaxInterval caps the exponential probe backoff for an
	// unhealthy worker.
	probeMaxInterval = 8 * time.Second
)

// worker is the coordinator's view of one worker daemon.
type worker struct {
	addr string
	base string // "http://" + addr

	// brk is the worker-level circuit breaker: transport failures
	// (connection refused, resets, torn responses) trip it; any complete
	// HTTP response — even a 429 — proves the worker alive and closes it.
	brk *server.Breaker
	// sem is the bounded in-flight window.
	sem chan struct{}
	// healthy mirrors the last /readyz probe or dispatch outcome.
	healthy atomic.Bool
	// backoffUntil (unix nanos) honors the worker's Retry-After hints:
	// no new dispatches route to the worker before it.
	backoffUntil atomic.Int64
	// probeFails counts consecutive failed health probes.
	probeFails atomic.Int64
	// live is the context every dispatch to the worker runs under. The
	// probe loop cancels it (liveLost) when a /readyz probe gets no
	// answer and renews it only once a probe is answered again, so a
	// dispatch that starts in between fails at once.
	liveMu   sync.Mutex
	live     context.Context
	liveLost context.CancelFunc
	// stop ends the worker's probe loop when it leaves or is evicted;
	// stopOnce makes Leave and eviction race-safe.
	stop     chan struct{}
	stopOnce sync.Once
}

func (w *worker) stopProbe() { w.stopOnce.Do(func() { close(w.stop) }) }

// liveCtx returns the worker's current liveness context.
func (w *worker) liveCtx() context.Context {
	w.liveMu.Lock()
	defer w.liveMu.Unlock()
	return w.live
}

// probed records whether a /readyz probe got an HTTP answer: no answer
// cancels the liveness context, and an answer renews a canceled one.
func (w *worker) probed(answered bool) {
	w.liveMu.Lock()
	defer w.liveMu.Unlock()
	switch {
	case !answered:
		w.liveLost()
	case w.live.Err() != nil:
		w.live, w.liveLost = context.WithCancel(context.Background())
	}
}

func (w *worker) backedOff(now time.Time) bool {
	return now.UnixNano() < w.backoffUntil.Load()
}

// backOff extends the worker's Retry-After window to now+d (never
// shrinking a longer window).
func (w *worker) backOff(now time.Time, d time.Duration) {
	until := now.Add(d).UnixNano()
	for {
		cur := w.backoffUntil.Load()
		if until <= cur || w.backoffUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Coordinator shards grid cells across an elastic worker fleet. Create
// with New; its embedded server.Daemon runs the request lifecycle, the
// cell journal and the drain, exactly as a worker's does.
type Coordinator struct {
	*server.Daemon
	cfg     Config
	members *membership
	// tier is the shared result cache: every served cell's bytes, keyed
	// by server.CellKey. The documents are deterministic, so a tier hit
	// is byte-identical to a cold recompute.
	tier    server.Results
	client  *http.Client
	resumed map[string][]byte

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
}

// New builds a coordinator over cfg.Workers and starts the health-probe
// loops. It returns an error when no workers are configured or the
// journal cannot be opened or resumed.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.EvictAfterFails < 0 {
		cfg.EvictAfterFails = 0
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}

	d, err := server.NewDaemon("fleet", "c", cfg.Journal, cfg.DefaultDeadline, cfg.MaxDeadline, cfg.MaxBodyBytes, cfg.Logger)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Daemon:  d,
		cfg:     cfg,
		members: newMembership(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: inflight + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	// abandon closes the journal of a coordinator that fails to start;
	// err is the failure to report, not the journal's.
	abandon := func(err error) (*Coordinator, error) {
		_ = d.Drain(context.Background())
		return nil, err
	}
	if cfg.Resume && cfg.Journal != "" {
		if c.resumed, err = loadResume(cfg.Journal); err != nil {
			return abandon(err)
		}
	}
	for _, addr := range cfg.Workers {
		if err := validateWorkerAddr(addr); err != nil {
			return abandon(err)
		}
		w := c.newWorker(addr)
		// Workers start optimistically healthy: the first dispatch or the
		// first probe corrects the guess, and starting pessimistic would
		// reject the first grid to arrive before the probe loop's first
		// round trip.
		w.healthy.Store(true)
		if !c.members.add(w) {
			return abandon(fmt.Errorf("fleet: duplicate worker address %q", addr))
		}
	}
	c.probeCtx, c.probeCancel = context.WithCancel(context.Background())
	for _, w := range c.members.all() {
		c.startProbe(w)
	}
	if len(c.resumed) > 0 {
		c.Log.Info("resume loaded", "cells", len(c.resumed), "journal", cfg.Journal)
	}
	return c, nil
}

// probeLoop health-checks one worker until it leaves the fleet or the
// coordinator drains: steady ProbeInterval cadence while the worker
// answers /readyz 200, exponential backoff up to probeMaxInterval while
// it does not, eviction after EvictAfterFails consecutive failures.
// Whether a probe was answered at all sets the worker's liveness.
func (c *Coordinator) probeLoop(w *worker) {
	defer c.probeWG.Done()
	interval := c.cfg.ProbeInterval
	for {
		timer := time.NewTimer(jitterDur(interval))
		select {
		case <-timer.C:
		case <-w.stop:
			timer.Stop()
			return
		case <-c.probeCtx.Done():
			timer.Stop()
			return
		}
		c.Stats.Inc("fleet/probes")
		answered, ready := c.probeOnce(w)
		if c.probeCtx.Err() != nil {
			return // cut short by the coordinator's drain: no verdict
		}
		w.probed(answered)
		if ready {
			w.probeFails.Store(0)
			if !w.healthy.Swap(true) {
				c.Stats.Inc("fleet/worker_up")
				c.Log.Info("worker recovered", "worker", w.addr)
			}
			interval = c.cfg.ProbeInterval
		} else {
			fails := w.probeFails.Add(1)
			if w.healthy.Swap(false) {
				c.Stats.Inc("fleet/worker_down")
				c.Log.Warn("worker unhealthy", "worker", w.addr)
			}
			if c.cfg.EvictAfterFails > 0 && fails >= int64(c.cfg.EvictAfterFails) && c.evict(w) {
				return
			}
			interval *= 2
			if interval > probeMaxInterval {
				interval = probeMaxInterval
			}
		}
	}
}

// probeOnce asks one worker for readiness. answered reports whether any
// HTTP response came back within ProbeTimeout; ready whether it was a
// 200 — a draining or breaker-saturated worker answers 503 and takes no
// new cells until it recovers, but its in-flight cells run on.
func (c *Coordinator) probeOnce(w *worker) (answered, ready bool) {
	ctx, cancel := context.WithTimeout(c.probeCtx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return false, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return true, resp.StatusCode == http.StatusOK
}

// healthyCount reports how many members currently look dispatchable.
func (c *Coordinator) healthyCount() int {
	n := 0
	for _, w := range c.members.all() {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// downWorkers lists the members that are currently unhealthy, sorted.
func (c *Coordinator) downWorkers() []string {
	var out []string
	for _, w := range c.members.all() {
		if !w.healthy.Load() {
			out = append(out, w.addr)
		}
	}
	return out
}

// pickFrom returns the first eligible worker scanning the cell's replica
// order from rotation offset rot: healthy and not inside a Retry-After
// window.
func (c *Coordinator) pickFrom(order []*worker, rot int, now time.Time) *worker {
	for i := 0; i < len(order); i++ {
		if w := order[(rot+i)%len(order)]; w.healthy.Load() && !w.backedOff(now) {
			return w
		}
	}
	return nil
}

// Drain gracefully shuts the coordinator down: stop probing, then the
// Daemon's drain — stop admitting, let in-flight grids finish (when ctx
// expires first, their worker dispatches are canceled so they finish
// promptly with degraded cells), flush and close the cell journal — and
// wait for the probe loops to exit. The returned error is the
// journal's.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.probeCancel()
	err := c.Daemon.Drain(ctx)
	c.probeWG.Wait()
	return err
}

// jitterDur spreads d over [0.75d, 1.25d) so fleet-wide timers (probes,
// retries) do not synchronize.
func jitterDur(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d - d/4 + rand.N(d/2+1)
}

// sleepCtx sleeps for d or until ctx dies; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
