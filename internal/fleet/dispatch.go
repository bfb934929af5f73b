package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// outcome is one attempt's (or one whole dispatch's) result. A failure
// is the worker protocol's, relayed, or the coordinator's own
// dispatch-phase kinds: worker_breaker_open, worker_unreachable,
// degraded, timeout and canceled.
type outcome struct {
	ok        bool
	body      []byte // ResultDoc bytes when ok
	fail      *server.Failure
	retryable bool
	ctxDead   bool // the attempt died of context cancel/expiry, not the worker
}

// dispatchResult is a finished cell: its body or failure, plus the
// attribution the journal records.
type dispatchResult struct {
	bench, config string
	verify        bool
	body          []byte
	worker        string // serving worker addr; "resume" for journal replays
	attempts      int
	fail          *server.Failure
}

// dispatchCell routes one cell to the fleet: resume-cache hit, or the
// retry/failover loop over the cell's replica order. It allows
// max(3, 2 × members) attempts, re-read from the roster on every
// attempt, so joins, leaves and evictions resize the budget of cells
// already in flight. It never panics a grid: when attempts are
// exhausted or no worker is reachable the cell comes back as a
// structured degraded failure.
func (c *Coordinator) dispatchCell(ctx context.Context, id, bench, config string, verify bool, deadlineMS int64) dispatchResult {
	res := dispatchResult{bench: bench, config: config, verify: verify}
	key := server.CellKey(bench, config, verify)
	if body, ok := c.resumed[key]; ok {
		c.Stats.Inc("fleet/resume_hits")
		c.promote(key, body)
		res.body, res.worker = body, "resume"
		return res
	}

	backoff := c.cfg.RetryBackoff
	var last *server.Failure
	var lastWorker *worker
	rot := 0
	for res.attempts < max(3, 2*c.members.size()) {
		if err := ctx.Err(); err != nil {
			res.fail = ctxFailure(err, bench, config)
			return res
		}
		now := time.Now()
		// Re-resolve the replica order every attempt, not once per cell:
		// a worker that joins mid-grid starts absorbing failovers (and
		// fresh cells) immediately, and one that leaves stops being a
		// dispatch target the moment it leaves the member set.
		order := c.members.replicaWorkers(bench)
		w := c.pickFrom(order, rot, now)
		if w == nil {
			// Nothing dispatchable right now. A fully dead fleet degrades
			// immediately; workers that are merely shedding (Retry-After)
			// get their window honored before the next look.
			if c.healthyCount() == 0 {
				c.Stats.Inc("fleet/degraded_cells")
				res.fail = degradedFailure(bench, config, last, "no healthy workers")
				return res
			}
			c.Stats.Inc("fleet/backoff_waits")
			if !sleepCtx(ctx, jitterDur(backoff)) {
				res.fail = ctxFailure(ctx.Err(), bench, config)
				return res
			}
			backoff = growBackoff(backoff)
			continue
		}
		// Failover path: before recomputing the cell on a non-primary
		// worker (or on any retry), consult the shared cache tier — the
		// primary may already have served these exact bytes before dying.
		if (res.attempts >= 1 || w != order[0]) && c.serveFromTier(key, &res) {
			return res
		}
		res.attempts++
		rot++
		if res.attempts > 1 {
			c.Stats.Inc("fleet/retries")
			if lastWorker != nil && w != lastWorker {
				c.Stats.Inc("fleet/failovers")
			}
		}
		o := c.attemptOn(ctx, id, w, bench, config, verify, deadlineMS)
		res.worker = w.addr
		if o.ok {
			res.body = o.body
			c.promote(key, o.body)
			c.Stats.Inc("fleet/cells_ok")
			return res
		}
		lastWorker = w
		if o.ctxDead {
			res.fail = ctxFailure(ctx.Err(), bench, config)
			return res
		}
		last = o.fail
		if !o.retryable {
			res.fail = o.fail
			return res
		}
		if !sleepCtx(ctx, jitterDur(backoff)) {
			res.fail = ctxFailure(ctx.Err(), bench, config)
			return res
		}
		backoff = growBackoff(backoff)
	}
	// Attempts exhausted: the tier is the last stop before degrading.
	if c.serveFromTier(key, &res) {
		return res
	}
	c.Stats.Inc("fleet/degraded_cells")
	res.fail = degradedFailure(bench, config, last, "all replicas exhausted")
	return res
}

// promote records a served cell's bytes in the shared tier. An empty
// body is never cached.
func (c *Coordinator) promote(key string, body []byte) {
	if len(body) > 0 {
		c.tier.Add(key, body)
	}
}

// serveFromTier is the failover path's recompute-avoidance check: a
// cell this coordinator has served before is answered from its tier,
// attributed to "fleet-cache". It counts a hit or a miss and reports
// whether res was served.
func (c *Coordinator) serveFromTier(key string, res *dispatchResult) bool {
	body, ok := c.tier.Get(key)
	if !ok {
		c.Stats.Inc("fleet/cache_misses")
		return false
	}
	c.Stats.Inc("fleet/cache_hits")
	c.Stats.Inc("fleet/cells_ok")
	res.body, res.worker = body, "fleet-cache"
	return true
}

func growBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func ctxFailure(err error, bench, config string) *server.Failure {
	if errors.Is(err, context.DeadlineExceeded) {
		return &server.Failure{
			Status: http.StatusGatewayTimeout, Kind: "timeout", Phase: "dispatch",
			Msg: fmt.Sprintf("deadline exceeded dispatching %s/%s", bench, config),
		}
	}
	return &server.Failure{
		Status: http.StatusServiceUnavailable, Kind: "canceled", Phase: "dispatch",
		Msg: fmt.Sprintf("request canceled dispatching %s/%s", bench, config),
	}
}

// degradedFailure is a cell no replica could serve. It is the one
// dispatch failure a client is told to come back from: relayed shed,
// draining and unreachable failures are retried here until they end as
// degraded.
func degradedFailure(bench, config string, last *server.Failure, why string) *server.Failure {
	msg := fmt.Sprintf("%s for %s/%s", why, bench, config)
	if last != nil {
		msg += ": last error: " + last.Msg
	}
	return &server.Failure{
		Status: http.StatusServiceUnavailable, Kind: "degraded", Phase: "dispatch", Msg: msg,
		RetryAfter: server.JitterRetryAfter(time.Second),
	}
}

// errProbeUnanswered is the transport failure of an attempt that the
// worker's liveness context ended.
var errProbeUnanswered = errors.New("health probe unanswered; in-flight attempt abandoned")

// attemptOn dispatches one cell to one worker: breaker admission, then
// the round trip under a context that ends with the request or with the
// worker's liveness, whichever goes first. An attempt that the liveness
// context ends while the request still lives is the worker's transport
// failure, so the retry loop fails the cell over at once.
func (c *Coordinator) attemptOn(ctx context.Context, id string, w *worker, bench, config string, verify bool, deadlineMS int64) outcome {
	if ok, retry := w.brk.Allow(time.Now()); !ok {
		c.Stats.Inc("fleet/worker_breaker_rejects")
		return outcome{retryable: true, fail: &server.Failure{
			Status: http.StatusServiceUnavailable, Kind: "worker_breaker_open", Phase: "dispatch",
			Msg: fmt.Sprintf("worker %s circuit breaker open (retry in %s)", w.addr, retry.Round(time.Millisecond)),
		}}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(w.liveCtx(), cancel)()
	o := c.roundTrip(actx, id, w, bench, config, verify, deadlineMS)
	if o.ctxDead && ctx.Err() == nil {
		return c.transportFailure(w, bench, config, errProbeUnanswered)
	}
	return o
}

// roundTrip waits for a slot in the worker's bounded in-flight window,
// performs the HTTP exchange and classifies the response: retryability,
// and what the worker's breaker, health flag and backoff window learn
// from it.
func (c *Coordinator) roundTrip(ctx context.Context, id string, w *worker, bench, config string, verify bool, deadlineMS int64) outcome {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		w.brk.CancelProbe()
		return outcome{ctxDead: true}
	}
	defer func() { <-w.sem }()
	c.Stats.Inc("fleet/dispatches")
	defer func(start time.Time) {
		c.Stats.Observe("fleet/dispatch_ms", time.Since(start).Milliseconds())
	}(time.Now())

	// The chaos drills sever specific coordinator→worker links here,
	// upstream of the real transport.
	if err := faultinject.Hit("fleet/dispatch", w.addr+"|"+bench); err != nil {
		return c.transportFailure(w, bench, config, err)
	}
	reqBody, err := json.Marshal(server.CompileRequest{
		Bench: bench, Config: config, Verify: verify, DeadlineMS: deadlineMS,
	})
	if err != nil {
		return outcome{fail: &server.Failure{Status: http.StatusInternalServerError, Kind: "fault", Msg: err.Error()}}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/compile", bytes.NewReader(reqBody))
	if err != nil {
		return outcome{fail: &server.Failure{Status: http.StatusInternalServerError, Kind: "fault", Msg: err.Error()}}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)

	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancel or deadline, not the worker's fault.
			w.brk.CancelProbe()
			return outcome{ctxDead: true}
		}
		return c.transportFailure(w, bench, config, err)
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, c.MaxBodyBytes()))
	resp.Body.Close()
	if rerr != nil {
		if ctx.Err() != nil {
			w.brk.CancelProbe()
			return outcome{ctxDead: true}
		}
		return c.transportFailure(w, bench, config, rerr)
	}

	// Any complete HTTP exchange proves the worker process alive, so the
	// worker-level breaker records success even for structured errors —
	// those speak to the cell or the worker's load, not its liveness.
	w.brk.Success()

	if resp.StatusCode == http.StatusOK {
		return outcome{ok: true, body: body}
	}

	var eb server.ErrorBody
	_ = json.Unmarshal(body, &eb)
	if eb.Kind == "" {
		eb.Kind = "fault"
		eb.Error = fmt.Sprintf("worker %s: status %d", w.addr, resp.StatusCode)
	}
	fail := &server.Failure{Status: resp.StatusCode, Kind: eb.Kind, Msg: eb.Error, Phase: eb.Phase}

	switch eb.Kind {
	case "shed", "draining":
		// The worker is protecting itself; honor its Retry-After window
		// fleet-wide instead of hammering it from the retry loop.
		if d := retryAfterHint(resp, eb); d > 0 {
			w.backOff(time.Now(), d)
			c.Stats.Inc("fleet/retry_after_honored")
		}
		if eb.Kind == "draining" {
			w.healthy.Store(false)
		}
		return outcome{retryable: true, fail: fail}
	case "breaker_open", "fault", "verify":
		// Per-benchmark trouble on this worker; another replica may have
		// a healthy pipeline (or a cached result) for the same cell.
		return outcome{retryable: true, fail: fail}
	case "timeout", "canceled":
		if ctx.Err() != nil {
			return outcome{ctxDead: true}
		}
		return outcome{retryable: true, fail: fail}
	default: // bad_request, too_large: deterministic, no point failing over
		return outcome{retryable: false, fail: fail}
	}
}

// transportFailure records a dispatch-level failure: the worker could
// not complete an HTTP exchange, so it is marked unhealthy immediately
// (the probe loop will bring it back) and its breaker counts the fault.
func (c *Coordinator) transportFailure(w *worker, bench, config string, err error) outcome {
	c.Stats.Inc("fleet/worker_errors")
	w.healthy.Store(false)
	if w.brk.Failure(time.Now()) {
		c.Stats.Inc("fleet/worker_breaker_opens")
	}
	c.Log.Warn("worker dispatch failed",
		"worker", w.addr, "bench", bench, "config", config, "err", err)
	return outcome{retryable: true, fail: &server.Failure{
		Status: http.StatusServiceUnavailable, Kind: "worker_unreachable", Phase: "dispatch",
		Msg: fmt.Sprintf("worker %s: %v", w.addr, err),
	}}
}

// retryAfterHint extracts the worker's Retry-After hint from the header
// or the structured error body.
func retryAfterHint(resp *http.Response, eb server.ErrorBody) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	if eb.RetryAfterS > 0 {
		return time.Duration(eb.RetryAfterS) * time.Second
	}
	return 0
}
