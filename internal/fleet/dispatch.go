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
	cache     string // worker's X-Cache header
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
// retry/failover/hedge loop over the cell's ring replicas. It never
// panics a grid: when attempts are exhausted or no worker is reachable
// the cell comes back as a structured degraded failure.
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
	for res.attempts < c.cfg.Attempts {
		if err := ctx.Err(); err != nil {
			res.fail = ctxFailure(err, bench, config)
			return res
		}
		now := time.Now()
		// Re-resolve the replica order every attempt, not once per cell:
		// a worker that joins mid-grid starts absorbing failovers (and
		// fresh cells) immediately, and one that leaves stops being a
		// dispatch target the moment the ring drops it.
		order := c.members.replicaWorkers(bench)
		w, next := c.pickFrom(order, rot, now)
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
		if res.attempts >= 1 || w != order[0] {
			if body, label, ok := c.tierLookup(ctx, key); ok {
				res.body, res.worker = body, label
				c.Stats.Inc("fleet/cells_ok")
				return res
			}
		}
		res.attempts++
		rot++
		if res.attempts > 1 {
			c.Stats.Inc("fleet/retries")
			if lastWorker != nil && w != lastWorker {
				c.Stats.Inc("fleet/failovers")
			}
		}
		var o outcome
		if res.attempts == 1 {
			o = c.hedged(ctx, id, w, next, bench, config, verify, deadlineMS, &res.worker)
		} else {
			o = c.attemptOn(ctx, id, w, bench, config, verify, deadlineMS)
			res.worker = w.addr
		}
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
	if body, label, ok := c.tierLookup(ctx, key); ok {
		res.body, res.worker = body, label
		c.Stats.Inc("fleet/cells_ok")
		return res
	}
	c.Stats.Inc("fleet/degraded_cells")
	res.fail = degradedFailure(bench, config, last, "all replicas exhausted")
	return res
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

// hedged runs the cell's first attempt with straggler protection: if the
// primary worker has not answered within HedgeAfter, the same cell is
// dispatched to the next replica and the first result wins. The loser's
// context is canceled; a canceled loser never counts against its
// worker's breaker or health.
func (c *Coordinator) hedged(ctx context.Context, id string, w, next *worker, bench, config string, verify bool, deadlineMS int64, served *string) outcome {
	if c.cfg.HedgeAfter <= 0 || next == nil {
		*served = w.addr
		return c.attemptOn(ctx, id, w, bench, config, verify, deadlineMS)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type legResult struct {
		o     outcome
		hedge bool
		addr  string
	}
	ch := make(chan legResult, 2)
	go func() {
		ch <- legResult{c.attemptOn(actx, id, w, bench, config, verify, deadlineMS), false, w.addr}
	}()
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		*served = r.addr
		return r.o
	case <-timer.C:
	}
	c.Stats.Inc("fleet/hedges")
	c.Log.Debug("hedging straggler cell",
		"request_id", id, "bench", bench, "config", config,
		"primary", w.addr, "hedge", next.addr)
	go func() {
		ch <- legResult{c.attemptOn(actx, id+"-hedge", next, bench, config, verify, deadlineMS), true, next.addr}
	}()
	var first *legResult
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.o.ok {
			if r.hedge {
				c.Stats.Inc("fleet/hedge_wins")
			}
			*served = r.addr
			cancel() // the loser sees a canceled context, which is never a fault
			return r.o
		}
		if first == nil {
			rc := r
			first = &rc
		}
	}
	*served = first.addr
	return first.o
}

// attemptOn dispatches one cell to one worker: breaker admission, the
// bounded in-flight window, the HTTP round trip, and the classification
// that decides retryability and what the worker's breaker, health flag
// and backoff window learn from the outcome.
func (c *Coordinator) attemptOn(ctx context.Context, id string, w *worker, bench, config string, verify bool, deadlineMS int64) outcome {
	now := time.Now()
	if ok, retry := w.brk.Allow(now); !ok {
		c.Stats.Inc("fleet/worker_breaker_rejects")
		return outcome{retryable: true, fail: &server.Failure{
			Status: http.StatusServiceUnavailable, Kind: "worker_breaker_open", Phase: "dispatch",
			Msg: fmt.Sprintf("worker %s circuit breaker open (retry in %s)", w.addr, retry.Round(time.Millisecond)),
		}}
	}
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		w.brk.CancelProbe()
		return outcome{ctxDead: true}
	}
	defer func() { <-w.sem }()

	c.Stats.Inc("fleet/dispatches")
	start := time.Now()
	o := c.roundTrip(ctx, id, w, bench, config, verify, deadlineMS)
	c.Stats.Observe("fleet/dispatch_ms", time.Since(start).Milliseconds())
	return o
}

// roundTrip performs the HTTP exchange and classifies the response.
func (c *Coordinator) roundTrip(ctx context.Context, id string, w *worker, bench, config string, verify bool, deadlineMS int64) outcome {
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
		return outcome{ok: true, body: body, cache: resp.Header.Get("X-Cache")}
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
