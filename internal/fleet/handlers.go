package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// Handler returns the coordinator's route table — deliberately the same
// surface as a worker daemon, so clients need not care which they are
// talking to.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", c.handleCompile)
	mux.HandleFunc("/v1/grid", c.handleGrid)
	mux.HandleFunc("/v1/fleet/join", c.handleJoin)
	mux.HandleFunc("/v1/fleet/leave", c.handleLeave)
	mux.HandleFunc("/v1/fleet/members", c.handleMembers)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/debug/obs", c.handleDebugObs)
	return mux
}

// requestID honors the client's X-Request-Id or mints a sequential one.
func (c *Coordinator) requestID(r *http.Request) string {
	seq := c.reqSeq.Add(1)
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return fmt.Sprintf("c%06d", seq)
}

// requestCtx derives the request's working context: the client deadline
// (bounded by MaxDeadline) layered over the HTTP request context, and
// additionally canceled when the coordinator's base context dies (drain
// deadline).
func (c *Coordinator) requestCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := c.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
		if d > c.cfg.MaxDeadline {
			d = c.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(c.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeFailure renders a structured error document, with a jittered
// Retry-After on the transient kinds a client should come back from.
func (c *Coordinator) writeFailure(w http.ResponseWriter, id string, status int, kind, msg, bench, config, phase string) {
	c.cfg.Logger.Warn("request failed",
		"request_id", id, "kind", kind, "status", status,
		"bench", bench, "config", config, "err", msg)
	body := server.ErrorBody{
		RequestID: id, Kind: kind, Error: msg,
		Bench: bench, Config: config, Phase: phase,
	}
	switch kind {
	case "shed", "draining", "degraded", "worker_unreachable", "no_workers":
		secs := int(server.JitterRetryAfter(time.Second) / time.Second)
		body.RetryAfterS = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, body)
}

// decodeBody decodes under the size limit, mapping oversized bodies to
// a structured 413 like the worker daemon does.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, string, string) {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			c.stats.Inc("fleet/too_large")
			return http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding request: %v", err)
	}
	return 0, "", ""
}

// journalCell records one finished cell with its worker attribution.
func (c *Coordinator) journalCell(id string, dr dispatchResult, dur time.Duration) {
	rec := CellRecord{
		ID: id, Bench: dr.bench, Config: dr.config, Verify: dr.verify,
		Worker: dr.worker, Status: "ok", Attempts: dr.attempts,
		DurationMS: dur.Milliseconds(),
	}
	if dr.fail != nil {
		rec.Status = dr.fail.kind
	} else {
		rec.Body = json.RawMessage(dr.body)
	}
	c.jnl.Append(rec)
}

func (c *Coordinator) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := c.requestID(r)
	w.Header().Set("X-Request-Id", id)
	c.stats.Inc("fleet/requests")
	if r.Method != http.MethodPost {
		c.writeFailure(w, id, http.StatusMethodNotAllowed, "bad_request", "POST only", "", "", "")
		return
	}
	if !c.enter() {
		c.writeFailure(w, id, http.StatusServiceUnavailable, "draining", "coordinator is draining", "", "", "")
		return
	}
	defer c.leave()

	var req server.CompileRequest
	if status, kind, msg := c.decodeBody(w, r, &req); status != 0 {
		c.writeFailure(w, id, status, kind, msg, "", "", "")
		return
	}
	cfg, rerr := validateCell(req.Bench, req.Config)
	if rerr != "" {
		c.writeFailure(w, id, http.StatusBadRequest, "bad_request", rerr, req.Bench, req.Config, "")
		return
	}

	ctx, cancel := c.requestCtx(r, req.DeadlineMS)
	defer cancel()
	dr := c.dispatchCell(ctx, id, req.Bench, cfg.Name(), req.Verify, req.DeadlineMS)
	c.journalCell(id, dr, time.Since(start))
	if dr.fail != nil {
		c.writeFailure(w, id, dr.fail.status, dr.fail.kind, dr.fail.msg, req.Bench, cfg.Name(), dr.fail.phase)
		return
	}
	c.stats.Inc("fleet/ok")
	c.cfg.Logger.Info("compile served",
		"request_id", id, "bench", req.Bench, "config", cfg.Name(),
		"worker", dr.worker, "attempts", dr.attempts,
		"duration_ms", time.Since(start).Milliseconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Served-By", dr.worker)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(dr.body)
}

// validateCell checks a cell's benchmark and configuration, returning
// the parsed config or a message.
func validateCell(bench, config string) (core.Config, string) {
	if _, err := workload.ByName(bench); err != nil {
		return core.Config{}, err.Error()
	}
	cfg, err := core.ParseConfig(config)
	if err != nil {
		return core.Config{}, err.Error()
	}
	return cfg, ""
}

// cellSpec is one grid cell to dispatch.
type cellSpec struct {
	bench  string
	config string
}

type indexedCell struct {
	idx  int
	cell server.GridCell
}

func (c *Coordinator) handleGrid(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := c.requestID(r)
	w.Header().Set("X-Request-Id", id)
	c.stats.Inc("fleet/requests")
	if r.Method != http.MethodPost {
		c.writeFailure(w, id, http.StatusMethodNotAllowed, "bad_request", "POST only", "", "", "")
		return
	}
	if !c.enter() {
		c.writeFailure(w, id, http.StatusServiceUnavailable, "draining", "coordinator is draining", "", "", "")
		return
	}
	defer c.leave()

	var req server.GridRequest
	if status, kind, msg := c.decodeBody(w, r, &req); status != 0 {
		c.writeFailure(w, id, status, kind, msg, "", "", "")
		return
	}
	if len(req.Benches) == 0 {
		c.writeFailure(w, id, http.StatusBadRequest, "bad_request", "no benchmarks requested", "", "", "")
		return
	}
	for _, b := range req.Benches {
		if _, err := workload.ByName(b); err != nil {
			c.writeFailure(w, id, http.StatusBadRequest, "bad_request", err.Error(), b, "", "")
			return
		}
	}
	cfgs := make([]core.Config, 0, len(req.Configs))
	if len(req.Configs) == 0 {
		cfgs = exp.Cells()
	} else {
		for _, name := range req.Configs {
			cfg, err := core.ParseConfig(name)
			if err != nil {
				c.writeFailure(w, id, http.StatusBadRequest, "bad_request", err.Error(), "", name, "")
				return
			}
			cfgs = append(cfgs, cfg)
		}
	}
	specs := make([]cellSpec, 0, len(req.Benches)*len(cfgs))
	for _, b := range req.Benches {
		for _, cfg := range cfgs {
			specs = append(specs, cellSpec{bench: b, config: cfg.Name()})
		}
	}

	stream := streamMode(r)
	ctx, cancel := c.requestCtx(r, req.DeadlineMS)
	defer cancel()

	// All cells dispatch concurrently; each worker's bounded in-flight
	// window is the real throttle, so a grid cannot stampede one worker
	// no matter how wide it is.
	results := make(chan indexedCell)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec cellSpec) {
			defer wg.Done()
			cellStart := time.Now()
			dr := c.dispatchCell(ctx, id, spec.bench, spec.config, req.Verify, req.DeadlineMS)
			c.journalCell(id, dr, time.Since(cellStart))
			results <- indexedCell{i, toGridCell(dr)}
		}(i, spec)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	failed := 0
	if stream != "" {
		c.stats.Inc("fleet/stream_requests")
		failed = c.streamGrid(w, stream, len(specs), results)
	} else {
		cells := make([]server.GridCell, len(specs))
		for ic := range results {
			cells[ic.idx] = ic.cell
		}
		for _, cell := range cells {
			if cell.Error != "" {
				failed++
			}
		}
		writeJSON(w, http.StatusOK, server.GridResponse{Cells: cells})
	}
	c.stats.Inc("fleet/ok")
	c.cfg.Logger.Info("grid served",
		"request_id", id, "cells", len(specs), "failed", failed,
		"stream", stream, "duration_ms", time.Since(start).Milliseconds())
}

// streamMode decides the grid response framing: "" buffers, "jsonl"
// streams ndjson lines, "sse" streams server-sent events.
func streamMode(r *http.Request) string {
	switch s := r.URL.Query().Get("stream"); s {
	case "jsonl", "sse":
		return s
	}
	switch r.Header.Get("Accept") {
	case "application/x-ndjson":
		return "jsonl"
	case "text/event-stream":
		return "sse"
	}
	return ""
}

func toGridCell(dr dispatchResult) server.GridCell {
	cell := server.GridCell{Bench: dr.bench, Config: dr.config}
	if dr.fail != nil {
		cell.Error, cell.Kind, cell.Phase = dr.fail.msg, dr.fail.kind, dr.fail.phase
		return cell
	}
	var doc server.ResultDoc
	if err := json.Unmarshal(dr.body, &doc); err != nil {
		cell.Error, cell.Kind = err.Error(), "fault"
		return cell
	}
	cell.Metrics = doc.Metrics
	return cell
}

// gridSummary is the final frame of a streamed grid response.
type gridSummary struct {
	Done   bool `json:"done"`
	Cells  int  `json:"cells"`
	Failed int  `json:"failed"`
}

// streamGrid writes each cell as it completes — chunked JSONL or SSE —
// flushing per cell so a client watching a million-cell grid sees
// results immediately instead of after the slowest cell. The final
// frame is a summary. Returns the failed-cell count.
func (c *Coordinator) streamGrid(w http.ResponseWriter, mode string, total int, results <-chan indexedCell) int {
	flusher, _ := w.(http.Flusher)
	if mode == "sse" {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	failed := 0
	emit := func(event string, v any) {
		if mode == "sse" {
			fmt.Fprintf(w, "event: %s\ndata: ", event)
			_ = enc.Encode(v)
			io.WriteString(w, "\n")
		} else {
			_ = enc.Encode(v)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	for ic := range results {
		if ic.cell.Error != "" {
			failed++
		}
		emit("cell", ic.cell)
	}
	emit("done", gridSummary{Done: true, Cells: total, Failed: failed})
	return failed
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// workerStatus is one worker's live view in /readyz and /debug/obs.
type workerStatus struct {
	Healthy    bool   `json:"healthy"`
	Breaker    string `json:"breaker"`
	Inflight   int    `json:"inflight"`
	BackoffMS  int64  `json:"backoff_ms,omitempty"`
	ProbeFails int64  `json:"probe_fails,omitempty"`
}

func (c *Coordinator) workerStatuses() map[string]workerStatus {
	now := time.Now()
	members := c.members.all()
	out := make(map[string]workerStatus, len(members))
	for _, w := range members {
		st := workerStatus{
			Healthy:    w.healthy.Load(),
			Breaker:    server.BreakerStateName(w.brk.State()),
			Inflight:   len(w.sem),
			ProbeFails: w.probeFails.Load(),
		}
		if until := w.backoffUntil.Load(); until > now.UnixNano() {
			st.BackoffMS = (until - now.UnixNano()) / int64(time.Millisecond)
		}
		out[w.addr] = st
	}
	return out
}

// handleReadyz is quorum-aware: the coordinator is ready only while at
// least MinWorkers members are healthy. Below quorum it answers 503 and
// the body names the down workers, so an operator (or a load balancer's
// failure page) sees who to revive without grepping logs.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := c.isDraining()
	healthy := c.healthyCount()
	ready := !draining && healthy >= c.cfg.MinWorkers
	body := map[string]any{
		"ready":           ready,
		"draining":        draining,
		"workers_healthy": healthy,
		"min_workers":     c.cfg.MinWorkers,
		"epoch":           c.members.generation(),
		"workers":         c.workerStatuses(),
	}
	if down := c.downWorkers(); len(down) > 0 {
		body["down_workers"] = down
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// fleetChangeRequest is the body of /v1/fleet/join and /v1/fleet/leave.
type fleetChangeRequest struct {
	Addr string `json:"addr"`
}

// handleJoin admits a worker into the running fleet. The reply reports
// whether the address was newly admitted (joined=false means it was
// already a member — the call is idempotent), its initial health, and
// the resulting roster size and membership epoch.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	id := c.requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		c.writeFailure(w, id, http.StatusMethodNotAllowed, "bad_request", "POST only", "", "", "")
		return
	}
	var req fleetChangeRequest
	if status, kind, msg := c.decodeBody(w, r, &req); status != 0 {
		c.writeFailure(w, id, status, kind, msg, "", "", "")
		return
	}
	joined, healthy, err := c.Join(req.Addr)
	if err != nil {
		status, kind := http.StatusBadRequest, "bad_request"
		if c.isDraining() {
			status, kind = http.StatusServiceUnavailable, "draining"
		}
		c.writeFailure(w, id, status, kind, err.Error(), "", "", "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"joined":  joined,
		"worker":  req.Addr,
		"healthy": healthy,
		"workers": c.members.size(),
		"epoch":   c.members.generation(),
	})
}

// handleLeave removes a worker from the running fleet: its probe loop
// stops, new cells stop routing to it immediately, and cells already in
// flight on it drain to completion.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := c.requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		c.writeFailure(w, id, http.StatusMethodNotAllowed, "bad_request", "POST only", "", "", "")
		return
	}
	var req fleetChangeRequest
	if status, kind, msg := c.decodeBody(w, r, &req); status != 0 {
		c.writeFailure(w, id, status, kind, msg, "", "", "")
		return
	}
	if !c.Leave(req.Addr) {
		c.writeFailure(w, id, http.StatusNotFound, "bad_request",
			fmt.Sprintf("worker %q is not a fleet member", req.Addr), "", "", "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"left":    req.Addr,
		"workers": c.members.size(),
		"epoch":   c.members.generation(),
	})
}

// handleMembers reports the current roster with live status.
func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": c.workerStatuses(),
		"epoch":   c.members.generation(),
		"healthy": c.healthyCount(),
	})
}

// gauges is the coordinator's point-in-time gauge set — the one list
// both /metrics and /debug/obs render (per-worker series ride next to it
// on /metrics, and as the workers section of /debug/obs).
func (c *Coordinator) gauges() map[string]int64 {
	draining := int64(0)
	if c.isDraining() {
		draining = 1
	}
	return map[string]int64{
		"fleet_workers":         int64(c.members.size()),
		"fleet_workers_healthy": int64(c.healthyCount()),
		"fleet_min_workers":     int64(c.cfg.MinWorkers),
		"fleet_epoch":           int64(c.members.generation()),
		"fleet_cache_entries":   int64(c.tier.Len()),
		"draining":              draining,
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.stats.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w, c.cfg.MetricsPrefix); err != nil {
		return
	}
	now := time.Now()
	gw := obs.NewGaugeWriter(w)
	gw.Gauges(c.cfg.MetricsPrefix, c.gauges())
	for _, wk := range c.members.all() {
		label := map[string]string{"worker": wk.addr}
		healthy := int64(0)
		if wk.healthy.Load() {
			healthy = 1
		}
		gw.Gauge(c.cfg.MetricsPrefix+"fleet_worker_healthy", label, healthy)
		gw.Gauge(c.cfg.MetricsPrefix+"fleet_worker_inflight", label, int64(len(wk.sem)))
		gw.Gauge(c.cfg.MetricsPrefix+"fleet_worker_breaker_state", label, int64(wk.brk.State()))
		backoff := int64(0)
		if until := wk.backoffUntil.Load(); until > now.UnixNano() {
			backoff = (until - now.UnixNano()) / int64(time.Millisecond)
		}
		gw.Gauge(c.cfg.MetricsPrefix+"fleet_worker_backoff_ms", label, backoff)
	}
}

// debugObsDoc is /debug/obs on the coordinator: the shared daemon
// section (dispatch counter registry, fleet gauges, runtime sample) plus
// per-worker status.
type debugObsDoc struct {
	obs.DebugDoc
	Workers map[string]workerStatus `json:"workers"`
}

func (c *Coordinator) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, debugObsDoc{
		DebugDoc: obs.NewDebugDoc(c.stats, c.gauges()),
		Workers:  c.workerStatuses(),
	})
}
