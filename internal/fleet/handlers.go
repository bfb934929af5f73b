package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
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
	mux.HandleFunc("/healthz", c.HandleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/debug/obs", c.handleDebugObs)
	return mux
}

// journalCell records one finished cell with its worker attribution.
func (c *Coordinator) journalCell(id string, dr dispatchResult, dur time.Duration) {
	rec := CellRecord{
		ID: id, Bench: dr.bench, Config: dr.config, Verify: dr.verify,
		Worker: dr.worker, Status: "ok", Attempts: dr.attempts,
		DurationMS: dur.Milliseconds(),
	}
	if dr.fail != nil {
		rec.Status = dr.fail.Kind
	} else {
		rec.Body = json.RawMessage(dr.body)
	}
	c.Journal(rec)
}

func (c *Coordinator) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, _ := c.RequestID(w, r)
	if !c.Enter(w, r, id) {
		return
	}
	defer c.Exit()

	var req server.CompileRequest
	if f := c.Decode(w, r, &req); f != nil {
		c.Fail(w, id, f)
		return
	}
	cfg, f := server.ParseCell(req.Bench, req.Config)
	if f != nil {
		c.Fail(w, id, f)
		return
	}

	ctx, cancel := c.RequestContext(r, req.DeadlineMS)
	defer cancel()
	dr := c.dispatchCell(ctx, id, req.Bench, cfg.Name(), req.Verify, req.DeadlineMS)
	c.journalCell(id, dr, time.Since(start))
	if dr.fail != nil {
		dr.fail.Bench, dr.fail.Config = req.Bench, cfg.Name()
		c.Fail(w, id, dr.fail)
		return
	}
	c.Stats.Inc("fleet/ok")
	c.Log.Info("compile served",
		"request_id", id, "bench", req.Bench, "config", cfg.Name(),
		"worker", dr.worker, "attempts", dr.attempts,
		"duration_ms", time.Since(start).Milliseconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Served-By", dr.worker)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(dr.body)
}

type indexedCell struct {
	idx  int
	cell server.GridCell
}

func (c *Coordinator) handleGrid(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, _ := c.RequestID(w, r)
	if !c.Enter(w, r, id) {
		return
	}
	defer c.Exit()

	var req server.GridRequest
	var cfgs []core.Config
	f := c.Decode(w, r, &req)
	if f == nil {
		cfgs, f = server.ParseGrid(req)
	}
	if f != nil {
		c.Fail(w, id, f)
		return
	}
	total := len(req.Benches) * len(cfgs)

	stream := streamMode(r)
	ctx, cancel := c.RequestContext(r, req.DeadlineMS)
	defer cancel()

	// All cells dispatch concurrently; each worker's bounded in-flight
	// window is the real throttle, so a grid cannot stampede one worker
	// no matter how wide it is. Cell i is benchmark i/len(cfgs) under
	// configuration i%len(cfgs), the single-node response's order.
	results := make(chan indexedCell)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cellStart := time.Now()
			dr := c.dispatchCell(ctx, id, req.Benches[i/len(cfgs)], cfgs[i%len(cfgs)].Name(), req.Verify, req.DeadlineMS)
			c.journalCell(id, dr, time.Since(cellStart))
			results <- indexedCell{i, server.NewGridCell(dr.bench, dr.config, dr.body, dr.fail)}
		}(i)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	failed := 0
	if stream != "" {
		c.Stats.Inc("fleet/stream_requests")
		failed = c.streamGrid(w, stream, total, results)
	} else {
		cells := make([]server.GridCell, total)
		for ic := range results {
			cells[ic.idx] = ic.cell
		}
		for _, cell := range cells {
			if cell.Error != "" {
				failed++
			}
		}
		server.WriteJSON(w, http.StatusOK, server.GridResponse{Cells: cells})
	}
	c.Stats.Inc("fleet/ok")
	c.Log.Info("grid served",
		"request_id", id, "cells", total, "failed", failed,
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
	draining := c.Draining()
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
	server.WriteJSON(w, status, body)
}

// fleetChangeRequest is the body of /v1/fleet/join and /v1/fleet/leave.
type fleetChangeRequest struct {
	Addr string `json:"addr"`
}

// changeRequest opens a join or leave request: its ID, the POST-only
// check and the body. Membership changes stay open while draining and
// are not counted as requests; Join itself refuses a draining fleet.
func (c *Coordinator) changeRequest(w http.ResponseWriter, r *http.Request) (id, addr string, ok bool) {
	id, _ = c.RequestID(w, r)
	if !c.PostOnly(w, r, id) {
		return id, "", false
	}
	var req fleetChangeRequest
	if f := c.Decode(w, r, &req); f != nil {
		c.Fail(w, id, f)
		return id, "", false
	}
	return id, req.Addr, true
}

// handleJoin admits a worker into the running fleet. The reply reports
// whether the address was newly admitted (joined=false means it was
// already a member — the call is idempotent), its initial health, and
// the resulting roster size and membership epoch.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	id, addr, ok := c.changeRequest(w, r)
	if !ok {
		return
	}
	joined, healthy, err := c.Join(addr)
	if err != nil {
		f := server.BadRequest("%v", err)
		if c.Draining() {
			f.Status, f.Kind = http.StatusServiceUnavailable, "draining"
			f.RetryAfter = server.JitterRetryAfter(time.Second)
		}
		c.Fail(w, id, f)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"joined":  joined,
		"worker":  addr,
		"healthy": healthy,
		"workers": c.members.size(),
		"epoch":   c.members.generation(),
	})
}

// handleLeave removes a worker from the running fleet: its probe loop
// stops, new cells stop routing to it immediately, and cells already in
// flight on it drain to completion.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	id, addr, ok := c.changeRequest(w, r)
	if !ok {
		return
	}
	if !c.Leave(addr) {
		c.Fail(w, id, &server.Failure{Status: http.StatusNotFound, Kind: "bad_request",
			Msg: fmt.Sprintf("worker %q is not a fleet member", addr)})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"left":    addr,
		"workers": c.members.size(),
		"epoch":   c.members.generation(),
	})
}

// handleMembers reports the current roster with live status.
func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"workers": c.workerStatuses(),
		"epoch":   c.members.generation(),
		"healthy": c.healthyCount(),
	})
}

// gauges is the coordinator's point-in-time gauge set — the one list
// both /metrics and /debug/obs render (per-worker series ride next to it
// on /metrics, and as the workers section of /debug/obs).
func (c *Coordinator) gauges() map[string]int64 {
	return map[string]int64{
		"fleet_workers":         int64(c.members.size()),
		"fleet_workers_healthy": int64(c.healthyCount()),
		"fleet_min_workers":     int64(c.cfg.MinWorkers),
		"fleet_epoch":           int64(c.members.generation()),
		"fleet_cache_entries":   int64(c.tier.Len()),
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gw := c.WriteMetrics(w, c.gauges())
	now := time.Now()
	for _, wk := range c.members.all() {
		label := map[string]string{"worker": wk.addr}
		healthy := int64(0)
		if wk.healthy.Load() {
			healthy = 1
		}
		gw.Gauge(server.MetricsPrefix+"fleet_worker_healthy", label, healthy)
		gw.Gauge(server.MetricsPrefix+"fleet_worker_inflight", label, int64(len(wk.sem)))
		gw.Gauge(server.MetricsPrefix+"fleet_worker_breaker_state", label, int64(wk.brk.State()))
		backoff := int64(0)
		if until := wk.backoffUntil.Load(); until > now.UnixNano() {
			backoff = (until - now.UnixNano()) / int64(time.Millisecond)
		}
		gw.Gauge(server.MetricsPrefix+"fleet_worker_backoff_ms", label, backoff)
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
	server.WriteJSON(w, http.StatusOK, debugObsDoc{
		DebugDoc: c.DebugDoc(c.gauges()),
		Workers:  c.workerStatuses(),
	})
}
