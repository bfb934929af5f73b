// Package server is the compile-as-a-service layer: a long-running HTTP
// daemon (cmd/bschedd) serving scheduling and simulation requests on top
// of the experiment engine (internal/exp). The pipeline behind each
// request — compile under one (benchmark, configuration) cell, simulate,
// checksum-verify — is expensive, deterministic and cacheable, so the
// server is built for degradation instead of collapse:
//
//   - Admission control: a bounded queue of concurrently admitted work
//     items; excess load is shed immediately with 429 + Retry-After
//     instead of queueing without bound.
//   - Deadlines: every request carries a context deadline (client-chosen
//     up to a ceiling) propagated through the pipeline, which aborts at
//     the next phase boundary; expiry returns a structured timeout error
//     naming the phase it died in.
//   - Circuit breakers: one per benchmark, opened after repeated pipeline
//     faults, half-opened on probe requests after a cooldown.
//   - Result store: one flight per (benchmark, config, verify) key
//     collapses duplicate in-flight requests, so a thundering herd
//     compiles once, and a flight that succeeds stores the key's
//     response document, never evicted (ParseCell bounds the key
//     space). Responses are deterministic (no wall-clock in the body), so
//     cached and cold responses are byte-identical.
//   - Graceful drain: Drain stops admitting, finishes or cancels in-flight
//     work under a deadline, and flushes the request journal.
//
// /healthz is liveness, /readyz readiness (not-ready while draining or
// with every breaker open), and /metrics exports the obs counter registry
// — including the request latency histograms (cell latency, queue wait)
// — plus queue-depth, breaker-state and cache gauges in Prometheus text
// format. /debug/obs serves the same data as one live JSON document,
// with a runtime/metrics sample and the pipeline's shared-resource wait
// histograms folded in.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New; the deadline, body-limit and logger defaults are the
// Daemon's, shared with the fleet coordinator.
type Config struct {
	// Queue bounds concurrently admitted work items (running + waiting
	// for a worker). Admission beyond it sheds with 429. Default 64.
	Queue int
	// Workers bounds concurrently executing pipeline runs. Default
	// GOMAXPROCS.
	Workers int
	// DefaultDeadline is the per-request deadline when the client sets
	// none. Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// BreakerThreshold is the consecutive pipeline faults that open a
	// benchmark's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe through. Default 5s.
	BreakerCooldown time.Duration
	// MaxBodyBytes caps request-body size; oversized POSTs are rejected
	// with a structured 413 instead of being read without bound. Default
	// 1 MiB.
	MaxBodyBytes int64
	// Journal, when non-empty, is the JSONL request journal: every
	// admitted request is appended as it finishes, and Drain flushes it.
	Journal string
	// Verify runs the internal/verify invariant checkers inside every
	// pipeline execution (requests may also opt in per-request).
	Verify bool
	// Tracer, when non-nil, records one span per request (on a lane of
	// its own, tagged with the request ID) for Chrome-trace export.
	Tracer *obs.Tracer
	// Logger receives structured request/error logs; every line carries
	// the request ID, so a journal entry, a log line and an error body
	// join on it. Nil discards.
	Logger *slog.Logger
}

// Server serves compile/simulate requests. Create with New; its embedded
// Daemon runs the request lifecycle and the drain.
type Server struct {
	*Daemon
	cfg     Config
	runner  *exp.CellRunner
	results Results
	brk     *breakers

	admit chan struct{} // admission slots (capacity cfg.Queue)
	work  chan struct{} // worker slots (capacity cfg.Workers)

	// waits aggregates the pipeline's shared-resource wait histograms
	// (machine pool, front-end cache) across every served cell, via
	// exp.Options.Contention. Lock-free; served by /debug/obs.
	waits *obs.WaitProfile
}

// New builds a server. It returns an error only when the request journal
// cannot be opened.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	d, err := NewDaemon("server", "r", cfg.Journal, cfg.DefaultDeadline, cfg.MaxDeadline, cfg.MaxBodyBytes, cfg.Logger)
	if err != nil {
		return nil, err
	}
	return &Server{
		Daemon: d,
		cfg:    cfg,
		runner: exp.NewCellRunner(),
		brk:    newBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown),
		admit:  make(chan struct{}, cfg.Queue),
		work:   make(chan struct{}, cfg.Workers),
		waits:  obs.NewWaitProfile(),
	}, nil
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/grid", s.handleGrid)
	mux.HandleFunc("/healthz", s.HandleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/obs", s.handleDebugObs)
	return mux
}

// ErrorBody is the JSON error document every non-2xx response carries.
// It is exported, along with the other wire types below, because the
// fleet coordinator (internal/fleet) speaks exactly this protocol to its
// workers and to its own clients: one source of truth for the wire
// shape is what keeps a coordinator-served grid byte-identical to a
// single-node one.
type ErrorBody struct {
	// RequestID echoes the request's ID (X-Request-Id or minted), so an
	// error body joins against the request journal and the server log.
	RequestID string `json:"request_id,omitempty"`
	// Kind classifies the failure: bad_request, shed, draining,
	// breaker_open, fault, verify, timeout or canceled.
	Kind string `json:"kind"`
	// Error is the human-readable message.
	Error string `json:"error"`
	// Bench and Config identify the cell, when known.
	Bench  string `json:"bench,omitempty"`
	Config string `json:"config,omitempty"`
	// Phase is the pipeline stage the request died in (timeout/fault):
	// "queue", "frontend", "compile", "sim" or "check".
	Phase string `json:"phase,omitempty"`
	// RetryAfterS mirrors the Retry-After header of a retryable failure
	// (Failure.RetryAfter).
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// ResultDoc is the response document of a served cell. It is fully
// deterministic for a (benchmark, config) pair — simulated metrics only,
// no wall-clock, no allocation counters — which is what lets the result
// store serve cached bytes that are identical to a cold compile's, and lets
// clients diff server results against paperbench -json output.
type ResultDoc struct {
	Bench   string       `json:"bench"`
	Config  string       `json:"config"`
	Metrics *sim.Metrics `json:"metrics"`
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	// Verify opts this request into the invariant verifiers (always on
	// when the server's Config.Verify is set).
	Verify bool `json:"verify,omitempty"`
	// DeadlineMS overrides the server's default request deadline, capped
	// at Config.MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// GridRequest is the body of POST /v1/grid.
type GridRequest struct {
	Benches []string `json:"benches"`
	// Configs are configuration names (core.ParseConfig notation); empty
	// means the paper's full 16-configuration grid.
	Configs    []string `json:"configs,omitempty"`
	Verify     bool     `json:"verify,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

// GridCell is one cell of a /v1/grid response: a result or a structured
// per-cell failure (shed, breaker-open, timeout, fault, degraded), so a
// grid request degrades cell by cell instead of failing whole.
type GridCell struct {
	Bench   string       `json:"bench"`
	Config  string       `json:"config"`
	Metrics *sim.Metrics `json:"metrics,omitempty"`
	Error   string       `json:"error,omitempty"`
	Kind    string       `json:"kind,omitempty"`
	Phase   string       `json:"phase,omitempty"`
}

// GridResponse is the body of a buffered /v1/grid response.
type GridResponse struct {
	Cells []GridCell `json:"cells"`
}

// ctxError classifies a dead context into the structured timeout/canceled
// failure, naming the phase the request was in.
func ctxError(err error, bench, config, phase string) *Failure {
	f := &Failure{Bench: bench, Config: config, Phase: phase, ctxDeath: true}
	if errors.Is(err, context.DeadlineExceeded) {
		f.Status = http.StatusGatewayTimeout
		f.Kind = "timeout"
		f.Msg = fmt.Sprintf("deadline exceeded in %s for %s/%s", phase, bench, config)
	} else {
		f.Status = http.StatusServiceUnavailable
		f.Kind = "canceled"
		f.Msg = fmt.Sprintf("request canceled in %s for %s/%s", phase, bench, config)
	}
	return f
}

// cell serves one (benchmark, config) result: stored document, share of
// the key's flight, or a fresh pipeline execution behind admission
// control and the benchmark's circuit breaker. cache reports how the
// bytes were obtained ("hit", "shared" or "miss").
func (s *Server) cell(ctx context.Context, id, bench string, cfg core.Config, verifyFlag bool) (body []byte, cache string, fail *Failure) {
	key := CellKey(bench, cfg.Name(), verifyFlag)
	if b, ok := s.results.Get(key); ok {
		s.Stats.Inc("server/cache_hits")
		return b, "hit", nil
	}
	for {
		f, leader := s.results.lead(key)
		if !leader {
			s.Stats.Inc("server/singleflight_shared")
			select {
			case <-f.done:
				if f.err == nil {
					return f.body, "shared", nil
				}
				if f.err.ctxDeath && ctx.Err() == nil {
					// The leader died of its own deadline or cancel, not
					// the pipeline's fault; this request is still alive,
					// so run it.
					continue
				}
				return nil, "", f.err
			case <-ctx.Done():
				return nil, "", ctxError(ctx.Err(), bench, cfg.Name(), "queue")
			}
		}
		body, fail := s.compute(ctx, id, bench, cfg, verifyFlag)
		s.results.land(key, f, body, fail)
		return body, "miss", fail
	}
}

// compute runs the pipeline for one cell: admission slot (shed when the
// queue is full), breaker check, worker slot (waiting here is "queued"
// time charged against the request's deadline), then the fault-isolated
// cell execution.
func (s *Server) compute(ctx context.Context, id, bench string, cfg core.Config, verifyFlag bool) ([]byte, *Failure) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.Stats.Inc("server/shed")
		return nil, &Failure{
			Status: http.StatusTooManyRequests, Kind: "shed",
			Msg:   fmt.Sprintf("admission queue full (%d items)", cap(s.admit)),
			Bench: bench, Config: cfg.Name(),
			RetryAfter: JitterRetryAfter(time.Second),
		}
	}
	defer func() { <-s.admit }()

	brk := s.brk.get(bench)
	if ok, retry := brk.Allow(time.Now()); !ok {
		s.Stats.Inc("server/breaker_rejects")
		return nil, &Failure{
			Status: http.StatusServiceUnavailable, Kind: "breaker_open",
			Msg:   fmt.Sprintf("circuit breaker open for %s", bench),
			Bench: bench, Config: cfg.Name(),
			RetryAfter: JitterRetryAfter(retry),
		}
	}

	queued := time.Now()
	select {
	case s.work <- struct{}{}:
	case <-ctx.Done():
		brk.CancelProbe()
		return nil, ctxError(ctx.Err(), bench, cfg.Name(), "queue")
	}
	// The latency histograms put the distributions on /metrics: counters
	// alone cannot answer "how long do requests queue?", which is exactly
	// the question under load.
	s.Stats.Observe("server/queue_wait_ms", time.Since(queued).Milliseconds())
	runStart := time.Now()
	res, err := s.runner.Run(ctx, bench, cfg, exp.Options{
		Verify:     verifyFlag || s.cfg.Verify,
		Contention: &obs.Contention{Waits: s.waits},
	})
	<-s.work
	s.Stats.Observe("server/cell_latency_ms", time.Since(runStart).Milliseconds())

	if err != nil {
		var ce *exp.CellError
		if !errors.As(err, &ce) {
			// Only workload.ByName fails outside the cell machinery, and
			// the handler validated the benchmark already.
			brk.CancelProbe()
			return nil, BadRequest("%v", err)
		}
		switch {
		case ce.Canceled, ce.Timeout && ctx.Err() != nil:
			// The request's own context died; not the benchmark's fault.
			brk.CancelProbe()
			s.Stats.Inc("server/" + map[bool]string{true: "timeouts", false: "canceled"}[ce.Timeout])
			return nil, ctxError(ctx.Err(), bench, cfg.Name(), ce.Phase)
		case verify.IsVerification(ce.Err):
			// The pipeline produced a wrong result — the most serious
			// outcome, reported as an internal error.
			if brk.Failure(time.Now()) {
				s.Stats.Inc("server/breaker_opens")
			}
			s.Stats.Inc("server/verify_failures")
			s.Log.Error("verification failure",
				"request_id", id, "bench", bench, "config", cfg.Name(),
				"phase", ce.Phase, "err", ce.Error())
			return nil, &Failure{
				Status: http.StatusInternalServerError, Kind: "verify",
				Msg:   fmt.Sprintf("request %s: %s", id, ce.Error()),
				Bench: bench, Config: cfg.Name(), Phase: ce.Phase,
			}
		default:
			// Pipeline fault (panic, injected error, compile failure):
			// retryable from the client's side, counted by the breaker.
			if brk.Failure(time.Now()) {
				s.Stats.Inc("server/breaker_opens")
			}
			s.Stats.Inc("server/faults")
			s.Log.Error("pipeline fault",
				"request_id", id, "bench", bench, "config", cfg.Name(),
				"phase", ce.Phase, "err", ce.Error())
			return nil, &Failure{
				Status: http.StatusServiceUnavailable, Kind: "fault",
				Msg:   fmt.Sprintf("request %s: %s", id, ce.Error()),
				Bench: bench, Config: cfg.Name(), Phase: ce.Phase,
				RetryAfter: JitterRetryAfter(time.Second),
			}
		}
	}
	brk.Success()
	doc := ResultDoc{Bench: res.Bench, Config: res.Config.Name(), Metrics: res.Metrics}
	body, merr := json.Marshal(doc)
	if merr != nil {
		return nil, &Failure{Status: http.StatusInternalServerError, Kind: "fault", Msg: merr.Error()}
	}
	return append(body, '\n'), nil
}

// span opens the request's trace span on a lane of its own (spans of
// concurrent requests must not share a lane, or per-lane nesting breaks).
func (s *Server) span(seq uint64, id, endpoint string) *obs.Span {
	if s.cfg.Tracer == nil {
		return nil
	}
	return s.cfg.Tracer.Begin(int(seq), "request", "server").
		Arg("id", id).Arg("endpoint", endpoint)
}

// reject answers f and records its status and kind in the request's
// journal line.
func (s *Server) reject(w http.ResponseWriter, rec *journalRecord, f *Failure) {
	rec.Status, rec.Kind = f.Status, f.Kind
	s.Fail(w, rec.ID, f)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, seq := s.RequestID(w, r)
	sp := s.span(seq, id, "compile")
	defer sp.End()
	if !s.Enter(w, r, id) {
		return
	}
	defer s.Exit()

	rec := journalRecord{ID: id, Endpoint: "compile"}
	defer func() {
		rec.DurationMS = time.Since(start).Milliseconds()
		s.Journal(rec)
	}()

	var req CompileRequest
	if f := s.Decode(w, r, &req); f != nil {
		s.reject(w, &rec, f)
		return
	}
	rec.Bench, rec.Config = req.Bench, req.Config
	cfg, f := ParseCell(req.Bench, req.Config)
	if f != nil {
		s.reject(w, &rec, f)
		return
	}
	sp.Arg("bench", req.Bench).Arg("config", cfg.Name())

	ctx, cancel := s.RequestContext(r, req.DeadlineMS)
	defer cancel()
	body, cache, f := s.cell(ctx, id, req.Bench, cfg, req.Verify)
	if f != nil {
		s.reject(w, &rec, f)
		return
	}
	if cache == "miss" {
		s.Stats.Inc("server/cache_misses")
	}
	s.Stats.Inc("server/ok")
	rec.Status, rec.Cache = http.StatusOK, cache
	s.Log.Info("compile served",
		"request_id", id, "bench", req.Bench, "config", cfg.Name(),
		"cache", cache, "duration_ms", time.Since(start).Milliseconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, seq := s.RequestID(w, r)
	sp := s.span(seq, id, "grid")
	defer sp.End()
	if !s.Enter(w, r, id) {
		return
	}
	defer s.Exit()

	rec := journalRecord{ID: id, Endpoint: "grid"}
	defer func() {
		rec.DurationMS = time.Since(start).Milliseconds()
		s.Journal(rec)
	}()

	var req GridRequest
	var cfgs []core.Config
	f := s.Decode(w, r, &req)
	if f == nil {
		cfgs, f = ParseGrid(req)
	}
	if f != nil {
		s.reject(w, &rec, f)
		return
	}

	ctx, cancel := s.RequestContext(r, req.DeadlineMS)
	defer cancel()
	// Cells run sequentially through the same cache/singleflight/breaker
	// path as /v1/compile; each cell degrades independently (a shed,
	// breaker-open or timed-out cell becomes a structured entry, the rest
	// of the grid still runs — while the deadline lasts).
	var resp GridResponse
	failed := 0
	for _, bench := range req.Benches {
		for _, cfg := range cfgs {
			var body []byte
			var f *Failure
			if err := ctx.Err(); err != nil {
				f = ctxError(err, bench, cfg.Name(), "queue")
			} else {
				body, _, f = s.cell(ctx, id, bench, cfg, req.Verify)
			}
			cell := NewGridCell(bench, cfg.Name(), body, f)
			if cell.Error != "" {
				failed++
			}
			resp.Cells = append(resp.Cells, cell)
		}
	}
	s.Stats.Inc("server/ok")
	rec.Status = http.StatusOK
	s.Log.Info("grid served",
		"request_id", id, "cells", len(resp.Cells), "failed", failed,
		"duration_ms", time.Since(start).Milliseconds())
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.Draining()
	saturated := s.brk.saturated()
	states := map[string]string{}
	for bench, st := range s.brk.states() {
		states[bench] = BreakerStateName(st)
	}
	body := map[string]any{
		"ready":    !draining && !saturated,
		"draining": draining,
		"breakers": states,
	}
	status := http.StatusOK
	if draining || saturated {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}

// gauges is the server's point-in-time gauge set — the one list both
// /metrics and /debug/obs render.
func (s *Server) gauges() map[string]int64 {
	poolHits, poolMisses := sim.PoolCounters()
	return map[string]int64{
		"queue_depth":         int64(len(s.admit)),
		"queue_capacity":      int64(cap(s.admit)),
		"workers_busy":        int64(len(s.work)),
		"workers_capacity":    int64(cap(s.work)),
		"cache_entries":       int64(s.results.Len()),
		"machine_pool_hits":   poolHits,
		"machine_pool_misses": poolMisses,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gw := s.WriteMetrics(w, s.gauges())
	for bench, st := range s.brk.states() {
		gw.Gauge(MetricsPrefix+"breaker_state", map[string]string{"bench": bench}, int64(st))
	}
}

// debugObsDoc is the /debug/obs response: one JSON document joining the
// shared daemon section (counter/histogram registry, gauges, runtime
// sample), breaker states and the pipeline's shared-resource wait
// histograms, read live from a daemon you cannot restart under a
// measurement harness.
type debugObsDoc struct {
	obs.DebugDoc
	// Breakers maps benchmark to its circuit-breaker state name.
	Breakers map[string]string `json:"breakers"`
	// Contention carries the pipeline's wait histograms.
	Contention *obs.ContentionSnapshot `json:"contention"`
}

func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	breakers := map[string]string{}
	for bench, st := range s.brk.states() {
		breakers[bench] = BreakerStateName(st)
	}
	WriteJSON(w, http.StatusOK, debugObsDoc{
		DebugDoc:   s.DebugDoc(s.gauges()),
		Breakers:   breakers,
		Contention: &obs.ContentionSnapshot{Waits: s.waits.Snapshot()},
	})
}
