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
//   - Result cache: an LRU of response documents keyed by (benchmark,
//     config, verify) with singleflight collapsing of duplicate in-flight
//     requests, so a thundering herd compiles once. Responses are
//     deterministic (no wall-clock in the body), so cached and cold
//     responses are byte-identical.
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
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
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
	// CacheEntries is the LRU result-cache capacity. Default 256.
	CacheEntries int
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
	// MetricsPrefix prefixes every /metrics series. Default "bschedd_".
	MetricsPrefix string
	// Logger receives structured request/error logs; every line carries
	// the request ID, so a journal entry, a log line and an error body
	// join on it. Nil discards.
	Logger *slog.Logger
}

// Server serves compile/simulate requests. Create with New.
type Server struct {
	cfg     Config
	runner  *exp.CellRunner
	cache   *LRU
	flights *flightGroup
	brk     *breakers
	jnl     *exp.Appender

	baseCtx    context.Context
	baseCancel context.CancelFunc

	admit chan struct{} // admission slots (capacity cfg.Queue)
	work  chan struct{} // worker slots (capacity cfg.Workers)

	reqSeq atomic.Uint64

	// stats is the server's counter/histogram registry.
	stats *obs.Stats

	// waits aggregates the pipeline's shared-resource wait histograms
	// (machine pool, front-end cache) across every served cell, via
	// exp.Options.Contention. Lock-free; served by /debug/obs.
	waits *obs.WaitProfile

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	closeJnl sync.Once
	jnlErr   error
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
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "bschedd_"
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	jnl, err := exp.OpenAppender(cfg.Journal, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		runner:     exp.NewCellRunner(),
		cache:      NewLRU(cfg.CacheEntries),
		flights:    newFlightGroup(),
		brk:        newBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown),
		jnl:        jnl,
		baseCtx:    ctx,
		baseCancel: cancel,
		admit:      make(chan struct{}, cfg.Queue),
		work:       make(chan struct{}, cfg.Workers),
		stats:      obs.NewStats(),
		waits:      obs.NewWaitProfile(),
	}, nil
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/grid", s.handleGrid)
	mux.HandleFunc("/v1/cache/", s.handleCacheExport)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/obs", s.handleDebugObs)
	return mux
}

// handleCacheExport serves this worker's result cache to fleet peers:
// GET /v1/cache/{key}, where key is the URL-escaped cell key
// (bench|config[|verify]). A hit answers 200 with the exact cached
// bytes; a miss answers 404 and never triggers a compute — peers probe
// this path during failover, and a probe must always be cheaper than
// just recomputing. Deliberately allowed while draining: exporting
// already-computed bytes is how a dying worker's work survives it.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, r.Header.Get("X-Request-Id"), &reqError{
			status: http.StatusMethodNotAllowed, kind: "bad_request", msg: "GET only"})
		return
	}
	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/v1/cache/"))
	if err != nil || key == "" {
		s.writeError(w, r.Header.Get("X-Request-Id"), badRequest("bad cache key"))
		return
	}
	if body, ok := s.cache.Get(key); ok {
		s.count("server/cache_export_hits")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "export")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	s.count("server/cache_export_misses")
	s.writeError(w, r.Header.Get("X-Request-Id"), &reqError{
		status: http.StatusNotFound, kind: "not_found",
		msg: fmt.Sprintf("cell %q is not cached", key)})
}

func (s *Server) count(name string) { s.countN(name, 1) }

func (s *Server) countN(name string, n int64) { s.stats.Add(name, n) }

// observe records v into histogram name — the path that puts the
// latency distributions on /metrics (counters alone cannot answer "how
// long do requests queue?", which is exactly the question under load).
func (s *Server) observe(name string, v int64) { s.stats.Observe(name, v) }

// reqError is a structured request failure: the HTTP status, the machine-
// readable kind, and — for pipeline deaths — the phase the work died in.
type reqError struct {
	status        int
	kind          string
	msg           string
	bench, config string
	phase         string
	retryAfter    time.Duration
	// ctxDeath marks failures caused by the executing request's own
	// context (deadline or cancel): a singleflight follower with a live
	// context retries instead of inheriting them.
	ctxDeath bool
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
	// RetryAfterS mirrors the Retry-After header for shed/breaker
	// rejections.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// ResultDoc is the response document of a served cell. It is fully
// deterministic for a (benchmark, config) pair — simulated metrics only,
// no wall-clock, no allocation counters — which is what lets the LRU
// serve cached bytes that are identical to a cold compile's, and lets
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

// enter registers a request with the in-flight accounting; it fails once
// draining has begun.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) leave() { s.inflight.Done() }

// requestID honors the client's X-Request-Id or mints a sequential one.
func (s *Server) requestID(r *http.Request) (string, uint64) {
	seq := s.reqSeq.Add(1)
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id, seq
	}
	return fmt.Sprintf("r%06d", seq), seq
}

// requestCtx derives the request's working context: the client deadline
// (bounded by MaxDeadline) layered over the HTTP request context, and
// additionally canceled when the server's base context dies (drain
// deadline).
func (s *Server) requestCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, id string, e *reqError) {
	s.cfg.Logger.Warn("request failed",
		"request_id", id, "kind", e.kind, "status", e.status,
		"bench", e.bench, "config", e.config, "phase", e.phase,
		"err", e.msg)
	body := ErrorBody{
		RequestID: id,
		Kind:      e.kind, Error: e.msg,
		Bench: e.bench, Config: e.config, Phase: e.phase,
	}
	if e.retryAfter > 0 {
		secs := int(e.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		body.RetryAfterS = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, e.status, body)
}

func badRequest(format string, args ...any) *reqError {
	return &reqError{status: http.StatusBadRequest, kind: "bad_request", msg: fmt.Sprintf(format, args...)}
}

// JitterRetryAfter spreads a Retry-After hint over [base, 1.5*base+1s)
// so shed or breaker-rejected clients do not reconverge on the same
// instant — the thundering-herd half of admission control. Both bschedd
// modes draw their hints from it; the fleet coordinator also honors its
// workers' hints per worker.
func JitterRetryAfter(base time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	return base + rand.N(base/2+time.Second)
}

// decodeBody decodes the request body under the server's size limit;
// an oversized body becomes a structured 413 (not an unbounded read,
// not a generic 400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *reqError {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.count("server/too_large")
			return &reqError{
				status: http.StatusRequestEntityTooLarge, kind: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// ctxError classifies a dead context into the structured timeout/canceled
// error, naming the phase the request was in.
func ctxError(err error, bench, config, phase string) *reqError {
	e := &reqError{bench: bench, config: config, phase: phase, ctxDeath: true}
	if errors.Is(err, context.DeadlineExceeded) {
		e.status = http.StatusGatewayTimeout
		e.kind = "timeout"
		e.msg = fmt.Sprintf("deadline exceeded in %s for %s/%s", phase, bench, config)
	} else {
		e.status = http.StatusServiceUnavailable
		e.kind = "canceled"
		e.msg = fmt.Sprintf("request canceled in %s for %s/%s", phase, bench, config)
	}
	return e
}

// cell serves one (benchmark, config) result: LRU hit, singleflight
// share, or a fresh pipeline execution behind admission control and the
// benchmark's circuit breaker. cache reports how the bytes were obtained
// ("hit", "shared" or "miss").
func (s *Server) cell(ctx context.Context, id, bench string, cfg core.Config, verifyFlag bool) (body []byte, cache string, rerr *reqError) {
	key := CellKey(bench, cfg.Name(), verifyFlag)
	if b, ok := s.cache.Get(key); ok {
		s.count("server/cache_hits")
		return b, "hit", nil
	}
	for {
		f, leader := s.flights.lead(key)
		if !leader {
			s.count("server/singleflight_shared")
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
		body, rerr := s.compute(ctx, id, bench, cfg, verifyFlag)
		if rerr == nil {
			s.cache.Add(key, body)
		}
		s.flights.land(key, f, body, rerr)
		return body, "miss", rerr
	}
}

// compute runs the pipeline for one cell: admission slot (shed when the
// queue is full), breaker check, worker slot (waiting here is "queued"
// time charged against the request's deadline), then the fault-isolated
// cell execution.
func (s *Server) compute(ctx context.Context, id, bench string, cfg core.Config, verifyFlag bool) ([]byte, *reqError) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.count("server/shed")
		return nil, &reqError{
			status: http.StatusTooManyRequests, kind: "shed",
			msg:   fmt.Sprintf("admission queue full (%d items)", cap(s.admit)),
			bench: bench, config: cfg.Name(),
			retryAfter: JitterRetryAfter(time.Second),
		}
	}
	defer func() { <-s.admit }()

	brk := s.brk.get(bench)
	if ok, retry := brk.Allow(time.Now()); !ok {
		s.count("server/breaker_rejects")
		return nil, &reqError{
			status: http.StatusServiceUnavailable, kind: "breaker_open",
			msg:   fmt.Sprintf("circuit breaker open for %s", bench),
			bench: bench, config: cfg.Name(),
			retryAfter: JitterRetryAfter(retry),
		}
	}

	queued := time.Now()
	select {
	case s.work <- struct{}{}:
	case <-ctx.Done():
		brk.CancelProbe()
		return nil, ctxError(ctx.Err(), bench, cfg.Name(), "queue")
	}
	s.observe("server/queue_wait_ms", time.Since(queued).Milliseconds())
	runStart := time.Now()
	res, err := s.runner.Run(ctx, bench, cfg, exp.Options{
		Verify:     verifyFlag || s.cfg.Verify,
		Contention: &obs.Contention{Waits: s.waits},
	})
	<-s.work
	s.observe("server/cell_latency_ms", time.Since(runStart).Milliseconds())

	if err != nil {
		var ce *exp.CellError
		if !errors.As(err, &ce) {
			// Only workload.ByName fails outside the cell machinery, and
			// the handler validated the benchmark already.
			brk.CancelProbe()
			return nil, badRequest("%v", err)
		}
		switch {
		case ce.Canceled, ce.Timeout && ctx.Err() != nil:
			// The request's own context died; not the benchmark's fault.
			brk.CancelProbe()
			s.count("server/" + map[bool]string{true: "timeouts", false: "canceled"}[ce.Timeout])
			return nil, ctxError(ctx.Err(), bench, cfg.Name(), ce.Phase)
		case verify.IsVerification(ce.Err):
			// The pipeline produced a wrong result — the most serious
			// outcome, reported as an internal error.
			if brk.Failure(time.Now()) {
				s.count("server/breaker_opens")
			}
			s.count("server/verify_failures")
			s.cfg.Logger.Error("verification failure",
				"request_id", id, "bench", bench, "config", cfg.Name(),
				"phase", ce.Phase, "err", ce.Error())
			return nil, &reqError{
				status: http.StatusInternalServerError, kind: "verify",
				msg:   fmt.Sprintf("request %s: %s", id, ce.Error()),
				bench: bench, config: cfg.Name(), phase: ce.Phase,
			}
		default:
			// Pipeline fault (panic, injected error, compile failure):
			// retryable from the client's side, counted by the breaker.
			if brk.Failure(time.Now()) {
				s.count("server/breaker_opens")
			}
			s.count("server/faults")
			s.cfg.Logger.Error("pipeline fault",
				"request_id", id, "bench", bench, "config", cfg.Name(),
				"phase", ce.Phase, "err", ce.Error())
			return nil, &reqError{
				status: http.StatusServiceUnavailable, kind: "fault",
				msg:   fmt.Sprintf("request %s: %s", id, ce.Error()),
				bench: bench, config: cfg.Name(), phase: ce.Phase,
				retryAfter: JitterRetryAfter(time.Second),
			}
		}
	}
	brk.Success()
	doc := ResultDoc{Bench: res.Bench, Config: res.Config.Name(), Metrics: res.Metrics}
	body, merr := json.Marshal(doc)
	if merr != nil {
		return nil, &reqError{status: http.StatusInternalServerError, kind: "fault", msg: merr.Error()}
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

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, seq := s.requestID(r)
	w.Header().Set("X-Request-Id", id)
	sp := s.span(seq, id, "compile")
	defer sp.End()
	s.count("server/requests")
	if r.Method != http.MethodPost {
		s.writeError(w, id, &reqError{status: http.StatusMethodNotAllowed, kind: "bad_request", msg: "POST only"})
		return
	}
	if !s.enter() {
		s.writeError(w, id, &reqError{status: http.StatusServiceUnavailable, kind: "draining", msg: "server is draining", retryAfter: JitterRetryAfter(time.Second)})
		return
	}
	defer s.leave()

	rec := journalRecord{ID: id, Endpoint: "compile"}
	defer func() {
		rec.DurationMS = time.Since(start).Milliseconds()
		s.jnl.Append(rec)
	}()

	var req CompileRequest
	if rerr := s.decodeBody(w, r, &req); rerr != nil {
		rec.Status, rec.Kind = rerr.status, rerr.kind
		s.writeError(w, id, rerr)
		return
	}
	rec.Bench, rec.Config = req.Bench, req.Config
	if _, err := workload.ByName(req.Bench); err != nil {
		rec.Status, rec.Kind = http.StatusBadRequest, "bad_request"
		s.writeError(w, id, badRequest("%v", err))
		return
	}
	cfg, err := core.ParseConfig(req.Config)
	if err != nil {
		rec.Status, rec.Kind = http.StatusBadRequest, "bad_request"
		s.writeError(w, id, badRequest("%v", err))
		return
	}
	sp.Arg("bench", req.Bench).Arg("config", cfg.Name())

	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()
	body, cache, rerr := s.cell(ctx, id, req.Bench, cfg, req.Verify)
	if rerr != nil {
		rec.Status, rec.Kind = rerr.status, rerr.kind
		s.writeError(w, id, rerr)
		return
	}
	if cache == "miss" {
		s.count("server/cache_misses")
	}
	s.count("server/ok")
	rec.Status, rec.Cache = http.StatusOK, cache
	s.cfg.Logger.Info("compile served",
		"request_id", id, "bench", req.Bench, "config", cfg.Name(),
		"cache", cache, "duration_ms", time.Since(start).Milliseconds())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id, seq := s.requestID(r)
	w.Header().Set("X-Request-Id", id)
	sp := s.span(seq, id, "grid")
	defer sp.End()
	s.count("server/requests")
	if r.Method != http.MethodPost {
		s.writeError(w, id, &reqError{status: http.StatusMethodNotAllowed, kind: "bad_request", msg: "POST only"})
		return
	}
	if !s.enter() {
		s.writeError(w, id, &reqError{status: http.StatusServiceUnavailable, kind: "draining", msg: "server is draining", retryAfter: JitterRetryAfter(time.Second)})
		return
	}
	defer s.leave()

	rec := journalRecord{ID: id, Endpoint: "grid"}
	defer func() {
		rec.DurationMS = time.Since(start).Milliseconds()
		s.jnl.Append(rec)
	}()

	var req GridRequest
	if rerr := s.decodeBody(w, r, &req); rerr != nil {
		rec.Status, rec.Kind = rerr.status, rerr.kind
		s.writeError(w, id, rerr)
		return
	}
	if len(req.Benches) == 0 {
		rec.Status, rec.Kind = http.StatusBadRequest, "bad_request"
		s.writeError(w, id, badRequest("no benchmarks requested"))
		return
	}
	for _, b := range req.Benches {
		if _, err := workload.ByName(b); err != nil {
			rec.Status, rec.Kind = http.StatusBadRequest, "bad_request"
			s.writeError(w, id, badRequest("%v", err))
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
				rec.Status, rec.Kind = http.StatusBadRequest, "bad_request"
				s.writeError(w, id, badRequest("%v", err))
				return
			}
			cfgs = append(cfgs, cfg)
		}
	}

	ctx, cancel := s.requestCtx(r, req.DeadlineMS)
	defer cancel()
	// Cells run sequentially through the same cache/singleflight/breaker
	// path as /v1/compile; each cell degrades independently (a shed,
	// breaker-open or timed-out cell becomes a structured entry, the rest
	// of the grid still runs — while the deadline lasts).
	var resp GridResponse
	for _, bench := range req.Benches {
		for _, cfg := range cfgs {
			cell := GridCell{Bench: bench, Config: cfg.Name()}
			if err := ctx.Err(); err != nil {
				e := ctxError(err, bench, cfg.Name(), "queue")
				cell.Error, cell.Kind, cell.Phase = e.msg, e.kind, e.phase
				resp.Cells = append(resp.Cells, cell)
				continue
			}
			body, _, rerr := s.cell(ctx, id, bench, cfg, req.Verify)
			if rerr != nil {
				cell.Error, cell.Kind, cell.Phase = rerr.msg, rerr.kind, rerr.phase
				resp.Cells = append(resp.Cells, cell)
				continue
			}
			var doc ResultDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				cell.Error, cell.Kind = err.Error(), "fault"
				resp.Cells = append(resp.Cells, cell)
				continue
			}
			cell.Metrics = doc.Metrics
			resp.Cells = append(resp.Cells, cell)
		}
	}
	s.count("server/ok")
	rec.Status = http.StatusOK
	failed := 0
	for _, c := range resp.Cells {
		if c.Error != "" {
			failed++
		}
	}
	s.cfg.Logger.Info("grid served",
		"request_id", id, "cells", len(resp.Cells), "failed", failed,
		"duration_ms", time.Since(start).Milliseconds())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
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
	writeJSON(w, status, body)
}

// gauges is the server's point-in-time gauge set — the one list both
// /metrics and /debug/obs render.
func (s *Server) gauges() map[string]int64 {
	s.mu.Lock()
	draining := int64(0)
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	poolHits, poolMisses := sim.PoolCounters()
	return map[string]int64{
		"queue_depth":         int64(len(s.admit)),
		"queue_capacity":      int64(cap(s.admit)),
		"workers_busy":        int64(len(s.work)),
		"workers_capacity":    int64(cap(s.work)),
		"cache_entries":       int64(s.cache.Len()),
		"draining":            draining,
		"machine_pool_hits":   poolHits,
		"machine_pool_misses": poolMisses,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.stats.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w, s.cfg.MetricsPrefix); err != nil {
		return
	}
	gw := obs.NewGaugeWriter(w)
	gw.Gauges(s.cfg.MetricsPrefix, s.gauges())
	for bench, st := range s.brk.states() {
		gw.Gauge(s.cfg.MetricsPrefix+"breaker_state", map[string]string{"bench": bench}, int64(st))
	}
}

// debugObsDoc is the /debug/obs response: one JSON document joining the
// shared daemon section (counter/histogram registry, gauges, runtime
// sample), breaker states and the pipeline's shared-resource wait
// histograms — the live complement to paperbench -scalereport for a
// daemon you cannot restart under a measurement harness.
type debugObsDoc struct {
	obs.DebugDoc
	// Breakers maps benchmark to its circuit-breaker state name.
	Breakers map[string]string `json:"breakers"`
	// Contention carries the pipeline's wait histograms. Timelines is
	// null: the server's work is request-shaped, not worker-loop-shaped,
	// so only the resource waits apply.
	Contention *obs.ContentionSnapshot `json:"contention"`
}

func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	breakers := map[string]string{}
	for bench, st := range s.brk.states() {
		breakers[bench] = BreakerStateName(st)
	}
	writeJSON(w, http.StatusOK, debugObsDoc{
		DebugDoc:   obs.NewDebugDoc(s.stats, s.gauges()),
		Breakers:   breakers,
		Contention: &obs.ContentionSnapshot{Waits: s.waits.Snapshot()},
	})
}

// StartDrain flips the server into draining mode: /readyz goes not-ready
// and new compile/grid requests are rejected with 503. In-flight requests
// keep running.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully shuts the serving layer down: stop admitting, let
// in-flight requests finish — and when ctx expires first, cancel them so
// they finish promptly with structured canceled/timeout responses — then
// flush and close the request journal. Every admitted request is
// journaled before Drain returns. Safe to call once; the returned error
// is the journal's.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: cancel in-flight work. The pipeline aborts at
		// its next phase boundary, handlers journal and respond, and the
		// wait completes.
		s.baseCancel()
		<-done
	}
	s.closeJnl.Do(func() { s.jnlErr = s.jnl.Close() })
	return s.jnlErr
}
