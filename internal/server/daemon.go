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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/workload"
)

// MetricsPrefix prefixes every /metrics series of both bschedd modes.
const MetricsPrefix = "bschedd_"

// Daemon is the request lifecycle both bschedd modes share: the worker
// (*Server) and the fleet coordinator each embed one, so a request is
// admitted, bounded, answered and drained the same way in both.
//
// A compile or grid handler runs RequestID, then Enter (the <ns>/requests
// counter, the POST-only 405 and the draining gate), Decode (the
// size-limited body, 413 beyond it), RequestContext (the client deadline
// under a ceiling, canceled by a drain deadline) and Fail for any
// structured error. Drain closes the gate, waits for every entered
// request (canceling them when its deadline passes first) and closes the
// journal.
type Daemon struct {
	// Stats is the counter/histogram registry /metrics and /debug/obs
	// render.
	Stats *obs.Stats
	// Log receives structured logs; request lines carry the request ID,
	// which also stamps the response, error bodies and journal lines.
	Log *slog.Logger

	ns                    string // counter namespace: "server/" or "fleet/"
	idPrefix              string // minted request IDs: "r000001", "c000001"
	deadline, maxDeadline time.Duration
	maxBody               int64
	jnl                   *exp.Appender

	reqSeq atomic.Uint64
	// baseCtx parents every request context; Drain cancels it when its
	// deadline passes with requests still in flight.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	closeJnl sync.Once
	jnlErr   error
}

// NewDaemon opens the daemon's JSONL journal (none when journal is
// empty) and returns its lifecycle. ns names the counters ("server" or
// "fleet"); idPrefix prefixes minted request IDs. Zero values take the
// defaults: a 30s request deadline, a 2m ceiling on client deadlines, a
// 1 MiB body limit and a logger that discards.
func NewDaemon(ns, idPrefix, journal string, deadline, maxDeadline time.Duration, maxBody int64, logger *slog.Logger) (*Daemon, error) {
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	if maxDeadline <= 0 {
		maxDeadline = 2 * time.Minute
	}
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	jnl, err := exp.OpenAppender(journal, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Daemon{
		Stats: obs.NewStats(), Log: logger,
		ns: ns + "/", idPrefix: idPrefix,
		deadline: deadline, maxDeadline: maxDeadline, maxBody: maxBody,
		jnl: jnl, baseCtx: ctx, baseCancel: cancel,
	}, nil
}

// MaxBodyBytes is the request-body limit.
func (d *Daemon) MaxBodyBytes() int64 { return d.maxBody }

// RequestID honors the client's X-Request-Id or mints a sequential one,
// stamps it on the response, and returns it with the request's sequence
// number.
func (d *Daemon) RequestID(w http.ResponseWriter, r *http.Request) (string, uint64) {
	seq := d.reqSeq.Add(1)
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("%s%06d", d.idPrefix, seq)
	}
	w.Header().Set("X-Request-Id", id)
	return id, seq
}

// PostOnly answers anything but a POST with a structured 405 and reports
// whether the request may go on.
func (d *Daemon) PostOnly(w http.ResponseWriter, r *http.Request, id string) bool {
	if r.Method == http.MethodPost {
		return true
	}
	d.Fail(w, id, &Failure{Status: http.StatusMethodNotAllowed, Kind: "bad_request", Msg: "POST only"})
	return false
}

// Enter admits a compile or grid request: it counts <ns>/requests, then
// answers a non-POST with 405 and, once draining has begun, any other
// request with 503 draining. When it reports true the request holds the
// drain open until the caller's Exit.
func (d *Daemon) Enter(w http.ResponseWriter, r *http.Request, id string) bool {
	d.Stats.Inc(d.ns + "requests")
	if !d.PostOnly(w, r, id) {
		return false
	}
	d.mu.Lock()
	draining := d.draining
	if !draining {
		d.inflight.Add(1)
	}
	d.mu.Unlock()
	if draining {
		d.Fail(w, id, &Failure{
			Status: http.StatusServiceUnavailable, Kind: "draining",
			Msg: "draining: not admitting new requests", RetryAfter: JitterRetryAfter(time.Second),
		})
	}
	return !draining
}

// Exit releases a request Enter admitted.
func (d *Daemon) Exit() { d.inflight.Done() }

// Draining reports whether the drain has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Decode decodes the request body into v under the body limit. An
// oversized body is a structured 413, counted as <ns>/too_large; any
// other decoding error is a 400.
func (d *Daemon) Decode(w http.ResponseWriter, r *http.Request, v any) *Failure {
	r.Body = http.MaxBytesReader(w, r.Body, d.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			d.Stats.Inc(d.ns + "too_large")
			return &Failure{
				Status: http.StatusRequestEntityTooLarge, Kind: "too_large",
				Msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return BadRequest("decoding request: %v", err)
	}
	return nil
}

// RequestContext derives the request's working context: the client
// deadline (capped at the ceiling; the default when unset) layered over
// the HTTP request context, and also canceled when a drain deadline
// cancels the daemon's base context.
func (d *Daemon) RequestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	dl := d.deadline
	if deadlineMS > 0 {
		dl = min(time.Duration(deadlineMS)*time.Millisecond, d.maxDeadline)
	}
	ctx, cancel := context.WithTimeout(r.Context(), dl)
	stop := context.AfterFunc(d.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Fail logs f and answers it as an ErrorBody. A failure with a
// RetryAfter hint also carries it, in whole seconds (at least 1), in the
// Retry-After header and the body's retry_after_s.
func (d *Daemon) Fail(w http.ResponseWriter, id string, f *Failure) {
	d.Log.Warn("request failed",
		"request_id", id, "kind", f.Kind, "status", f.Status,
		"bench", f.Bench, "config", f.Config, "phase", f.Phase,
		"err", f.Msg)
	body := ErrorBody{
		RequestID: id, Kind: f.Kind, Error: f.Msg,
		Bench: f.Bench, Config: f.Config, Phase: f.Phase,
	}
	if f.RetryAfter > 0 {
		body.RetryAfterS = max(1, int(f.RetryAfter/time.Second))
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterS))
	}
	WriteJSON(w, f.Status, body)
}

// Journal appends rec to the daemon's journal; without one it does
// nothing. Handlers append while their request is entered, so a drained
// journal is complete.
func (d *Daemon) Journal(rec any) { d.jnl.Append(rec) }

// WriteJSON answers status with v as a JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HandleHealthz is liveness: 200 for as long as the process serves,
// draining included.
func (d *Daemon) HandleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// WriteMetrics writes the shared head of /metrics — the counter
// registry, then the daemon's gauges plus the draining gauge — and
// returns the gauge writer for the caller's labeled series.
func (d *Daemon) WriteMetrics(w http.ResponseWriter, gauges map[string]int64) *obs.GaugeWriter {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gw := obs.NewGaugeWriter(w)
	// A failed write means the client is gone; the gauge writes that
	// follow fail the same way, so there is nothing to report.
	_ = d.Stats.Snapshot().WritePrometheus(w, MetricsPrefix)
	gw.Gauges(MetricsPrefix, d.withDraining(gauges))
	return gw
}

// DebugDoc is the shared section of /debug/obs: the registry, the
// daemon's gauges plus the draining gauge, and a runtime sample.
func (d *Daemon) DebugDoc(gauges map[string]int64) obs.DebugDoc {
	return obs.NewDebugDoc(d.Stats, d.withDraining(gauges))
}

func (d *Daemon) withDraining(gauges map[string]int64) map[string]int64 {
	gauges["draining"] = 0
	if d.Draining() {
		gauges["draining"] = 1
	}
	return gauges
}

// StartDrain closes the draining gate: /readyz goes not-ready and new
// compile and grid requests are rejected with 503. Entered requests keep
// running.
func (d *Daemon) StartDrain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// Drain shuts the request lifecycle down: close the gate, let entered
// requests finish — and when ctx expires first, cancel them so they
// finish promptly with structured canceled/timeout responses — then
// flush and close the journal, so every entered request is journaled
// before Drain returns. The returned error is the journal's.
func (d *Daemon) Drain(ctx context.Context) error {
	d.StartDrain()
	done := make(chan struct{})
	go func() {
		d.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// The pipeline and the dispatches abort at their next context
		// check; handlers journal and respond, and the wait completes.
		d.baseCancel()
		<-done
	}
	d.closeJnl.Do(func() { d.jnlErr = d.jnl.Close() })
	return d.jnlErr
}

// Failure is a structured request or cell failure, the one error type of
// both bschedd modes: the HTTP status, the machine-readable kind
// (ErrorBody.Kind), the cell and pipeline phase when known, and the
// Retry-After hint a client should honor (zero for none).
type Failure struct {
	Status        int
	Kind          string
	Msg           string
	Bench, Config string
	Phase         string
	RetryAfter    time.Duration
	// ctxDeath marks failures caused by the executing request's own
	// context (deadline or cancel): a singleflight follower with a live
	// context retries instead of inheriting them.
	ctxDeath bool
}

// BadRequest is a 400 bad_request failure.
func BadRequest(format string, args ...any) *Failure {
	return &Failure{Status: http.StatusBadRequest, Kind: "bad_request", Msg: fmt.Sprintf(format, args...)}
}

func badCell(err error, bench, config string) *Failure {
	f := BadRequest("%v", err)
	f.Bench, f.Config = bench, config
	return f
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

// ParseCell validates a compile request's cell: the benchmark is known
// and the configuration parses. A 400 names the cell.
func ParseCell(bench, config string) (core.Config, *Failure) {
	if _, err := workload.ByName(bench); err != nil {
		return core.Config{}, badCell(err, bench, config)
	}
	cfg, err := core.ParseConfig(config)
	if err != nil {
		return core.Config{}, badCell(err, bench, config)
	}
	return cfg, nil
}

// MaxGridCells caps one grid request's benchmarks × configurations, 15×
// the 272-cell paper grid. Duplicates count: both modes hold and answer
// one entry per requested cell.
const MaxGridCells = 4096

// ParseGrid validates a grid request and returns its configurations: at
// least one benchmark, at most MaxGridCells cells, every benchmark known,
// every configuration parsed; no configurations means the paper's 16
// (exp.Cells). A 400 names the cell count, or the offending benchmark or
// configuration.
func ParseGrid(req GridRequest) ([]core.Config, *Failure) {
	if len(req.Benches) == 0 {
		return nil, BadRequest("no benchmarks requested")
	}
	cfgs, perBench := exp.Cells(), len(req.Configs)
	if perBench == 0 {
		perBench = len(cfgs)
	}
	if n := len(req.Benches) * perBench; n > MaxGridCells {
		return nil, BadRequest("grid of %d cells exceeds the %d-cell limit", n, MaxGridCells)
	}
	for _, b := range req.Benches {
		if _, err := workload.ByName(b); err != nil {
			return nil, badCell(err, b, "")
		}
	}
	if len(req.Configs) == 0 {
		return cfgs, nil
	}
	cfgs = make([]core.Config, 0, len(req.Configs))
	for _, name := range req.Configs {
		cfg, err := core.ParseConfig(name)
		if err != nil {
			return nil, badCell(err, "", name)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// NewGridCell builds one grid cell from a served ResultDoc body or,
// when f is non-nil, from the failure.
func NewGridCell(bench, config string, body []byte, f *Failure) GridCell {
	cell := GridCell{Bench: bench, Config: config}
	if f != nil {
		cell.Error, cell.Kind, cell.Phase = f.Msg, f.Kind, f.Phase
		return cell
	}
	var doc ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		cell.Error, cell.Kind = err.Error(), "fault"
		return cell
	}
	cell.Metrics = doc.Metrics
	return cell
}
