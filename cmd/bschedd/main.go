// Command bschedd is the compile-as-a-service daemon: a long-running
// HTTP server that compiles, schedules and simulates workload benchmarks
// on request, built on the same cell engine as paperbench.
//
// Usage (worker mode, the default):
//
//	bschedd [-addr :8344] [-queue N] [-workers N] [-deadline d] [-max-deadline d]
//	        [-breaker-threshold N] [-breaker-cooldown d]
//	        [-drain-timeout d] [-journal reqs.jsonl] [-verify]
//	        [-max-body N] [-read-header-timeout d]
//	        [-faultspec spec] [-faultseed N] [-tracefile out.json] [-v]
//	        [-log-level debug|info|warn|error]
//
// Usage (coordinator mode):
//
//	bschedd -coordinator -workers host:port,host:port,...
//	        [-addr :8344] [-probe-interval d]
//	        [-evict-after N] [-min-workers N]
//	        [-breaker-threshold N] [-breaker-cooldown d]
//	        [-deadline d] [-max-deadline d] [-max-body N]
//	        [-journal cells.jsonl] [-resume] [-drain-timeout d] [-v]
//
// In coordinator mode bschedd serves the same endpoints but executes
// nothing itself: /v1/grid cells shard across the worker fleet by
// rendezvous hash on benchmark name (keeping each worker's
// per-benchmark front-end and result caches hot), health-checked via
// /readyz with exponential-backoff probing, dispatched under bounded
// per-worker in-flight windows (8 cells) with per-cell retry,
// jittered backoff and failover to the next healthy worker, up to
// max(3, 2 × members) attempts per cell. A worker whose /readyz probe
// gets no answer (dead, or frozen under SIGSTOP) loses its in-flight
// cells to the failover at once, so -probe-interval plus the 1s probe
// timeout bounds how long they wait. When every replica of a cell is
// exhausted the cell degrades to a structured error entry — the grid
// never fails whole. /v1/grid?stream=jsonl (or sse) streams cells as
// they finish. The -workers flag is the initial fleet roster: a
// comma-separated host:port list (in worker mode the same flag is the
// pipeline concurrency bound).
//
// The fleet is elastic: POST /v1/fleet/join {"addr":"host:port"}
// admits a worker at runtime (it is probed synchronously and starts
// receiving cells immediately), POST /v1/fleet/leave removes one
// (in-flight cells drain, new cells stop routing at once), GET
// /v1/fleet/members lists the roster, and -evict-after N removes a
// worker automatically after N consecutive failed health probes (the
// last member is never evicted). Placement is derived from the member
// set, so a membership change remaps only ~1/n of benchmark keys and
// the surviving workers' caches stay hot. Every served cell's bytes
// are promoted into a shared result-cache tier that, like a worker's
// result cache, never evicts; failovers consult that tier — then the
// surviving workers' own caches over GET /v1/cache/{key} — before
// recomputing, so a worker death does not cost recomputation of what
// it had already served. The coordinator's /readyz is quorum-aware:
// it answers 503 naming the down workers while fewer than
// -min-workers members are healthy.
//
// Endpoints:
//
//	POST /v1/compile  {"bench":"tomcatv","config":"BS+LU4","verify":false,"deadline_ms":2000}
//	POST /v1/grid     {"benches":["tomcatv"],"configs":["BS","TS"],"deadline_ms":10000}
//	GET  /healthz     liveness (200 while the process serves)
//	GET  /readyz      readiness (503 while draining or breaker-saturated)
//	GET  /metrics     Prometheus text: counters + latency histograms + queue/breaker/cache gauges
//	GET  /debug/obs   live observability snapshot as JSON (stats, gauges, runtime, waits)
//
// Both modes run one request lifecycle (server.Daemon): the same request
// IDs, POST-only and draining checks, -max-body limit (413 beyond it),
// -deadline/-max-deadline request deadlines, structured error bodies
// with jittered Retry-After hints, /healthz, /metrics preamble and
// drain. The flags' defaults are the lifecycle's defaults in both modes.
//
// Robustness: requests beyond -queue are shed with 429 + Retry-After;
// every request runs under a deadline propagated through the pipeline
// (expiry returns a structured 504 naming the phase); repeated pipeline
// faults open a per-benchmark circuit breaker (503 until a half-open
// probe succeeds); duplicate in-flight requests collapse to one compile
// (singleflight), and every computed response stays in the result
// cache, which never evicts because the cell space is bounded. On
// SIGTERM/SIGINT the daemon drains: it stops accepting, finishes or
// cancels in-flight work under -drain-timeout, flushes the request
// journal and exits 0.
//
// Logging: structured log/slog lines on stderr, thresholded by
// -log-level. Every line carries the request ID (client X-Request-Id or
// minted), the same ID stamped on the response header, the error body's
// request_id field and the request journal — one join key across all
// four.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bschedd", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	queue := fs.Int("queue", 64, "admission queue capacity (excess requests are shed with 429)")
	workers := fs.String("workers", "", "worker mode: max concurrently executing pipeline runs (0 = GOMAXPROCS); coordinator mode: comma-separated worker host:port list")
	coordinator := fs.Bool("coordinator", false, "run as a fleet coordinator sharding grid cells across -workers instead of executing locally")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-request deadline")
	maxDeadline := fs.Duration("max-deadline", 2*time.Minute, "ceiling on client-requested deadlines")
	brkThreshold := fs.Int("breaker-threshold", 3, "consecutive faults that open a breaker (per benchmark in worker mode, per worker in coordinator mode)")
	brkCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight work on SIGTERM/SIGINT")
	journal := fs.String("journal", "", "append each finished request (worker) or cell (coordinator) to this JSONL journal")
	resume := fs.Bool("resume", false, "coordinator: replay completed cells from -journal instead of re-dispatching them")
	verifyFlag := fs.Bool("verify", false, "run structural invariant verifiers inside every request")
	maxBody := fs.Int64("max-body", 1<<20, "request-body size limit in bytes (413 beyond it)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "HTTP header read timeout (slow-loris protection)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "coordinator: /readyz health-check cadence for healthy workers; a probe unanswered within 1s fails the worker's in-flight cells over")
	evictAfter := fs.Int("evict-after", 0, "coordinator: evict a worker after this many consecutive failed probes (0 = never)")
	minWorkers := fs.Int("min-workers", 1, "coordinator: /readyz quorum — 503 while fewer workers are healthy")
	faultSpec := fs.String("faultspec", "", "deterministic fault-injection plan (chaos drills)")
	faultSeed := fs.Int64("faultseed", 1, "seed for probabilistic fault-injection decisions")
	traceFile := fs.String("tracefile", "", "write a Chrome trace-event JSON timeline of served requests at exit")
	verbose := fs.Bool("v", false, "log request lifecycle events")
	logLevel := fs.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bschedd: -log-level %q: %v\n", *logLevel, err)
		return 1
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *faultSpec != "" {
		plan, err := faultinject.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bschedd:", err)
			return 1
		}
		faultinject.Enable(plan)
		defer faultinject.Disable()
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
	}

	// Both modes expose the same lifecycle: a handler to serve and a
	// drain to run on SIGTERM.
	var handler http.Handler
	var drain func(context.Context) error
	if *coordinator {
		var fleetAddrs []string
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				fleetAddrs = append(fleetAddrs, a)
			}
		}
		coord, err := fleet.New(fleet.Config{
			Workers:          fleetAddrs,
			ProbeInterval:    *probeInterval,
			EvictAfterFails:  *evictAfter,
			MinWorkers:       *minWorkers,
			BreakerThreshold: *brkThreshold,
			BreakerCooldown:  *brkCooldown,
			DefaultDeadline:  *deadline,
			MaxDeadline:      *maxDeadline,
			MaxBodyBytes:     *maxBody,
			Journal:          *journal,
			Resume:           *resume,
			Logger:           logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bschedd:", err)
			return 1
		}
		handler, drain = coord.Handler(), coord.Drain
	} else {
		pipelineWorkers := 0
		if *workers != "" {
			n, err := strconv.Atoi(*workers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bschedd: -workers %q: want an integer in worker mode (a host:port list needs -coordinator)\n", *workers)
				return 1
			}
			pipelineWorkers = n
		}
		srv, err := server.New(server.Config{
			Queue:            *queue,
			Workers:          pipelineWorkers,
			DefaultDeadline:  *deadline,
			MaxDeadline:      *maxDeadline,
			BreakerThreshold: *brkThreshold,
			BreakerCooldown:  *brkCooldown,
			MaxBodyBytes:     *maxBody,
			Journal:          *journal,
			Verify:           *verifyFlag,
			Tracer:           tracer,
			Logger:           logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bschedd:", err)
			return 1
		}
		handler, drain = srv.Handler(), srv.Drain
	}

	// Listen explicitly (rather than ListenAndServe) so ":0" works and the
	// resolved address is reportable — tests and scripts bind an ephemeral
	// port and read it off stderr.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bschedd:", err)
		return 1
	}
	httpSrv := server.NewHTTPServer(handler, *readHeaderTimeout)
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if *verbose {
		if *coordinator {
			fmt.Fprintf(os.Stderr, "bschedd: coordinating on %s (workers %s)\n", ln.Addr(), *workers)
		} else {
			fmt.Fprintf(os.Stderr, "bschedd: serving on %s (queue %d)\n", ln.Addr(), *queue)
		}
	}

	select {
	case err := <-errCh:
		// The listener died before any signal: fatal.
		fmt.Fprintln(os.Stderr, "bschedd:", err)
		return 1
	case <-sigCtx.Done():
	}

	// Graceful drain: flip readiness and reject new work first, then give
	// in-flight requests until -drain-timeout before canceling them, then
	// close the listener. The journal is flushed before Drain returns.
	if *verbose {
		fmt.Fprintf(os.Stderr, "bschedd: draining (timeout %s)\n", *drainTimeout)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bschedd: journal:", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "bschedd: shutdown:", err)
		code = 1
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed

	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err == nil {
			err = tracer.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bschedd: writing trace:", err)
			code = 1
		}
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, "bschedd: drained, exiting")
	}
	return code
}
