// Command paperbench regenerates the paper's tables: it compiles every
// workload program under all sixteen scheduling/optimization
// configurations, simulates each on the Alpha 21164 model, verifies that
// all configurations compute identical program outputs, and prints the
// requested tables. The grid executes on the cell-parallel engine: every
// (benchmark, configuration) cell is an independent, fault-isolated unit
// of work — a panicking or hung cell degrades its table rows instead of
// killing the run.
//
// Usage:
//
//	paperbench [-table N] [-bench name,name,...] [-jobs N] [-json] [-v]
//	           [-verify] [-cell-timeout d] [-journal cells.jsonl] [-resume]
//	           [-out file] [-tracefile out.json] [-metrics out.txt]
//	           [-cpuprofile out.pb.gz] [-memprofile out.pb.gz] [-gotrace out.trace]
//
// With no flags it prints every table (1-9). -jobs bounds concurrent
// cells (default GOMAXPROCS); -json emits the raw grid — per-cell metrics,
// phase timings and observability counters — instead of rendered tables;
// -v streams live cells-done/total progress to stderr.
//
// Robustness: -verify runs the internal/verify invariant checkers (IR,
// DAG, schedule, register allocation) between every compile phase of
// every cell. -cell-timeout bounds each cell's wall clock. -journal
// appends each finished cell to a JSONL journal as it completes, and
// -resume replays the journal's successful cells instead of recomputing
// them. -out writes the rendered output to a file atomically
// (temp+rename) instead of stdout. -faultspec/-faultseed install a
// deterministic fault-injection plan (for chaos testing the pipeline).
//
// Exit codes: 0 = clean run; 1 = usage or fatal error; 2 = the grid
// completed degraded (some cells failed; tables/JSON cover the healthy
// cells); 3 = at least one failure was a verification failure (invariant
// or output-checksum violation) — the most serious outcome, since it
// means the compiler produced a wrong result rather than crashing.
//
// Observability: -tracefile records one span per grid cell (with nested
// compile-phase and simulation spans) on one lane per worker and writes
// Chrome trace-event JSON renderable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. -metrics dumps the merged compiler/simulator counter
// registry as Prometheus-style text. -cpuprofile/-memprofile write pprof
// profiles and -gotrace a Go execution trace of the whole run.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/hlirgen"
	"repro/internal/obs"
	"repro/internal/verify"
)

// prof, tracer and traceFilePath are package-level so fail can flush a
// partial trace and stop profiles before exiting.
var (
	prof          *obs.Profiles
	tracer        *obs.Tracer
	traceFilePath string
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	table := fs.Int("table", 0, "print only table N (1-9); 0 = all")
	benchList := fs.String("bench", "", "comma-separated benchmark subset (default: all 17)")
	ext := fs.Bool("ext", false, "also run the extension experiments (E1 superscalar, E2 policies, E3 prefetching)")
	genN := fs.Int("gen", 0, "run the reduced grid over N generated programs (internal/hlirgen) and print per-stratum statistics instead of the paper tables")
	genSeed := fs.Uint64("genseed", 1, "corpus seed for -gen; the same (N, seed) reproduces the same corpus and table byte for byte")
	jobs := fs.Int("jobs", 0, "max concurrently executing grid cells (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (per-cell metrics, phase timings + counters) instead of tables")
	verbose := fs.Bool("v", false, "print live per-cell progress")
	verifyFlag := fs.Bool("verify", false, "run structural invariant verifiers between every compile phase")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock bound per grid cell (0 = none)")
	journal := fs.String("journal", "", "append each finished cell to this JSONL journal")
	resume := fs.Bool("resume", false, "replay cells already in -journal instead of recomputing them")
	outFile := fs.String("out", "", "write output to this file atomically (temp+rename) instead of stdout")
	faultSpec := fs.String("faultspec", "", "deterministic fault-injection plan, e.g. 'regalloc/allocate=error@1;sim/run=delay:50ms~0.1'")
	faultSeed := fs.Int64("faultseed", 1, "seed for probabilistic fault-injection decisions")
	traceFile := fs.String("tracefile", "", "write a Chrome trace-event JSON timeline of the grid run (Perfetto)")
	metricsFile := fs.String("metrics", "", "write the merged counter registry as a Prometheus-style text dump")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit")
	goTrace := fs.String("gotrace", "", "write a Go execution trace (inspect with go tool trace)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var names []string
	if *benchList != "" {
		names = strings.Split(*benchList, ",")
	}

	if *faultSpec != "" {
		plan, err := faultinject.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			return fail(err)
		}
		faultinject.Enable(plan)
		defer faultinject.Disable()
	}

	var err error
	prof, err = obs.StartProfiles(*cpuProfile, *memProfile, *goTrace)
	if err != nil {
		return fail(err)
	}
	defer prof.Stop()
	if *traceFile != "" {
		tracer = obs.NewTracer()
		traceFilePath = *traceFile
	}
	defer flushTrace()

	// Output goes to stdout, or — with -out — through a buffer that is
	// committed atomically at the end so a crash never leaves a torn file.
	w := io.Writer(os.Stdout)
	var outBuf *bytes.Buffer
	if *outFile != "" {
		outBuf = &bytes.Buffer{}
		w = outBuf
	}
	commit := func(code int) int {
		if outBuf != nil {
			if err := exp.WriteFileAtomic(*outFile, outBuf.Bytes()); err != nil {
				return fail(err)
			}
		}
		return code
	}

	// SIGINT/SIGTERM cancel the grid instead of killing the process: the
	// engine stops in-flight cells at their next phase boundary, skips
	// queued cells, flushes the journal, and the run exits through the
	// degraded-grid path (code 2) with every canceled cell reported —
	// never mid-write. A second signal kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	opt := exp.Options{
		Ctx:         ctx,
		Jobs:        *jobs,
		Tracer:      tracer,
		Observe:     *jsonOut || *metricsFile != "",
		Verify:      *verifyFlag,
		CellTimeout: *cellTimeout,
		Journal:     *journal,
		Resume:      *resume,
	}
	if *verbose {
		opt.Progress = func(done, total int, bench, config string) {
			fmt.Fprintf(os.Stderr, "[%6.1fs] %3d/%d %s %s\n",
				time.Since(start).Seconds(), done, total, bench, config)
		}
	}

	if *genN > 0 {
		if *jsonOut || *ext || *table != 0 || *benchList != "" {
			fmt.Fprintln(os.Stderr, "paperbench: -gen is a statistics mode; it cannot combine with -json, -ext, -table or -bench")
			return 1
		}
		return commit(runGenerated(w, *genN, *genSeed, opt, *verbose, start))
	}

	if *ext && *table == 0 {
		code := 0
		if *jsonOut {
			for _, f := range []func([]string, ...exp.Options) ([]exp.ExtResult, error){exp.RunE1, exp.RunE2, exp.RunE3} {
				res, err := f(names, opt)
				if err != nil {
					var ge *exp.GridError
					if !errors.As(err, &ge) {
						return fail(err)
					}
					code = maxCode(code, reportDegraded(ge))
				}
				if err := exp.WriteExtJSON(w, res); err != nil {
					return fail(err)
				}
			}
			return commit(code)
		}
		for _, f := range []func([]string, ...exp.Options) (*exp.Table, error){exp.TableE1, exp.TableE2, exp.TableE3} {
			t, err := f(names, opt)
			if err != nil {
				var ge *exp.GridError
				if !errors.As(err, &ge) {
					return fail(err)
				}
				code = maxCode(code, reportDegraded(ge))
				continue
			}
			t.Write(w)
		}
		return commit(code)
	}

	// Static tables need no simulation.
	static := map[int]func() *exp.Table{1: exp.Table1, 2: exp.Table2, 3: exp.Table3}
	if f, ok := static[*table]; ok {
		f().Write(w)
		return commit(0)
	}
	dynamicTable := *table >= 4 && *table <= 9
	if *table != 0 && !dynamicTable {
		fmt.Fprintf(os.Stderr, "paperbench: no table %d\n", *table)
		return 1
	}

	suite, err := exp.RunGrid(names, opt)
	code := 0
	if err != nil {
		var ge *exp.GridError
		if !errors.As(err, &ge) || suite == nil {
			return fail(err)
		}
		// Degraded: every healthy cell is still in the suite; render
		// partial tables and report the injured cells on stderr.
		code = reportDegraded(ge)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "grid complete in %.1fs\n", time.Since(start).Seconds())
	}

	if *metricsFile != "" {
		if err := writeMetrics(suite, *metricsFile); err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		if err := suite.WriteJSON(w); err != nil {
			return fail(err)
		}
		return commit(code)
	}

	dynamic := map[int]func() *exp.Table{
		4: suite.Table4, 5: suite.Table5, 6: suite.Table6,
		7: suite.Table7, 8: suite.Table8, 9: suite.Table9,
	}
	if dynamicTable {
		dynamic[*table]().Write(w)
		return commit(code)
	}
	exp.Table1().Write(w)
	exp.Table2().Write(w)
	exp.Table3().Write(w)
	for _, t := range suite.Tables() {
		t.Write(w)
	}
	return commit(code)
}

// runGenerated is the -gen statistics mode: mint a seeded corpus, run
// the reduced five-configuration grid over it, and print the per-stratum
// balanced-vs-list speedup table. The output is deterministic in
// (n, seed) — the corpus-reproducibility contract the docs promise.
func runGenerated(w io.Writer, n int, seed uint64, opt exp.Options, verbose bool, start time.Time) int {
	items, err := hlirgen.Corpus(seed, n)
	if err != nil {
		return fail(err)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "[%6.1fs] generated %d programs (seed %d)\n",
			time.Since(start).Seconds(), len(items), seed)
	}
	suite, err := exp.RunGenerated(items, opt)
	code := 0
	if err != nil {
		var ge *exp.GridError
		if !errors.As(err, &ge) || suite == nil {
			return fail(err)
		}
		code = reportDegraded(ge)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "grid complete in %.1fs\n", time.Since(start).Seconds())
	}
	exp.StratTable(suite, items).Write(w)
	return code
}

// reportDegraded summarizes a degraded grid on stderr and returns the
// exit code it warrants: 3 when any failure is a verification failure
// (the compiler produced a wrong result), 2 otherwise.
func reportDegraded(ge *exp.GridError) int {
	fmt.Fprintf(os.Stderr, "paperbench: grid completed degraded: %d cells failed\n", len(ge.Cells))
	code := 2
	for _, ce := range ge.Cells {
		fmt.Fprintf(os.Stderr, "  %v\n", ce)
		if verify.IsVerification(ce.Err) {
			code = 3
		}
	}
	return code
}

func maxCode(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// writeMetrics dumps the suite's merged observability snapshot in the
// Prometheus text exposition format, atomically.
func writeMetrics(suite *exp.Suite, path string) error {
	snap := suite.MergedObs()
	if snap == nil {
		return fmt.Errorf("no counters collected (internal error: -metrics should enable observation)")
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf, "paperbench_"); err != nil {
		return err
	}
	return exp.WriteFileAtomic(path, buf.Bytes())
}

// flushTrace writes the Chrome trace once; on a fatal exit a partial
// trace of the completed cells still lands on disk.
func flushTrace() {
	if tracer == nil || traceFilePath == "" {
		return
	}
	f, err := os.Create(traceFilePath)
	if err == nil {
		err = tracer.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: writing trace:", err)
	}
	tracer = nil
}

func fail(err error) int {
	flushTrace()
	prof.Stop()
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	return 1
}
