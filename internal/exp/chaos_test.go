package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// These tests drive the engine's fault-isolation machinery with seeded,
// deterministic fault injection (internal/faultinject): a panicking cell
// must become a structured CellError instead of a process crash, the
// grid must complete degraded with every healthy cell intact, transient
// faults must be retried exactly once, deadlines must convert hangs into
// timed-out cells, and identical seeds must injure identical cell sets.
//
// The injection plan is process-global, so none of these tests may run
// in parallel with each other or with the rest of the package.

// chaosCounters extracts the engine's robustness counters from a run.
func chaosCounters(t *testing.T, s *Suite) map[string]int64 {
	t.Helper()
	merged := s.MergedObs()
	if merged == nil {
		t.Fatal("no engine counters on a faulted run")
	}
	return merged.Counters
}

// TestChaosPanicIsolation injects a panic into every compile of one
// benchmark and asserts the blast radius is exactly that benchmark: its
// 16 cells fail as structured CellErrors (with the panic value, a stack,
// and a retry), the other benchmark's cells all succeed, and the tables
// still render with degraded rows.
func TestChaosPanicIsolation(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "core/compile", Key: "tomcatv", Mode: faultinject.ModePanic,
	}))
	defer faultinject.Disable()

	s, err := RunGrid([]string{"tomcatv", "DYFESM"}, Options{Jobs: 4})
	if err == nil {
		t.Fatal("panicking benchmark did not degrade the grid")
	}
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("degraded grid returned %T, want *GridError: %v", err, err)
	}
	if len(ge.Cells) != len(Cells()) {
		t.Fatalf("%d cells failed, want %d (one benchmark)", len(ge.Cells), len(Cells()))
	}
	for _, ce := range ge.Cells {
		if ce.Bench != "tomcatv" {
			t.Errorf("cell %s/%s failed; blast radius escaped tomcatv", ce.Bench, ce.Config)
		}
		if ce.Panic == nil || !faultinject.IsInjectedPanic(ce.Panic) {
			t.Errorf("cell %s: panic value %v not the injected one", ce.Config, ce.Panic)
		}
		if !strings.Contains(ce.Stack, "faultinject") {
			t.Errorf("cell %s: stack trace does not reach the injection site", ce.Config)
		}
		if ce.Phase != "compile" {
			t.Errorf("cell %s: phase %q, want compile", ce.Config, ce.Phase)
		}
		if ce.Attempts != 2 {
			t.Errorf("cell %s: %d attempts, want 2 (panic is transient, one retry)", ce.Config, ce.Attempts)
		}
	}
	for _, cfg := range Cells() {
		if _, ok := s.metrics("DYFESM", cfg); !ok {
			t.Errorf("healthy cell DYFESM/%s missing from degraded suite", cfg.Name())
		}
		if r := s.Get("tomcatv", cfg); r == nil || r.Err == nil {
			t.Errorf("injured cell tomcatv/%s missing its CellError", cfg.Name())
		}
	}

	// Tables degrade instead of panicking: tomcatv renders as a "----"
	// row, DYFESM as numbers.
	var sb strings.Builder
	s.Table4().Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "tomcatv") || !strings.Contains(out, "----") {
		t.Errorf("Table 4 did not render a degraded tomcatv row:\n%s", out)
	}
	if !strings.Contains(out, "DYFESM") {
		t.Errorf("Table 4 lost the healthy benchmark:\n%s", out)
	}

	c := chaosCounters(t, s)
	if c["exp/cell_errors"] != 16 || c["exp/cell_panics"] != 32 || c["exp/cell_retries"] != 16 {
		t.Errorf("counters errors=%d panics=%d retries=%d, want 16/32/16",
			c["exp/cell_errors"], c["exp/cell_panics"], c["exp/cell_retries"])
	}
	if c["verify/failures"] != 0 {
		t.Errorf("verify/failures = %d for a non-verification fault", c["verify/failures"])
	}
}

// TestChaosRetryRecovers injects a panic on only the first attempt of
// every cell; the bounded retry must absorb all of them and the grid
// must complete clean.
func TestChaosRetryRecovers(t *testing.T) {
	plan, err := faultinject.ParseSpec(7, "exp/cell=panic@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	s, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4})
	if err != nil {
		t.Fatalf("retry did not absorb first-attempt panics: %v", err)
	}
	for _, cfg := range Cells() {
		if _, ok := s.metrics("tomcatv", cfg); !ok {
			t.Errorf("cell %s missing after retry", cfg.Name())
		}
	}
	c := chaosCounters(t, s)
	if c["exp/cell_panics"] != 16 || c["exp/cell_retries"] != 16 {
		t.Errorf("counters panics=%d retries=%d, want 16/16", c["exp/cell_panics"], c["exp/cell_retries"])
	}
	if c["exp/cell_errors"] != 0 {
		t.Errorf("exp/cell_errors = %d on a recovered run", c["exp/cell_errors"])
	}
}

// TestChaosTimeout injects a delay far past the cell deadline into one
// cell and asserts it is abandoned, retried once, and reported as a
// timed-out CellError while the rest of the grid completes. An abandoned
// attempt keeps its goroutine but not its worker: the retry starts at
// once on a fresh goroutine, so the grid ends before the delay does.
func TestChaosTimeout(t *testing.T) {
	plan, err := faultinject.ParseSpec(1, "exp/cell|tomcatv/BS+LA+TrS+LU8=delay:10s")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	// The deadline must sit far above a real cell's cost (milliseconds,
	// but race-instrumented CI and the shared front-end inflate it) and
	// far below the injected delay, so only the delayed cell can exhaust
	// both attempts.
	start := time.Now()
	s, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4, CellTimeout: 2 * time.Second})
	if took := time.Since(start); took >= 10*time.Second {
		t.Errorf("grid took %v, past the 10s delay: the retry waited for the abandoned attempt", took)
	}
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("hung cell did not degrade the grid: %v", err)
	}
	if len(ge.Cells) != 1 {
		t.Fatalf("%d cells failed, want 1: %v", len(ge.Cells), ge)
	}
	ce := ge.Cells[0]
	if ce.Bench != "tomcatv" || ce.Config != "BS+LA+TrS+LU8" {
		t.Errorf("wrong cell timed out: %s/%s", ce.Bench, ce.Config)
	}
	if !ce.Timeout {
		t.Errorf("cell error not marked as timeout: %v", ce)
	}
	if ce.Attempts != 2 {
		t.Errorf("%d attempts, want 2 (timeout is transient, one retry)", ce.Attempts)
	}
	healthy := 0
	for _, cfg := range Cells() {
		if _, ok := s.metrics("tomcatv", cfg); ok {
			healthy++
		}
	}
	if healthy != len(Cells())-1 {
		t.Errorf("%d healthy cells, want %d", healthy, len(Cells())-1)
	}
	// Healthy cells may incidentally time out once under load and recover
	// on retry, so the timeout/retry counters are lower bounds; the error
	// count is exact.
	c := chaosCounters(t, s)
	if c["exp/cell_timeouts"] < 2 || c["exp/cell_retries"] < 1 || c["exp/cell_errors"] != 1 {
		t.Errorf("counters timeouts=%d retries=%d errors=%d, want >=2/>=1/1",
			c["exp/cell_timeouts"], c["exp/cell_retries"], c["exp/cell_errors"])
	}
}

// TestChaosErrorNotRetried asserts a deterministic injected error — as
// opposed to a panic or timeout — is not retried: re-running a cell that
// failed cleanly would just fail again.
func TestChaosErrorNotRetried(t *testing.T) {
	plan, err := faultinject.ParseSpec(1, "exp/cell|tomcatv/BS+LA+TrS+LU8=error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, err = RunGrid([]string{"tomcatv"}, Options{Jobs: 4})
	var ge *GridError
	if !errors.As(err, &ge) || len(ge.Cells) != 1 {
		t.Fatalf("want exactly one failed cell, got %v", err)
	}
	ce := ge.Cells[0]
	if !faultinject.IsInjected(ce.Err) {
		t.Errorf("cell error %v does not unwrap to the injected fault", ce.Err)
	}
	if ce.Attempts != 1 {
		t.Errorf("%d attempts, want 1 (deterministic errors are not retried)", ce.Attempts)
	}
}

// TestChaosDeepSiteIsolation injects an error at a pipeline-internal
// site (regalloc) and asserts it surfaces as exactly one compile-phase
// CellError — the recover/isolation machinery works for faults deep in
// the stack, not just at the cell boundary.
func TestChaosDeepSiteIsolation(t *testing.T) {
	plan, err := faultinject.ParseSpec(1, "regalloc/allocate|tomcatv=error@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, err = RunGrid([]string{"tomcatv"}, Options{Jobs: 4})
	var ge *GridError
	if !errors.As(err, &ge) || len(ge.Cells) != 1 {
		t.Fatalf("want exactly one failed cell (all cells share the regalloc hit counter), got %v", err)
	}
	ce := ge.Cells[0]
	if ce.Phase != "compile" {
		t.Errorf("phase %q, want compile", ce.Phase)
	}
	if !faultinject.IsInjected(ce.Err) {
		t.Errorf("cell error %v does not unwrap to the injected fault", ce.Err)
	}
}

// TestChaosSeededRandom asserts probabilistic injection is deterministic
// under a fixed seed: two serial runs with the same plan injure the
// identical, non-trivial subset of cells.
func TestChaosSeededRandom(t *testing.T) {
	injured := func() map[string]bool {
		plan, err := faultinject.ParseSpec(42, "core/compile=error~0.4")
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Enable(plan)
		defer faultinject.Disable()
		// Jobs: 1 fixes cell execution order, so hit ordinals — and with
		// them the seeded decisions — are reproducible.
		_, err = RunGrid(subset, Options{Jobs: 1})
		set := map[string]bool{}
		var ge *GridError
		if errors.As(err, &ge) {
			for _, ce := range ge.Cells {
				set[ce.Bench+"/"+ce.Config] = true
			}
		}
		return set
	}
	a, b := injured(), injured()
	total := len(subset) * len(Cells())
	if len(a) == 0 || len(a) == total {
		t.Fatalf("injected %d of %d cells; probabilistic plan degenerated", len(a), total)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed injured %d then %d cells", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("cell %s injured in first run only", k)
		}
	}
}

// TestChaosExtensionDegradedRows injures one benchmark of the extension
// grid: the run still returns its Suite next to the *GridError, and each
// of E1-E3 renders a "----" row for the injured benchmark, the healthy
// benchmark's numbers, and an AVERAGE over the healthy benchmark alone.
func TestChaosExtensionDegradedRows(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "core/compile", Key: "TRFD", Mode: faultinject.ModePanic,
	}))
	defer faultinject.Disable()

	s, err := RunExt([]string{"tomcatv", "TRFD"}, Options{Jobs: 2})
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("injured extension grid returned %v, want a *GridError", err)
	}
	if s == nil {
		t.Fatal("injured extension grid returned no Suite")
	}
	if len(ge.Cells) != len(extSpecs) {
		t.Errorf("%d cells failed, want TRFD's %d", len(ge.Cells), len(extSpecs))
	}
	for _, ce := range ge.Cells {
		if ce.Bench != "TRFD" {
			t.Errorf("cell %s/%s failed; blast radius escaped TRFD", ce.Bench, ce.Config)
		}
	}
	for _, tab := range []*Table{s.TableE1(), s.TableE2(), s.TableE3()} {
		rows := map[string][]string{}
		for _, row := range tab.Rows {
			rows[row[0]] = row[1:]
		}
		if len(tab.Rows) != 3 {
			t.Fatalf("%s\nhas %d rows, want tomcatv, TRFD and AVERAGE", tab.Title, len(tab.Rows))
		}
		for _, c := range rows["TRFD"] {
			if c != "----" {
				t.Errorf("%s\nTRFD row %v, want every column ----", tab.Title, rows["TRFD"])
				break
			}
		}
		for _, c := range rows["tomcatv"] {
			if c == "----" || c == "" {
				t.Errorf("%s\ntomcatv row %v lost its numbers", tab.Title, rows["tomcatv"])
				break
			}
		}
		if !reflect.DeepEqual(rows["AVERAGE"], rows["tomcatv"]) {
			t.Errorf("%s\nAVERAGE %v, want tomcatv's row %v", tab.Title, rows["AVERAGE"], rows["tomcatv"])
		}
	}
}
