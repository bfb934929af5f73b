package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// obsBench is the single benchmark the observability tests grid over; the
// full 16-configuration column keeps every phase (trace scheduling,
// locality, unrolling) in play.
const obsBench = "tomcatv"

// observedRun runs the grid once with tracing and counters on; the result
// is shared across this file's tests.
var observedRun struct {
	once sync.Once
	s    *Suite
	tr   *obs.Tracer
	err  error
}

func observedSuite(t *testing.T) (*Suite, *obs.Tracer) {
	t.Helper()
	observedRun.once.Do(func() {
		observedRun.tr = obs.NewTracer()
		observedRun.s, observedRun.err = RunGrid([]string{obsBench},
			Options{Jobs: 2, Tracer: observedRun.tr, Observe: true, Verify: true})
	})
	if observedRun.err != nil {
		t.Fatal(observedRun.err)
	}
	return observedRun.s, observedRun.tr
}

// TestGridObservedCounters asserts the registry's counter coverage: every
// cell carries a snapshot, and across the grid the compiler-side packages
// (dag, sched, regalloc, unroll, trace, locality, ...) register at least
// 12 distinct counters/histograms, unified with the simulator's metrics
// under "sim/".
func TestGridObservedCounters(t *testing.T) {
	s, _ := observedSuite(t)
	compiler := map[string]bool{}
	for _, cfg := range Cells() {
		r := s.Get(obsBench, cfg)
		if r == nil || r.Obs == nil {
			t.Fatalf("cell %s has no observability snapshot", cfg.Name())
		}
		if r.Obs.Counters["sim/cycles"] == 0 {
			t.Errorf("cell %s: sim metrics not folded into snapshot", cfg.Name())
		}
		for name := range r.Obs.Counters {
			if !strings.HasPrefix(name, "sim/") {
				compiler[name] = true
			}
		}
		for name := range r.Obs.Hists {
			compiler[name] = true
		}
	}
	if len(compiler) < 12 {
		names := make([]string, 0, len(compiler))
		for n := range compiler {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("only %d distinct compiler-side counters/histograms, want >= 12: %v",
			len(compiler), names)
	}
	for _, want := range []string{"dag/nodes", "sched/pick_by_priority", "regalloc/intervals"} {
		if !compiler[want] {
			t.Errorf("expected counter %q missing from every cell", want)
		}
	}
	merged := s.MergedObs()
	if merged == nil {
		t.Fatal("MergedObs returned nil for an observed run")
	}
	var buf bytes.Buffer
	if err := merged.WritePrometheus(&buf, "paperbench_"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paperbench_dag_nodes") {
		t.Errorf("prometheus dump missing dag counters:\n%.400s", buf.String())
	}
}

// TestGridTraceExport validates the Chrome traces of the grid at -jobs 2
// and -jobs 1: parseable, properly nested per lane, and with exactly the
// same phase structure for the grid's 16 cells at both. Each cell has
// one "cell", "sim" and "regalloc" span and one "lower" span for its
// clone of the prefix; each of the 6 transform prefixes adds one "lower"
// span and each distinct edge profile one "profile" span; the 9 cells
// without trace scheduling schedule per block ("sched"), the other 7
// trace-schedule ("trace").
func TestGridTraceExport(t *testing.T) {
	_, tr2 := observedSuite(t)
	tr1 := obs.NewTracer()
	if _, err := RunGrid([]string{obsBench}, Options{Jobs: 1, Tracer: tr1}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"cell": 16, "sim": 16, "regalloc": 16, "lower": 22, "sched": 9,
		"trace": 7, "profile": 5, "unroll": 4, "locality": 3, "frontend": 1,
	}
	for jobs, tr := range map[int]*obs.Tracer{1: tr1, 2: tr2} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("-jobs %d: grid trace fails validation: %v", jobs, err)
		}
		if !reflect.DeepEqual(sum.Names, want) {
			t.Errorf("-jobs %d: span counts %v, want %v", jobs, sum.Names, want)
		}
		if sum.Lanes < 1 || sum.Lanes > jobs {
			t.Errorf("-jobs %d: spans landed on %d lanes, want 1-%d", jobs, sum.Lanes, jobs)
		}
	}
}

// TestObservedJSONDeterministic pins -json -jobs 1 as reproducible: two
// observed runs of the same grid write the same bytes, because a cell's
// result holds only numbers that depend on its benchmark, configuration
// and issue width — no clock readings or allocation samples.
func TestObservedJSONDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		s, err := RunGrid([]string{"tomcatv", "TRFD"}, Options{Jobs: 1, Observe: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		a, b := strings.Split(out[0].String(), "\n"), strings.Split(out[1].String(), "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("two -jobs 1 runs differ first at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("two -jobs 1 runs differ in length: %d vs %d lines", len(a), len(b))
	}
}

// TestObservabilityPreservesTables is the acceptance criterion that
// instrumentation cannot move the science: the paper tables rendered from
// an observed run are byte-identical to an unobserved one.
func TestObservabilityPreservesTables(t *testing.T) {
	observed, _ := observedSuite(t)
	plain, err := RunGrid([]string{obsBench}, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Table8().Rows, observed.Table8().Rows) {
		t.Errorf("Table 8 differs between observed and plain runs:\nplain: %v\nobserved: %v",
			plain.Table8().Rows, observed.Table8().Rows)
	}
	if !reflect.DeepEqual(plain.Table9().Rows, observed.Table9().Rows) {
		t.Errorf("Table 9 differs between observed and plain runs:\nplain: %v\nobserved: %v",
			plain.Table9().Rows, observed.Table9().Rows)
	}
}

const schemaPath = "testdata/json_schema.txt"

// TestSuiteJSONSchema freezes the -json output schema: the sorted union
// of key paths in the serialized suite (array indices collapsed to []).
// A field added to or dropped from CellJSON, sim.Metrics or obs.Snapshot
// fails here until blessed with
//
//	go test ./internal/exp -run TestSuiteJSONSchema -update
func TestSuiteJSONSchema(t *testing.T) {
	s, _ := observedSuite(t)
	raw, err := json.Marshal(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	collectPaths("", v, set)
	got := make([]string, 0, len(set))
	for p := range set {
		got = append(got, p)
	}
	sort.Strings(got)

	if *update {
		if err := os.MkdirAll(filepath.Dir(schemaPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schemaPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s (%d paths)", schemaPath, len(got))
		return
	}

	buf, err := os.ReadFile(schemaPath)
	if err != nil {
		t.Fatalf("missing schema file (regenerate with -update): %v", err)
	}
	want := strings.Fields(string(buf))
	wantSet := map[string]bool{}
	for _, p := range want {
		wantSet[p] = true
	}
	for _, p := range got {
		if !wantSet[p] {
			t.Errorf("new JSON key path %q not in schema (bless with -update)", p)
		}
	}
	for _, p := range want {
		if !set[p] {
			t.Errorf("JSON key path %q vanished from the output (bless with -update)", p)
		}
	}
}

// collectPaths records every key path in a decoded JSON value; array
// elements are unioned under a collapsed "[]" segment.
func collectPaths(prefix string, v any, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			collectPaths(p, child, set)
		}
	case []any:
		for _, child := range v {
			collectPaths(prefix+"[]", child, set)
		}
	}
}

// init-time guard: the obs bench must exist in the workload, or every
// test above silently degrades to an empty grid.
func init() {
	if _, err := pick([]string{obsBench}); err != nil {
		panic(fmt.Sprintf("obs_test: %v", err))
	}
}
