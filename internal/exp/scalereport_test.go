package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunScaleReport runs the sweep over one benchmark and checks the
// report's internal consistency: widths ascend to GOMAXPROCS, the
// jobs=1 row is its own baseline, attribution keys are the documented
// set, and the attributed seconds land within tolerance of the measured
// gap (the ±10%-of-gap acceptance bound, with an absolute floor for
// sub-millisecond gaps where scheduler noise dominates).
func TestRunScaleReport(t *testing.T) {
	rep, err := RunScaleReport([]string{obsBench}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Widths) == 0 {
		t.Fatal("no widths measured")
	}
	first := rep.Widths[0]
	if first.Jobs != 1 {
		t.Fatalf("first width jobs = %d, want 1", first.Jobs)
	}
	if first.Speedup != 1 || first.Efficiency != 1 {
		t.Errorf("baseline speedup/efficiency = %v/%v, want 1/1", first.Speedup, first.Efficiency)
	}
	if rep.BaselineSeconds != first.WallSeconds {
		t.Errorf("baseline %v != first wall %v", rep.BaselineSeconds, first.WallSeconds)
	}
	last := rep.Widths[len(rep.Widths)-1]
	if last.Jobs != rep.GOMAXPROCS {
		t.Errorf("last width jobs = %d, want GOMAXPROCS %d", last.Jobs, rep.GOMAXPROCS)
	}
	for i := 1; i < len(rep.Widths); i++ {
		if rep.Widths[i].Jobs <= rep.Widths[i-1].Jobs {
			t.Errorf("widths not ascending: %d after %d", rep.Widths[i].Jobs, rep.Widths[i-1].Jobs)
		}
	}

	for _, sw := range rep.Widths {
		for _, key := range []string{"steal", "block-pool", "block-frontend",
			"merge", "compute-dilation", "idle"} {
			if _, ok := sw.Attribution[key]; !ok {
				t.Errorf("jobs=%d: attribution missing %q", sw.Jobs, key)
			}
		}
		// Attribution must explain the gap: |other| small relative to the
		// gap or absolutely tiny.
		tol := 0.10 * math.Abs(sw.GapSeconds)
		if tol < 0.015 {
			tol = 0.015
		}
		if math.Abs(sw.OtherSeconds) > tol {
			t.Errorf("jobs=%d: unattributed %.4fs exceeds tolerance %.4fs (gap %.4fs, attributed %.4fs)",
				sw.Jobs, sw.OtherSeconds, tol, sw.GapSeconds, sw.AttributedSeconds)
		}
		if len(sw.Timelines) != sw.Jobs {
			t.Errorf("jobs=%d: %d timeline lanes", sw.Jobs, len(sw.Timelines))
		}
	}
	if rep.GOMAXPROCS > 1 && rep.Dominant == "" {
		t.Error("multi-width report names no dominant resource")
	}

	// Text render mentions every width and the dominant resource.
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	if !strings.Contains(out, "Parallel scaling report") {
		t.Errorf("text render missing header:\n%s", out)
	}
	if rep.Dominant != "" && !strings.Contains(out, "Dominant serialization") {
		t.Errorf("text render missing dominant line:\n%s", out)
	}

	// JSON artifact round-trips.
	path := filepath.Join(t.TempDir(), "scale_report.json")
	if err := rep.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ScaleReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.GOMAXPROCS != rep.GOMAXPROCS || len(back.Widths) != len(rep.Widths) {
		t.Errorf("round-trip mismatch: %d widths / gomaxprocs %d", len(back.Widths), back.GOMAXPROCS)
	}
}

// TestContentionPreservesTables extends the instrumentation-cannot-move-
// the-science criterion to the contention layer: a grid run with full
// attribution on renders byte-identical paper tables to a bare run.
func TestContentionPreservesTables(t *testing.T) {
	plain, err := RunGrid([]string{obsBench}, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	attributed, err := RunGrid([]string{obsBench}, Options{Jobs: 2, Contention: obs.NewContention(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Table8().Rows, attributed.Table8().Rows) {
		t.Errorf("Table 8 differs with contention attribution on:\nplain: %v\nattributed: %v",
			plain.Table8().Rows, attributed.Table8().Rows)
	}
	if !reflect.DeepEqual(plain.Table9().Rows, attributed.Table9().Rows) {
		t.Errorf("Table 9 differs with contention attribution on:\nplain: %v\nattributed: %v",
			plain.Table9().Rows, attributed.Table9().Rows)
	}
}

// TestGridContentionInstruments checks the engine actually feeds the
// bundle: worker timelines exist per lane, the shared-resource wait
// histograms are registered, and run time dominates a healthy 1-bench
// grid.
func TestGridContentionInstruments(t *testing.T) {
	c := obs.NewContention(0)
	if _, err := RunGrid([]string{obsBench}, Options{Jobs: 2, Contention: c}); err != nil {
		t.Fatal(err)
	}
	snaps := c.Timelines.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("timeline lanes = %d, want 2", len(snaps))
	}
	totals := c.Timelines.StateTotals()
	if totals["run"] <= 0 {
		t.Errorf("no run time recorded: %v", totals)
	}
	waits := map[string]bool{}
	for _, ws := range c.Waits.Snapshot() {
		waits[ws.Resource] = true
	}
	for _, want := range []string{"taskqueue", "pool", "frontend", "steal", "merge"} {
		if !waits[want] {
			t.Errorf("wait histogram %q not registered (got %v)", want, waits)
		}
	}
}

// TestGridTraceIncludesStateLanes checks the tracer merge: a traced,
// attributed run exports worker-state lanes that survive the partition
// validator alongside the span lanes.
func TestGridTraceIncludesStateLanes(t *testing.T) {
	tr := obs.NewTracer()
	c := obs.NewContentionAt(tr.Epoch(), 0)
	if _, err := RunGrid([]string{obsBench}, Options{Jobs: 2, Tracer: tr, Contention: c}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("attributed trace fails validation: %v", err)
	}
	if sum.StateLanes != 2 {
		t.Errorf("state lanes = %d, want 2", sum.StateLanes)
	}
	if sum.States["run"] == 0 {
		t.Errorf("no run intervals in state lanes: %v", sum.States)
	}
	if sum.Names["cell"] != len(Cells()) {
		t.Errorf("span lanes lost: %d cell spans, want %d", sum.Names["cell"], len(Cells()))
	}
}
