package exp

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// renderAll renders every dynamic table — the whole scientific output of
// a grid run — into one string for byte-level comparison.
func renderAll(s *Suite) string {
	var sb strings.Builder
	for _, t := range s.Tables() {
		t.Write(&sb)
	}
	return sb.String()
}

// resumeBenches keeps the resume grids two benchmarks wide: one to
// injure and one to journal.
var resumeBenches = []string{"tomcatv", "DYFESM"}

// TestResumeByteIdenticalTables is the acceptance test for the cell
// journal: a grid that is interrupted by injected faults and then
// resumed (faults gone) renders byte-identical tables to a clean
// uninterrupted run, with the journaled cells replayed instead of
// recomputed.
func TestResumeByteIdenticalTables(t *testing.T) {
	clean, err := RunGrid(resumeBenches, Options{Jobs: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(clean)

	journal := filepath.Join(t.TempDir(), "cells.jsonl")

	// First run: every tomcatv compile fails, the rest of the grid lands
	// in the journal.
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "core/compile", Key: "tomcatv", Mode: faultinject.ModeError,
	}))
	_, err = RunGrid(resumeBenches, Options{Jobs: 4, Verify: true, Journal: journal})
	faultinject.Disable()
	var ge *GridError
	if !errors.As(err, &ge) || len(ge.Cells) != len(Cells()) {
		t.Fatalf("injured run: want %d failed cells, got %v", len(Cells()), err)
	}

	// Second run: faults are gone; journaled cells replay, failed ones
	// recompute.
	resumed, err := RunGrid(resumeBenches, Options{Jobs: 4, Verify: true, Journal: journal, Resume: true})
	if err != nil {
		t.Fatalf("resumed run still degraded: %v", err)
	}
	if got := renderAll(resumed); got != want {
		t.Errorf("resumed tables differ from a clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
	c := resumed.MergedObs()
	if c == nil || c.Counters["exp/cells_resumed"] != int64(len(Cells())) {
		t.Errorf("cells_resumed = %v, want %d (DYFESM replayed, tomcatv recomputed)",
			c.Counters["exp/cells_resumed"], len(Cells()))
	}

	// Third run: everything is journaled now; a fresh resume replays the
	// whole grid without executing a single cell, still byte-identical.
	replayed, err := RunGrid(resumeBenches, Options{Jobs: 4, Verify: true, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(replayed); got != want {
		t.Errorf("fully replayed tables differ from a clean run")
	}
	if c := replayed.MergedObs(); c == nil || c.Counters["exp/cells_resumed"] != int64(2*len(Cells())) {
		t.Errorf("full replay resumed %v cells, want %d", c.Counters["exp/cells_resumed"], 2*len(Cells()))
	}
}

// TestResumeSurvivesTornTail appends a half-written line — the shape an
// interrupted process leaves — to a valid journal and asserts resume
// keeps every complete entry and recomputes the rest.
func TestResumeSurvivesTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cells.jsonl")
	if _, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"bench":"tomcatv","config":"BS","met`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, err := readJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Cells()) {
		t.Fatalf("read %d entries from torn journal, want %d", len(entries), len(Cells()))
	}
	s, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Cells() {
		if _, ok := s.metrics("tomcatv", cfg); !ok {
			t.Errorf("cell %s missing after torn-tail resume", cfg.Name())
		}
	}
}

// TestResumeAfterTornTailJournalsNewCells is the regression test for a
// resumed run appending onto a crash's torn fragment: the first new
// record would extend the fragment into one malformed line, and the
// reader, which stops there, would lose every cell the resumed run
// journaled. The resumed run must leave a journal that reads back whole.
func TestResumeAfterTornTailJournalsNewCells(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cells.jsonl")
	if _, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	half := len(Cells()) / 2
	torn := strings.Join(lines[:half], "") + `{"bench":"tomcatv","config":"BS","met`
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := RunGrid([]string{"tomcatv"}, Options{Jobs: 4, Journal: journal, Resume: true}); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Cells()) {
		t.Fatalf("journal reads back %d entries after the resumed run, want %d", len(entries), len(Cells()))
	}
}

// TestResumeRequiresJournal pins the option contract: Resume without a
// journal path is a configuration error, not a silent full re-run.
func TestResumeRequiresJournal(t *testing.T) {
	if _, err := RunGrid([]string{"tomcatv"}, Options{Resume: true}); err == nil {
		t.Error("Resume without Journal accepted")
	}
}

// TestWriteFileAtomic asserts the temp+rename write leaves the final
// content and nothing else — no temp droppings on success.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, content := range []string{"first", "second, overwriting"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("read %q, want %q", got, content)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Errorf("directory holds %d entries after atomic writes, want 1", len(names))
	}
}
