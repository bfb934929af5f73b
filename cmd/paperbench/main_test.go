package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// The exit-code contract (0 clean, 1 usage/fatal, 2 degraded, 3
// verification failure) is asserted end-to-end: the test binary re-execs
// itself with PAPERBENCH_BE_MAIN=1, in which case TestMain runs realMain
// instead of the test suite.

func TestMain(m *testing.M) {
	if os.Getenv("PAPERBENCH_BE_MAIN") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runSelf re-executes the test binary as paperbench and returns its exit
// code plus captured output.
func runSelf(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPERBENCH_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return code, stdout.String(), stderr.String()
}

func TestExitCodeCleanStaticTable(t *testing.T) {
	code, out, _ := runSelf(t, "-table", "3")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(out, "Table 3") {
		t.Errorf("missing Table 3 output:\n%s", out)
	}
}

func TestExitCodeCleanGrid(t *testing.T) {
	code, out, _ := runSelf(t, "-table", "4", "-bench", "tomcatv", "-verify")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(out, "tomcatv") {
		t.Errorf("missing tomcatv row:\n%s", out)
	}
}

func TestExitCodeUsage(t *testing.T) {
	if code, _, _ := runSelf(t, "-table", "42"); code != 1 {
		t.Errorf("unknown table: exit code %d, want 1", code)
	}
	if code, _, _ := runSelf(t, "-no-such-flag"); code != 1 {
		t.Errorf("bad flag: exit code %d, want 1", code)
	}
	if code, _, _ := runSelf(t, "-bench", "no-such-benchmark"); code != 1 {
		t.Errorf("unknown benchmark: exit code %d, want 1", code)
	}
	if code, out, errOut := runSelf(t, "-bench", "tomcatv,tomcatv", "-table", "4"); code != 1 || out != "" || !strings.Contains(errOut, "tomcatv") {
		t.Errorf("repeated benchmark: exit code %d, stdout %q, stderr %q; want 1, nothing printed and the name reported", code, out, errOut)
	}
}

// TestExitCodeDegraded injects a deterministic fault into one cell and
// asserts the run exits 2 while still printing partial tables.
func TestExitCodeDegraded(t *testing.T) {
	code, out, errOut := runSelf(t, "-table", "4", "-bench", "tomcatv",
		"-faultspec", "core/compile=error@1")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (degraded)\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "degraded") || !strings.Contains(errOut, "tomcatv") {
		t.Errorf("stderr missing degradation report:\n%s", errOut)
	}
	if !strings.Contains(out, "----") {
		t.Errorf("degraded run did not render a partial table:\n%s", out)
	}
}

// TestExitCodeVerificationFailure injects a fault typed as a
// verification failure and asserts the stronger exit code 3.
func TestExitCodeVerificationFailure(t *testing.T) {
	code, _, errOut := runSelf(t, "-table", "4", "-bench", "tomcatv",
		"-verify", "-faultspec", "verify/func=error@1")
	if code != 3 {
		t.Fatalf("exit code %d, want 3 (verification failure)\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "verify") {
		t.Errorf("stderr does not mention the verification failure:\n%s", errOut)
	}
}

// TestJournalAndResumeFlags drives -journal/-resume end-to-end: an
// injured run journals its healthy cells, the resumed run exits 0 and
// prints the same table as a clean run.
func TestJournalAndResumeFlags(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "cells.jsonl")

	_, want, _ := runSelf(t, "-table", "8", "-bench", "tomcatv,DYFESM", "-verify")

	code, _, _ := runSelf(t, "-table", "8", "-bench", "tomcatv,DYFESM", "-verify",
		"-journal", journal, "-faultspec", "core/compile|tomcatv=error")
	if code != 2 {
		t.Fatalf("injured run: exit code %d, want 2", code)
	}
	code, got, _ := runSelf(t, "-table", "8", "-bench", "tomcatv,DYFESM", "-verify",
		"-journal", journal, "-resume")
	if code != 0 {
		t.Fatalf("resumed run: exit code %d, want 0", code)
	}
	if got != want {
		t.Errorf("resumed table differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestOutFlagWritesAtomically checks -out lands the same bytes a stdout
// run produces, via the temp+rename path.
func TestOutFlagWritesAtomically(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tables.txt")
	_, want, _ := runSelf(t, "-table", "2")
	code, stdout, _ := runSelf(t, "-table", "2", "-out", out)
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if stdout != "" {
		t.Errorf("-out run still wrote to stdout: %q", stdout)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("-out content differs from stdout run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("output dir holds %d entries, want 1 (no temp droppings)", len(entries))
	}
}

// TestGenModeDeterministic drives the generated-corpus mode end to end:
// -gen N -genseed S mints the corpus, runs the reduced grid and renders
// the per-stratum table. Two runs with the same seed must print the same
// bytes; the flag is exclusive with the static table modes.
func TestGenModeDeterministic(t *testing.T) {
	code, out, errOut := runSelf(t, "-gen", "30", "-genseed", "7", "-verify")
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "Generated corpus") || !strings.Contains(out, "all") {
		t.Errorf("missing stratum table:\n%s", out)
	}
	code2, out2, _ := runSelf(t, "-gen", "30", "-genseed", "7", "-verify")
	if code2 != 0 {
		t.Fatalf("second run: exit code %d, want 0", code2)
	}
	if out != out2 {
		t.Errorf("same seed produced different tables\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}

	if code, _, _ := runSelf(t, "-gen", "5", "-table", "4"); code != 1 {
		t.Errorf("-gen with -table: exit code %d, want 1", code)
	}
	if code, _, _ := runSelf(t, "-gen", "5", "-json"); code != 1 {
		t.Errorf("-gen with -json: exit code %d, want 1", code)
	}
}

// TestGenFatalErrors checks -gen's fatal paths: a run that cannot start
// (its journal's directory is missing) exits 1 and leaves the -out file
// as it was, as the paper grid's path does, and a negative -gen is a
// usage error naming the flag.
func TestGenFatalErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tables.txt")
	const old = "earlier output.\n"
	journal := filepath.Join(dir, "missing", "j.jsonl")
	for _, args := range [][]string{
		{"-gen", "5", "-out", out, "-journal", journal},
		{"-bench", "tomcatv", "-table", "4", "-out", out, "-journal", journal},
	} {
		if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, _ := runSelf(t, args...); code != 1 {
			t.Errorf("%v: exit code %d, want 1", args, code)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != old {
			t.Errorf("%v: -out file holds %q (%v), want %q", args, got, err, old)
		}
	}

	code, stdout, errOut := runSelf(t, "-gen", "-3", "-bench", "tomcatv", "-table", "4")
	if code != 1 || !strings.Contains(errOut, "-gen") || stdout != "" {
		t.Errorf("-gen -3: exit code %d, stderr %q, stdout %d bytes; want 1, a message naming -gen and no output", code, errOut, len(stdout))
	}
}

// TestExtFlags drives the extension grid end to end: -ext runs E1-E3 as
// one grid, so -json writes one exp.SuiteJSON (its TS+LU4 cell carrying
// the width-2 and width-4 metrics E1 reads) and -metrics writes the
// grid's merged counters; -ext with -table is a usage error.
func TestExtFlags(t *testing.T) {
	code, out, errOut := runSelf(t, "-ext", "-json", "-bench", "tomcatv")
	if code != 0 {
		t.Fatalf("-ext -json: exit code %d, want 0\nstderr:\n%s", code, errOut)
	}
	var doc exp.SuiteJSON
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-ext -json output is not one SuiteJSON: %v", err)
	}
	var ts *exp.CellJSON
	for i, c := range doc.Cells {
		if c.Bench == "tomcatv" && c.Config == "TS+LU4" {
			ts = &doc.Cells[i]
		}
	}
	if ts == nil {
		t.Fatalf("-ext -json has no tomcatv TS+LU4 cell; configs %v", doc.Configs)
	}
	if ts.Metrics == nil || ts.Wide[2] == nil || ts.Wide[4] == nil {
		t.Errorf("TS+LU4 cell lacks width 1, 2 or 4 metrics: %+v", ts)
	}

	metrics := filepath.Join(t.TempDir(), "m.txt")
	if code, _, errOut := runSelf(t, "-ext", "-bench", "tomcatv", "-metrics", metrics); code != 0 {
		t.Fatalf("-ext -metrics: exit code %d, want 0\nstderr:\n%s", code, errOut)
	}
	dump, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("-ext -metrics wrote no file: %v", err)
	}
	if !strings.Contains(string(dump), "paperbench_dag_nodes") {
		t.Errorf("-ext -metrics dump lacks the compiler counters:\n%.400s", dump)
	}

	code, out, errOut = runSelf(t, "-ext", "-table", "4", "-bench", "tomcatv")
	if code != 1 {
		t.Errorf("-ext with -table: exit code %d, want 1", code)
	}
	if !strings.Contains(errOut, "-table") || out != "" {
		t.Errorf("-ext with -table: stderr %q does not name the conflict, or stdout %q is not empty", errOut, out)
	}
}

// TestInterruptDrainsGracefully sends SIGINT to a slowed-down grid run
// and asserts the signal cancels the run instead of killing it: the
// process exits 2 (degraded) through the normal reporting path, the
// canceled cells are reported on stderr, and the journal holds only
// well-formed lines — the flush completed, nothing died mid-write.
func TestInterruptDrainsGracefully(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cells.jsonl")
	cmd := exec.Command(os.Args[0],
		"-table", "4", "-bench", "tomcatv", "-jobs", "2",
		"-journal", journal,
		"-faultspec", "exp/cell=delay:250ms")
	cmd.Env = append(os.Environ(), "PAPERBENCH_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until at least one cell has landed in the journal so the
	// interrupt arrives mid-grid, then signal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(journal); err == nil && bytes.Contains(b, []byte("\n")) {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("no journal entry appeared within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	err := cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if code != 2 {
		t.Fatalf("interrupted run exited %d, want 2 (degraded)\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Errorf("stderr does not report canceled cells:\n%s", stderr.String())
	}

	// Every journal line parses: the engine flushed cleanly on the way out.
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("journal is empty after interrupt")
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Errorf("journal line %d is torn: %q: %v", i, line, err)
		}
	}
}
