package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hlir"
	"repro/internal/hlirgen"
)

func TestMain(m *testing.M) {
	if os.Getenv("CORPUSGEN_BE_MAIN") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CORPUSGEN_BE_MAIN=1")
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

// TestCorpusOnDiskIsDeterministic mints the same corpus twice into two
// directories and asserts every file — programs and manifest — is byte
// identical, that every manifest line and every program parses, and
// that each program's text is the one hlirgen.Corpus generates in
// memory.
func TestCorpusOnDiskIsDeterministic(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	for _, dir := range []string{dirA, dirB} {
		code, out, errOut := runSelf(t, "-n", "35", "-seed", "11", "-dir", dir, "-stats")
		if code != 0 {
			t.Fatalf("exit code %d, want 0\nstderr:\n%s", code, errOut)
		}
		if !strings.Contains(out, "corpus: 35 programs, seed 11") {
			t.Errorf("missing summary line:\n%s", out)
		}
	}

	entriesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(entriesA) != 36 { // 35 programs + manifest.jsonl
		t.Fatalf("dir holds %d entries, want 36", len(entriesA))
	}
	for _, e := range entriesA {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatalf("file %s missing from second run: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between runs", e.Name())
		}
	}

	// The manifest names every program, each line parses, and every
	// .hlir file on disk parses and matches the in-memory corpus.
	manifest, err := os.ReadFile(filepath.Join(dirA, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	items, err := hlirgen.Corpus(11, 35)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(manifest), "\n"), "\n")
	if len(lines) != len(items) {
		t.Fatalf("manifest has %d lines, want %d", len(lines), len(items))
	}
	for i, it := range items {
		var e hlirgen.ManifestEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatalf("manifest line %d does not parse: %v", i+1, err)
		}
		if e.Index != i || e.CorpusSeed != 11 || e.Name != it.Prog.Name {
			t.Errorf("manifest line %d names %+v, want item %d of corpus 11, %s", i+1, e, i, it.Prog.Name)
		}
		disk, err := os.ReadFile(filepath.Join(dirA, it.Prog.Name+".hlir"))
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != it.Prog.String() {
			t.Fatalf("%s: on-disk text differs from hlirgen.Corpus(11, 35)", it.Prog.Name)
		}
		if _, err := hlir.Parse(string(disk)); err != nil {
			t.Fatalf("%s does not parse: %v", it.Prog.Name, err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runSelf(t, "-n", "0"); code != 1 {
		t.Errorf("-n 0: exit code %d, want 1", code)
	}
	if code, _, _ := runSelf(t, "-no-such-flag"); code != 1 {
		t.Errorf("bad flag: exit code %d, want 1", code)
	}
}

// TestSummaryOnlyMode: without -dir nothing is written anywhere.
func TestSummaryOnlyMode(t *testing.T) {
	code, out, _ := runSelf(t, "-n", "12", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(out, "corpus: 12 programs, seed 3") {
		t.Errorf("missing summary:\n%s", out)
	}
	if strings.Contains(out, "wrote") {
		t.Errorf("summary-only run claims to have written files:\n%s", out)
	}
}
