package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hlirgen"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

const fingerprintPath = "testdata/code_fingerprints.txt"

// codeFingerprints compiles, without simulating, every cell the tables
// draw from and returns one "bench config hex" line per cell: the paper
// grid, E2's two extension policies with unrolling by 4 on the analogs,
// and the reduced grid over the pinned 200-program corpus.
func codeFingerprints(t *testing.T) []string {
	t.Helper()
	items, err := hlirgen.Corpus(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	e2 := []core.Config{
		{Policy: sched.BalancedFixed, Unroll: 4},
		{Policy: sched.Auto, Unroll: 4},
	}
	groups := []struct {
		benches []workload.Benchmark
		cfgs    []core.Config
	}{
		{workload.All(), Cells()},
		{workload.All(), e2},
		{workload.FromItems(items), GenCells()},
	}
	var lines []string
	for _, g := range groups {
		for _, b := range g.benches {
			p, d := b.Build()
			for _, cfg := range g.cfgs {
				c, err := core.Compile(p, cfg, d, core.Options{})
				if err != nil {
					t.Fatalf("%s %s: %v", b.Name, cfg.Name(), err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %016x", b.Name, cfg.Name(), sim.Fingerprint(c.Fn)))
			}
		}
	}
	return lines
}

// TestCodeFingerprints pins every cell's final machine code: a change to
// any compile phase (scheduling, weights, DAG construction, allocation)
// that alters one instruction of one cell fails here and names the cell,
// without running the simulator. Bless intentional changes with
//
//	go test ./internal/exp -run TestCodeFingerprints -update
func TestCodeFingerprints(t *testing.T) {
	got := codeFingerprints(t)
	if *update {
		if err := WriteFileAtomic(fingerprintPath, []byte(strings.Join(got, "\n")+"\n")); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s (%d cells)", fingerprintPath, len(got))
		return
	}
	buf, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("missing fingerprint file (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("cell %d: got %q, pinned %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells compiled, %d pinned", len(got), len(want))
	}
}
