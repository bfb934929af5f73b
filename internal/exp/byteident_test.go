package exp

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hlirgen"
)

// widthSweep is the worker-count property grid: serial, a fixed small
// width, whatever this host's GOMAXPROCS resolves to (Jobs: 0), and
// oversubscribed past any plausible core count — so the sweep exercises
// the shared task counter and the in-order finalize at both extremes,
// including workers that draw no task at all.
func widthSweep() []int {
	if testing.Short() {
		return []int{1, 0}
	}
	return []int{1, 4, 0, 32}
}

func widthName(jobs int) string {
	if jobs == 0 {
		return "jobs=gomaxprocs"
	}
	return fmt.Sprintf("jobs=%d", jobs)
}

// TestTablesByteIdenticalAcrossWidths is the engine's determinism
// property: workers drawing cells from one shared counter and storing
// each result at its queue index must render byte-identical tables at
// every worker count — and a journal written at any width must replay
// to the same bytes. Run under -race in CI, where the result slots and
// the shared pool are exactly the goroutine crossings being proven.
func TestTablesByteIdenticalAcrossWidths(t *testing.T) {
	benches := []string{"tomcatv", "DYFESM"}
	var want string
	for _, jobs := range widthSweep() {
		jobs := jobs
		t.Run(widthName(jobs), func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "cells.jsonl")
			s, err := RunGrid(benches, Options{Jobs: jobs, Verify: true, Journal: journal})
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(s)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("tables at %s differ from jobs=1:\n--- jobs=1 ---\n%s\n--- %s ---\n%s",
					widthName(jobs), want, widthName(jobs), got)
			}
			// Replay the journal this width just wrote: every cell comes
			// back from disk, none recompute, and the bytes still match.
			r, err := RunGrid(benches, Options{Jobs: jobs, Verify: true, Journal: journal, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAll(r); got != want {
				t.Fatalf("journal replay at %s differs from jobs=1:\n--- jobs=1 ---\n%s\n--- replay ---\n%s",
					widthName(jobs), want, got)
			}
		})
	}
}

// TestGeneratedTablesByteIdenticalAcrossWidths is the same property over
// a seeded generated corpus (internal/hlirgen): the width sweep must
// render one stratum table, byte for byte, no matter how the reduced
// 5-config grid lands on workers. Generated programs are where cell
// durations vary most — long straight-line bodies next to tiny loop
// nests — so this is the sweep where workers finish out of order most.
func TestGeneratedTablesByteIdenticalAcrossWidths(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	items, err := hlirgen.Corpus(3, n)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, jobs := range widthSweep() {
		s, err := RunGenerated(items, Options{Jobs: jobs, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		StratTable(s, items).Write(&sb)
		got := sb.String()
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("generated tables at %s differ from jobs=1:\n--- jobs=1 ---\n%s\n--- %s ---\n%s",
				widthName(jobs), want, widthName(jobs), got)
		}
	}
}
