package exp

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/hlirgen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFastCoreMatchesReferenceAcrossBenchmarks is the end-to-end
// differential oracle for the predecoded fast core: every benchmark,
// compiled under a sample of grid configurations, is simulated on both
// the fast core and the original instruction-walking reference stepper
// (sim.Machine.Reference), and every Metrics field (via Metrics.Each, so
// new fields are covered automatically) plus the output checksum must be
// bit-identical. Configurations are sampled deterministically, rotating
// through the grid by benchmark index so the whole 17×16 product is
// covered over the benchmark set without simulating every cell twice.
func TestFastCoreMatchesReferenceAcrossBenchmarks(t *testing.T) {
	benches := workload.All()
	cells := Cells()
	perBench := 3
	if testing.Short() {
		perBench = 1
	}
	for bi, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, d := b.Build()
			want, err := core.Reference(p, d)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < perBench; k++ {
				cfg := cells[(bi*perBench+k*5)%len(cells)]
				c, err := core.Compile(p, cfg, d, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				width := 1
				if k == 2 {
					width = 4 // one wide-issue cell per benchmark
				}
				fastMet, fastSum := runOn(t, c, d, width, false)
				refMet, refSum := runOn(t, c, d, width, true)
				label := fmt.Sprintf("%s w%d", cfg.Name(), width)
				if fastSum != refSum {
					t.Errorf("%s: checksum fast %#x, reference %#x", label, fastSum, refSum)
				}
				if fastSum != want {
					t.Errorf("%s: checksum %#x, interpreter %#x", label, fastSum, want)
				}
				ref := map[string]int64{}
				refMet.Each(func(name string, v int64) { ref[name] = v })
				fastMet.Each(func(name string, v int64) {
					if ref[name] != v {
						t.Errorf("%s: metric %s fast %d, reference %d", label, name, v, ref[name])
					}
				})
			}
		})
	}
}

// TestGeneratedDifferential extends the differential oracle from the
// seventeen hand-built benchmarks to the seeded generator population: 64
// generated programs per seed, each run through the full wide
// configuration set (plain, unrolled and locality-analyzed, both
// policies) on both simulator cores with pipeline verification on. On
// the first mismatch the failing program is shrunk to a minimal repro
// and dumped as parseable HLIR text, so a generator- or
// scheduler-triggered bug arrives pre-reduced.
func TestGeneratedDifferential(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const perSeed = 64
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			items, err := hlirgen.Corpus(seed, perSeed)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := hlirgen.DiffConfigsWide()
			for _, it := range items {
				if err := hlirgen.Diff(it.Prog, it.Data, cfgs...); err != nil {
					pred := func(p *hlir.Program) bool {
						return hlirgen.Diff(p, it.Data, cfgs...) != nil
					}
					small := hlirgen.Shrink(it.Prog, it.Data.I, pred)
					t.Fatalf("%s (stratum %s): %v\nminimal repro (%d statements):\n%s",
						it.Prog.Name, it.Stratum.Label(), err,
						hlirgen.CountStmts(small.Body), small)
				}
			}
		})
	}
}

// FuzzGeneratedDifferential is the open-ended form of the test above:
// any seed the fuzzer invents must produce a program on which every
// simulator and every configuration agree. Failures are shrunk before
// reporting.
func FuzzGeneratedDifferential(f *testing.F) {
	for _, s := range []uint64{0, 1, 17, 1000, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		it, err := hlirgen.FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if err := hlirgen.Diff(it.Prog, it.Data); err != nil {
			pred := func(p *hlir.Program) bool {
				return hlirgen.Diff(p, it.Data) != nil
			}
			small := hlirgen.Shrink(it.Prog, it.Data.I, pred)
			t.Fatalf("seed %#x: %v\nminimal repro (%d statements):\n%s",
				seed, err, hlirgen.CountStmts(small.Body), small)
		}
	})
}

// runOn simulates compiled code on one core variant and returns the
// metrics and output checksum.
func runOn(t *testing.T, c *core.Compiled, d *core.Data, width int, reference bool) (*sim.Metrics, uint64) {
	t.Helper()
	m, err := sim.New(c.Fn)
	if err != nil {
		t.Fatal(err)
	}
	m.Reference = reference
	m.IssueWidth = width
	core.InitMachine(m, c.ArrayID, d)
	met, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return met, core.Checksum(m, c)
}
