package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/sched"
	"repro/internal/unroll"
)

func TestRegistryComplete(t *testing.T) {
	names := []string{
		"ARC2D", "BDNA", "DYFESM", "MDG", "QCD2", "TRFD",
		"alvinn", "dnasa7", "doduc", "ear", "hydro2d", "mdljdp2",
		"ora", "spice2g6", "su2cor", "swm256", "tomcatv",
	}
	all := All()
	if len(all) != 17 {
		t.Fatalf("have %d benchmarks, want 17", len(all))
	}
	for i, n := range names {
		if all[i].Name != n {
			t.Errorf("benchmark %d is %s, want %s", i, all[i].Name, n)
		}
		b, err := ByName(n)
		if err != nil || b.Name != n {
			t.Errorf("ByName(%s) failed: %v", n, err)
		}
		if all[i].Lang == "" || all[i].Description == "" || all[i].Traits == "" {
			t.Errorf("%s is missing Table 1 metadata", n)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, b := range All() {
		p1, d1 := b.Build()
		p2, d2 := b.Build()
		ref1, err := core.Reference(p1, d1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ref2, err := core.Reference(p2, d2)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if ref1 != ref2 {
			t.Errorf("%s: two builds disagree (%x vs %x)", b.Name, ref1, ref2)
		}
	}
}

// TestPipelineMatchesReference is the core integration test: for every
// benchmark and a representative set of configurations, the compiled and
// simulated program must produce exactly the interpreter's output.
func TestPipelineMatchesReference(t *testing.T) {
	configs := []core.Config{
		{Policy: sched.Traditional},
		{Policy: sched.Balanced},
		{Policy: sched.Balanced, Unroll: 4},
		{Policy: sched.Balanced, Unroll: 8},
		{Policy: sched.Balanced, Unroll: 4, Trace: true},
		{Policy: sched.Balanced, Locality: true},
		{Policy: sched.Balanced, Unroll: 8, Trace: true, Locality: true},
		{Policy: sched.Traditional, Unroll: 8, Trace: true},
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, d := b.Build()
			want, err := core.Reference(p, d)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, cfg := range configs {
				c, err := core.Compile(p, cfg, d, core.Options{})
				if err != nil {
					t.Fatalf("%s: compile: %v", cfg.Name(), err)
				}
				_, got, err := core.Execute(c, d)
				if err != nil {
					t.Fatalf("%s: execute: %v", cfg.Name(), err)
				}
				if got != want {
					t.Errorf("%s: checksum %x, want %x", cfg.Name(), got, want)
				}
			}
		})
	}
}

// TestUnrollEligibilityTraits pins down the per-benchmark unrolling
// behaviour the paper reports (Section 5.1).
func TestUnrollEligibilityTraits(t *testing.T) {
	innermost := func(p *hlir.Program) []*hlir.Loop {
		var loops []*hlir.Loop
		hlir.Walk(p.Body, func(st hlir.Stmt) {
			if l, ok := st.(*hlir.Loop); ok {
				isInner := true
				hlir.Walk(l.Body, func(s2 hlir.Stmt) {
					if _, ok := s2.(*hlir.Loop); ok {
						isInner = false
					}
				})
				if isInner {
					loops = append(loops, l)
				}
			}
		})
		return loops
	}
	maxFactor := func(name string, requested int) int {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := b.Build()
		best := 0
		for _, l := range innermost(p) {
			if f := unroll.BestFactor(l, requested); f > best {
				best = f
			}
		}
		return best
	}

	// Fully unrollable benchmarks.
	for _, name := range []string{"ARC2D", "alvinn", "dnasa7", "tomcatv", "DYFESM"} {
		if f := maxFactor(name, 4); f != 4 {
			t.Errorf("%s: best factor at 4 = %d, want 4", name, f)
		}
	}
	// Partially unrollable: bodies over the per-copy budget fall back to
	// a smaller factor (QCD2's paired complex update, MDG, ear, su2cor).
	for _, name := range []string{"QCD2", "MDG", "ear", "su2cor"} {
		if f := maxFactor(name, 4); f < 2 || f == 4 {
			t.Errorf("%s: best factor at 4 = %d, want partial (2)", name, f)
		}
	}
	// Blocked entirely: BDNA (size), mdljdp2/doduc/spice2g6 (conditionals).
	for _, name := range []string{"BDNA", "mdljdp2", "doduc", "spice2g6", "ora"} {
		if f := maxFactor(name, 4); f != 0 {
			t.Errorf("%s: best factor at 4 = %d, want 0 (unrolling blocked)", name, f)
		}
		if f := maxFactor(name, 8); f != 0 {
			t.Errorf("%s: best factor at 8 = %d, want 0 (unrolling blocked)", name, f)
		}
	}
	// swm256: blocked at the factor-4 limit, partially unrolled at 8.
	if f := maxFactor("swm256", 4); f != 0 {
		t.Errorf("swm256: best factor at 4 = %d, want 0", f)
	}
	if f := maxFactor("swm256", 8); f < 2 {
		t.Errorf("swm256: best factor at 8 = %d, want >= 2", f)
	}
}

// TestWorkloadScale keeps each benchmark inside the simulation budget and
// big enough to exercise the memory hierarchy.
func TestWorkloadScale(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, d := b.Build()
			c, err := core.Compile(p, core.Config{Policy: sched.Balanced}, d, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			met, _, err := core.Execute(c, d)
			if err != nil {
				t.Fatal(err)
			}
			if met.Instrs < 40_000 {
				t.Errorf("only %d dynamic instructions — too small to measure", met.Instrs)
			}
			if met.Instrs > 4_000_000 {
				t.Errorf("%d dynamic instructions — too slow for the experiment grid", met.Instrs)
			}
			if b.Name != "ora" && met.Loads == 0 {
				t.Error("no loads executed")
			}
		})
	}
}

// TestWorkloadPrintParseRoundTrip pins the text front end against all 17
// benchmarks: printing each program and re-parsing it must reproduce the
// exact structure (verified by re-printing) and the same computation
// (verified by interpreter checksums on the benchmark's own inputs).
func TestWorkloadPrintParseRoundTrip(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, d := b.Build()
			text := p.String()
			q, err := hlir.Parse(text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if got := q.String(); got != text {
				t.Fatalf("round trip changed program text")
			}
			// Same computation: copy data across by array name.
			byName := map[string]*hlir.Array{}
			for _, a := range q.Arrays {
				byName[a.Name] = a
			}
			it1 := hlir.NewInterp(p)
			it2 := hlir.NewInterp(q)
			for a, vals := range d.F {
				copy(it1.F[a], vals)
				copy(it2.F[byName[a.Name]], vals)
			}
			for a, vals := range d.I {
				copy(it1.I[a], vals)
				copy(it2.I[byName[a.Name]], vals)
			}
			if err := it1.Run(p); err != nil {
				t.Fatal(err)
			}
			if err := it2.Run(q); err != nil {
				t.Fatalf("parsed program failed: %v", err)
			}
			if it1.Checksum(p) != it2.Checksum(q) {
				t.Error("parsed benchmark computes different results")
			}
		})
	}
}

// TestCycleAccountingAcrossWorkload extends the simulator's accounting
// identity to every benchmark: total cycles decompose exactly into issue
// slots plus the named stall buckets.
func TestCycleAccountingAcrossWorkload(t *testing.T) {
	for _, b := range All() {
		p, d := b.Build()
		c, err := core.Compile(p, core.Config{Policy: sched.Balanced, Unroll: 4}, d, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		met, _, err := core.Execute(c, d)
		if err != nil {
			t.Fatal(err)
		}
		sum := met.Instrs + met.LoadInterlock + met.FixedInterlock +
			met.FetchStall + met.BranchStall + met.StoreStall
		if met.Cycles != sum {
			t.Errorf("%s: cycles = %d, buckets sum to %d", b.Name, met.Cycles, sum)
		}
	}
}
