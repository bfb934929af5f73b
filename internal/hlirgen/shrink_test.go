package hlirgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/verify"
)

// TestShrinkPreservesPredicate: every shrink must keep the failing
// property true. The predicate here is structural (program still stores
// to a particular array), easy to evaluate and easy to violate by
// over-eager shrinking.
func TestShrinkPreservesPredicate(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		it, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		target := it.Prog.Outputs[0]
		pred := func(p *hlir.Program) bool {
			stores := false
			hlir.Walk(p.Body, func(s hlir.Stmt) {
				if a, ok := s.(*hlir.Assign); ok {
					if r, ok := a.LHS.(*hlir.Ref); ok && r.A.Name == target.Name {
						stores = true
					}
				}
			})
			return stores
		}
		if !pred(it.Prog) {
			// Some seeds only store the scalar bank; pick those out.
			continue
		}
		small := Shrink(it.Prog, it.Data.I, pred)
		if !pred(small) {
			t.Fatalf("seed %d: shrunk program lost the failing property\n%s", seed, small)
		}
		if err := verify.Program(small, it.Data.I); err != nil {
			t.Fatalf("seed %d: shrunk program invalid: %v\n%s", seed, err, small)
		}
		if before, after := CountStmts(it.Prog.Body), CountStmts(small.Body); after > before {
			t.Fatalf("seed %d: shrinker grew the program (%d -> %d statements)", seed, before, after)
		}
	}
}

// TestShrinkOnlyProposesValidPrograms is the mutation test for the
// shrinker itself: instrument the predicate so every candidate the
// shrinker accepts is recorded, then re-verify each one independently.
// The shrinker must never commit to a candidate that breaks HLIR
// invariants, because a shrink that trades one bug for another produces
// useless repros.
func TestShrinkOnlyProposesValidPrograms(t *testing.T) {
	it, err := FromSeed(3)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []*hlir.Program
	pred := func(p *hlir.Program) bool {
		// The Shrink contract: pred only runs on candidates that already
		// passed verify.Program. Record a deep copy of everything we are
		// asked about, then accept any program that keeps >= 1 statement.
		accepted = append(accepted, p.Clone())
		return CountStmts(p.Body) >= 1
	}
	small := Shrink(it.Prog, it.Data.I, pred)
	if len(accepted) == 0 {
		t.Fatal("predicate never consulted")
	}
	for i, cand := range accepted {
		if err := verify.Program(cand, it.Data.I); err != nil {
			t.Fatalf("candidate %d handed to predicate is invalid: %v\n%s", i, err, cand)
		}
	}
	if got := CountStmts(small.Body); got < 1 {
		t.Fatalf("final program has %d statements", got)
	}
	// With such a permissive predicate the shrinker should reach a tiny
	// fixpoint: a single statement over a single array.
	if got := CountStmts(small.Body); got > 2 {
		t.Fatalf("permissive predicate shrunk only to %d statements\n%s", got, small)
	}
}

// TestShrinkNoOpWhenPredicateFalse: a program that does not exhibit the
// failure must come back unchanged — the shrinker refuses to "minimize"
// a non-repro.
func TestShrinkNoOpWhenPredicateFalse(t *testing.T) {
	it, err := FromSeed(5)
	if err != nil {
		t.Fatal(err)
	}
	before := it.Prog.String()
	got := Shrink(it.Prog, it.Data.I, func(*hlir.Program) bool { return false })
	if got.String() != before {
		t.Fatal("Shrink modified a program whose predicate was false")
	}
}

// breakSqrt compiles p under cfg, rewrites every fsqrt instruction to
// fabs (a deliberately injected backend bug), runs the fast simulator
// and reports whether the corrupted pipeline's checksum diverges from
// the reference interpreter. Programs that never lower a sqrt are not
// repros (false).
func breakSqrt(t *testing.T, p *hlir.Program, d *core.Data, cfg core.Config) bool {
	t.Helper()
	want, err := core.Reference(p, d)
	if err != nil {
		return false
	}
	c, err := core.Compile(p, cfg, d, core.Options{})
	if err != nil {
		return false
	}
	mutated := false
	for _, b := range c.Fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFSqrt {
				in.Op = ir.OpFAbs
				mutated = true
			}
		}
	}
	if !mutated {
		return false
	}
	m, err := sim.New(c.Fn)
	if err != nil {
		return false
	}
	core.InitMachine(m, c.ArrayID, d)
	if _, err := m.Run(nil); err != nil {
		return false
	}
	return core.Checksum(m, c) != want
}

// TestInjectedBugIsCaughtAndShrunk is the acceptance-criterion test: a
// deliberately injected simulator/compiler bug (sqrt silently becomes
// abs) must be (a) detected by the differential predicate and (b) shrunk
// to a repro of at most 10 statements whose dump is parseable HLIR.
func TestInjectedBugIsCaughtAndShrunk(t *testing.T) {
	cfg := core.Config{Policy: DiffConfigs()[1].Policy}
	// Search the corpus for a program where the injected bug is
	// observable (it must lower a sqrt whose result reaches an output).
	var found *Item
	for i := 0; i < 200; i++ {
		it, err := CorpusItem(9, i)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if breakSqrt(t, it.Prog, it.Data, cfg) {
			found = &it
			break
		}
	}
	if found == nil {
		t.Fatal("no corpus program in 200 exposes the injected sqrt bug; generator lost its sqrt production?")
	}

	pred := func(p *hlir.Program) bool { return breakSqrt(t, p, found.Data, cfg) }
	small := Shrink(found.Prog, found.Data.I, pred)

	if !pred(small) {
		t.Fatalf("shrunk program no longer reproduces the injected bug\n%s", small)
	}
	n := CountStmts(small.Body)
	if n > 10 {
		t.Fatalf("shrunk repro has %d statements, want <= 10 (from %d)\n%s",
			n, CountStmts(found.Prog.Body), small)
	}
	// The minimal repro must survive the dump/reload loop so it can be
	// pasted straight into a regression test.
	text := small.String()
	if !strings.Contains(text, "sqrt") {
		t.Fatalf("minimal repro lost its sqrt:\n%s", text)
	}
	p2, err := hlir.Parse(text)
	if err != nil {
		t.Fatalf("minimal repro does not parse: %v\n%s", err, text)
	}
	if p2.String() != text {
		t.Fatal("minimal repro does not round-trip")
	}
	t.Logf("injected bug shrunk from %d to %d statements:\n%s",
		CountStmts(found.Prog.Body), n, text)
}
