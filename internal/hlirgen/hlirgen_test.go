package hlirgen

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/verify"
)

// TestGenerateDeterministic pins the generator's core contract: the same
// seed yields a byte-identical program and identical input data.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %d again: %v", seed, err)
		}
		if a.Prog.String() != b.Prog.String() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		sa, err := core.Reference(a.Prog, a.Data)
		if err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}
		sb, err := core.Reference(b.Prog, b.Data)
		if err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}
		if sa != sb {
			t.Fatalf("seed %d: data differs between generations (checksums %#x, %#x)", seed, sa, sb)
		}
	}
}

// TestGeneratedProgramsAreValid checks the generator's well-formedness
// guarantee across seeds and across the whole Params envelope: every
// program passes verify.Program (Generate enforces this internally, so
// here we re-check explicitly) and runs under the reference interpreter.
func TestGeneratedProgramsAreValid(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 16
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		it, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Program(it.Prog, it.Data.I); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := core.Reference(it.Prog, it.Data); err != nil {
			t.Fatalf("seed %d: interpreter rejected generated program: %v\n%s", seed, err, it.Prog)
		}
	}
	// Sweep the parameter envelope corners explicitly.
	for depth := 1; depth <= 3; depth++ {
		for r := 0; r < numReuse; r++ {
			for _, wide := range []bool{false, true} {
				pr := Params{Depth: depth, Reuse: Reuse(r), Wide: wide,
					Trip: 5, Conds: true, IntMix: true, Stmts: 4}
				p, d, err := Generate(uint64(depth*100+r*10), pr)
				if err != nil {
					t.Fatalf("params %+v: %v", pr, err)
				}
				if _, err := core.Reference(p, d); err != nil {
					t.Fatalf("params %+v: interp: %v", pr, err)
				}
			}
		}
	}
}

// TestPrintParseRoundTrip is the generator-output property test for the
// print/parse loop: every generated program renders to text that parses
// back and re-renders byte-identically, and the reparsed program is
// itself valid.
func TestPrintParseRoundTrip(t *testing.T) {
	seeds := 128
	if testing.Short() {
		seeds = 32
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		it, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		text := it.Prog.String()
		p2, err := hlir.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: parse of printed program failed: %v\n%s", seed, err, text)
		}
		if got := p2.String(); got != text {
			t.Fatalf("seed %d: round-trip not byte-identical\n--- printed ---\n%s\n--- reparsed ---\n%s", seed, text, got)
		}
		// The reparsed program has fresh array descriptors, so it is
		// checked without data: integer arrays then read as zeros.
		if err := verify.Program(p2, nil); err != nil {
			t.Fatalf("seed %d: reparsed program invalid: %v", seed, err)
		}
	}
}

// TestCorpusDeterministicAndStratified pins the corpus contract: same
// (seed, n) gives a byte-identical manifest, items visit every stratum
// combination round-robin, and each item regenerates alone from its
// corpus seed and index, as a manifest line names it.
func TestCorpusDeterministicAndStratified(t *testing.T) {
	const n = 60
	items, err := Corpus(42, n)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Corpus(42, n)
	if err != nil {
		t.Fatal(err)
	}
	m1 := EncodeManifest(42, items)
	m2 := EncodeManifest(42, again)
	if !bytes.Equal(m1, m2) {
		t.Fatal("manifests differ across two generations with the same seed")
	}
	for i := range items {
		if items[i].Prog.String() != again[i].Prog.String() {
			t.Fatalf("item %d differs across generations", i)
		}
	}

	// The first 30 items must cover all 30 (depth, reuse, wide) combos.
	combos := map[string]bool{}
	for _, it := range items[:strataCombos] {
		combos[fmt.Sprintf("d%d/%s/w%v", it.Params.Depth, it.Params.Reuse, it.Params.Wide)] = true
	}
	if len(combos) != strataCombos {
		t.Fatalf("first %d items cover %d parameter combos, want %d", strataCombos, len(combos), strataCombos)
	}

	for i, it := range items {
		alone, err := CorpusItem(42, i)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Prog.String() != it.Prog.String() {
			t.Fatalf("item %d regenerated alone differs from the corpus's", i)
		}
	}
}

// TestThousandProgramDifferential is the acceptance-scale harness: 1000
// generated programs must agree — fast core, reference stepper and HLIR
// interpreter — under both list and balanced scheduling, with pipeline
// invariant verification on. Sharded across parallel subtests to keep
// wall clock down.
func TestThousandProgramDifferential(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 128
	}
	const shards = 8
	per := n / shards
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := s * per; i < (s+1)*per; i++ {
				it, err := CorpusItem(1, i)
				if err != nil {
					t.Fatalf("item %d: %v", i, err)
				}
				if err := Diff(it.Prog, it.Data); err != nil {
					t.Fatalf("item %d (stratum %s): %v\n%s", i, it.Stratum.Label(), err, it.Prog)
				}
			}
		})
	}
}

// TestDiffConfigsWide runs the transformed configurations (unroll,
// locality) over a smaller sample — the heavier pipeline paths.
func TestDiffConfigsWide(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		it, err := CorpusItem(2, i)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if err := Diff(it.Prog, it.Data, DiffConfigsWide()...); err != nil {
			t.Fatalf("item %d: %v\n%s", i, err, it.Prog)
		}
	}
}

// TestEstimateILPSeparatesShapes sanity-checks the stratum classifier on
// two hand-built extremes.
func TestEstimateILPSeparatesShapes(t *testing.T) {
	a := &hlir.Array{Name: "a", Elem: hlir.KFloat, Dims: []int{16}}
	load := func() hlir.Expr { return hlir.At(a, hlir.IV("i")) }

	// Serial chain: acc = ((((acc+x)+x)+x)+x).
	chain := hlir.Expr(hlir.FV("acc"))
	for k := 0; k < 4; k++ {
		chain = hlir.Add(chain, load())
	}
	serial := &hlir.Program{
		Name:   "serial",
		Arrays: []*hlir.Array{a},
		Body: []hlir.Stmt{
			hlir.Set(hlir.FV("acc"), hlir.F(0)),
			hlir.For("i", hlir.I(0), hlir.I(16), hlir.Set(hlir.FV("acc"), chain)),
			hlir.Set(hlir.At(a, hlir.I(0)), hlir.FV("acc")),
		},
		Outputs: []*hlir.Array{a},
	}

	// Balanced tree: 7 adds over 8 loads, height 3 → ops/height ≈ 2.3.
	pair := func() hlir.Expr { return hlir.Add(load(), load()) }
	quad := func() hlir.Expr { return hlir.Add(pair(), pair()) }
	tree := hlir.Add(quad(), quad())
	wide := &hlir.Program{
		Name:   "wide",
		Arrays: []*hlir.Array{a},
		Body: []hlir.Stmt{
			hlir.For("i", hlir.I(0), hlir.I(16), hlir.Set(hlir.At(a, hlir.IV("i")), tree)),
		},
		Outputs: []*hlir.Array{a},
	}

	si, wi := EstimateILP(serial), EstimateILP(wide)
	if si >= wi {
		t.Fatalf("serial chain ILP %.2f >= wide tree ILP %.2f", si, wi)
	}
	if ilpClass(si) != "lo" {
		t.Fatalf("serial chain classed %s (ILP %.2f), want lo", ilpClass(si), si)
	}
	if ilpClass(wi) != "hi" {
		t.Fatalf("wide tree classed %s (ILP %.2f), want hi", ilpClass(wi), wi)
	}
}

// TestCountStmts covers the nesting-aware statement counter.
func TestCountStmts(t *testing.T) {
	a := &hlir.Array{Name: "a", Elem: hlir.KFloat, Dims: []int{8}}
	body := []hlir.Stmt{
		hlir.Set(hlir.FV("x"), hlir.F(0)),
		hlir.For("i", hlir.I(0), hlir.I(8),
			hlir.When(hlir.Eq(hlir.IV("i"), hlir.I(0)),
				hlir.Set(hlir.At(a, hlir.IV("i")), hlir.FV("x")),
			),
		),
	}
	if got := CountStmts(body); got != 4 {
		t.Fatalf("CountStmts = %d, want 4", got)
	}
}
