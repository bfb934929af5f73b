package hlirgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/verify"
)

// FuzzGenerateValid drives the generator with arbitrary seeds: whatever
// the seed, the resulting program must pass the HLIR invariant checker,
// execute under the reference run, leave bitwise-identical arrays and
// checksums under both HLIR evaluators, and regenerate
// deterministically.
func FuzzGenerateValid(f *testing.F) {
	for _, s := range []uint64{0, 1, 2, 7, 42, 1 << 32, ^uint64(0)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		it, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if err := verify.Program(it.Prog, it.Data.I); err != nil {
			t.Fatalf("seed %#x: invalid program: %v\n%s", seed, err, it.Prog)
		}
		if _, err := core.Reference(it.Prog, it.Data); err != nil {
			t.Fatalf("seed %#x: interpreter rejected program: %v\n%s", seed, err, it.Prog)
		}
		if err := DiffEvaluators(it.Prog, it.Data); err != nil {
			t.Fatalf("seed %#x: %v\n%s", seed, err, it.Prog)
		}
		again, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %#x: regeneration failed: %v", seed, err)
		}
		if again.Prog.String() != it.Prog.String() {
			t.Fatalf("seed %#x: nondeterministic generation", seed)
		}
	})
}

// FuzzPrintParseRoundTrip: for any seed, the generated program's text
// form must parse back and re-render byte-identically.
func FuzzPrintParseRoundTrip(f *testing.F) {
	for _, s := range []uint64{0, 3, 11, 99, 12345, 1 << 48} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		it, err := FromSeed(seed)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		text := it.Prog.String()
		p2, err := hlir.Parse(text)
		if err != nil {
			t.Fatalf("seed %#x: printed program does not parse: %v\n%s", seed, err, text)
		}
		if got := p2.String(); got != text {
			t.Fatalf("seed %#x: round-trip not byte-identical\n--- printed ---\n%s\n--- reparsed ---\n%s",
				seed, text, got)
		}
	})
}
