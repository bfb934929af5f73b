package hlirgen_test

import (
	"testing"

	"repro/internal/hlirgen"
	"repro/internal/workload"
)

// TestEvaluatorsAgree runs the seventeen paper analogs and the pinned
// 200-program corpus through both HLIR evaluators: the compiled code
// core.Reference runs must leave the tree walker's bits in every array
// element and its checksum.
func TestEvaluatorsAgree(t *testing.T) {
	for _, b := range workload.All() {
		p, d := b.Build()
		if err := hlirgen.DiffEvaluators(p, d); err != nil {
			t.Error(err)
		}
	}
	items, err := hlirgen.Corpus(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := hlirgen.DiffEvaluators(it.Prog, it.Data); err != nil {
			t.Error(err)
		}
	}
}
