package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/hlirgen"
)

// This file adapts generated corpora (internal/hlirgen) to the Benchmark
// interface, so the experiment grid runs seeded program populations
// through exactly the same engine, oracle and table machinery as the
// seventeen hand-built analogs.

// FromItems wraps corpus items as benchmarks. Build returns the item's
// already-generated program and data: the engine treats both as
// read-only (core.Compile's immutability contract), so sharing is safe.
func FromItems(items []hlirgen.Item) []Benchmark {
	benches := make([]Benchmark, len(items))
	for i, it := range items {
		it := it
		benches[i] = Benchmark{
			Name:        it.Prog.Name,
			Lang:        "gen",
			Description: fmt.Sprintf("generated (seed %#x)", it.Seed),
			Traits:      it.Stratum.Label(),
			Build:       func() (*hlir.Program, *core.Data) { return it.Prog, it.Data },
		}
	}
	return benches
}
