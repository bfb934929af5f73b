// localitydemo walks through the paper's Figures 3-5: the doubly nested
// loop C[i][j] = A[i][j] + B[i][0] has spatial reuse on A (consecutive j
// touch one cache line) and temporal reuse on B (the address is invariant
// in j). Locality analysis peels the first iteration (Figure 5), unrolls
// the rest by the line size (Figure 4) and marks each load as a predicted
// cache hit or miss; the balanced scheduler then spends independent
// instructions only on the predicted misses.
//
// Run with:
//
//	go run ./examples/localitydemo
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/locality"
	"repro/internal/sched"
)

func figure3(n int) *hlir.Program {
	p := &hlir.Program{Name: "figure3"}
	a := p.NewArray("A", hlir.KFloat, n, n)
	b := p.NewArray("B", hlir.KFloat, n, n)
	c := p.NewArray("C", hlir.KFloat, n, n)
	p.Outputs = []*hlir.Array{c}
	i, j := hlir.IV("i"), hlir.IV("j")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.For("j", hlir.I(0), hlir.I(int64(n)),
				hlir.Set(hlir.At(c, i, j),
					hlir.Add(hlir.At(a, i, j), hlir.At(b, i, hlir.I(0)))))),
	}
	return p
}

func main() {
	const n = 64
	p := figure3(n)

	fmt.Println("Figure 3 — the original loop:")
	fmt.Print(hlir.Format(p.Body))
	fmt.Println()

	transformed, report := locality.Apply(p, 0)
	fmt.Println("After locality analysis (Figure 5 peel + Figure 4 unroll + marks):")
	fmt.Print(hlir.Format(transformed.Body))
	fmt.Printf("\nreport: %d loops analyzed, %d peeled, %d unrolled, %d miss marks, %d hit marks\n\n",
		report.LoopsAnalyzed, report.LoopsPeeled, report.LoopsUnrolled,
		report.Misses, report.Hits)

	// Measure the effect: balanced scheduling with and without locality
	// analysis.
	data := core.NewData()
	vals := make([]float64, n*n)
	for k := range vals {
		vals[k] = float64(k%19) * 0.5
	}
	data.F[p.Arrays[0]] = vals
	data.F[p.Arrays[1]] = vals

	want, err := core.Reference(p, data)
	if err != nil {
		log.Fatal(err)
	}
	var base int64
	for _, cfg := range []core.Config{
		{Policy: sched.Balanced},
		{Policy: sched.Balanced, Locality: true},
	} {
		compiled, err := core.Compile(p, cfg, data, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		met, got, err := core.Execute(compiled, data)
		if err != nil {
			log.Fatal(err)
		}
		if got != want {
			log.Fatalf("%s: wrong result", cfg.Name())
		}
		fmt.Printf("%-8s %8d cycles, %7d load interlock cycles (%.1f%% of total)\n",
			cfg.Name(), met.Cycles, met.LoadInterlock, 100*met.LoadInterlockShare())
		if base == 0 {
			base = met.Cycles
		} else {
			fmt.Printf("\nlocality analysis speedup: %.2fx\n", float64(base)/float64(met.Cycles))
		}
	}
}
