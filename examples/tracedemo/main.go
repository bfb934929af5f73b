// tracedemo reconstructs the paper's Figure 2: a control-flow graph where
// profiling identifies blocks 1→2→4→5 as the hot trace and block 3 as the
// off-trace path. Trace scheduling treats the trace as one scheduling
// region; an instruction hoisted above the join from block 3 is copied
// onto the joining edge (compensation code) so the cold path still
// computes the right answer.
//
// Run with:
//
//	go run ./examples/tracedemo
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/sched"
)

func main() {
	// A loop whose body splits on a rarely-true condition and rejoins:
	// lowering produces the Figure 2 shape once per iteration.
	const n = 2048
	p := &hlir.Program{Name: "figure2"}
	a := p.NewArray("a", hlir.KFloat, n)
	out := p.NewArray("out", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{out}
	i := hlir.IV("i")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(1), hlir.I(n),
			// Block 2 / block 3: the cold path (a[i] < 0.02) clamps via
			// an array store, which cannot be predicated — a real split.
			hlir.WhenElse(hlir.Lt(hlir.At(a, i), hlir.F(0.02)),
				[]hlir.Stmt{hlir.Set(hlir.At(out, i), hlir.F(0))},
				[]hlir.Stmt{hlir.Set(hlir.At(out, i),
					hlir.Mul(hlir.At(a, i), hlir.At(a, hlir.Sub(i, hlir.I(1)))))}),
			// Blocks 4-5: the join continuation.
			hlir.Set(hlir.At(out, i),
				hlir.Add(hlir.At(out, i), hlir.Div(hlir.F(1), hlir.At(a, i))))),
	}

	data := core.NewData()
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = 0.05 + float64(k%97)*0.01 // cold path almost never taken
	}
	vals[100], vals[700] = 0.01, 0.015 // but not never
	data.F[a] = vals

	want, err := core.Reference(p, data)
	if err != nil {
		log.Fatal(err)
	}

	var base int64
	for _, cfg := range []core.Config{
		{Policy: sched.Balanced, Unroll: 4},
		{Policy: sched.Balanced, Unroll: 4, Trace: true},
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
		fmt.Printf("%-14s %8d cycles, %7d instructions", cfg.Name(), met.Cycles, met.Instrs)
		if compiled.Trace != nil {
			fmt.Printf("  (%d traces, %d speculated instructions, %d compensation copies)",
				compiled.Trace.Traces, compiled.Trace.Speculated, compiled.Trace.CompCopies)
		}
		fmt.Println()
		if base == 0 {
			base = met.Cycles
		} else {
			fmt.Printf("\ntrace scheduling speedup on the hot path: %.2fx\n",
				float64(base)/float64(met.Cycles))
		}
	}
	fmt.Println("\nSpeculated instructions moved above the split because the profile")
	fmt.Println("says the cold side almost never executes; compensation copies on the")
	fmt.Println("join edge keep the cold path correct (the paper's Figure 2 rules).")
}
