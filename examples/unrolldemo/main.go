// unrolldemo shows loop unrolling with postconditioning (the paper's
// Figure 4 shape): the main loop runs the unrolled copies and guarded
// remainder iterations execute afterwards, so the iteration count need not
// divide the unrolling factor. The demo prints the transformed source and
// measures how unrolling interacts with each scheduler — unrolling helps
// both, but balanced scheduling converts the extra instruction-level
// parallelism into fewer load interlocks (the paper's central result).
//
// Run with:
//
//	go run ./examples/unrolldemo
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/unroll"
)

func main() {
	const n = 4099 // deliberately not a multiple of 4 or 8
	p := &hlir.Program{Name: "unrolldemo"}
	a := p.NewArray("a", hlir.KFloat, n)
	b := p.NewArray("b", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{b}
	i := hlir.IV("i")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(n),
			hlir.Set(hlir.At(b, i),
				hlir.Add(hlir.Mul(hlir.At(a, i), hlir.F(1.5)), hlir.At(b, i)))),
	}

	fmt.Println("Original loop:")
	fmt.Print(hlir.Format(p.Body))
	fmt.Println("\nUnrolled by 4 with a postconditioned remainder (Figure 4):")
	fmt.Print(hlir.Format(unroll.Apply(p, 4).Body))

	data := core.NewData()
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = float64(k % 23)
	}
	data.F[a] = vals

	want, err := core.Reference(p, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconfig       cycles   instrs  branches  load-interlock")
	for _, cfg := range []core.Config{
		{Policy: sched.Traditional},
		{Policy: sched.Traditional, Unroll: 4},
		{Policy: sched.Traditional, Unroll: 8},
		{Policy: sched.Balanced},
		{Policy: sched.Balanced, Unroll: 4},
		{Policy: sched.Balanced, Unroll: 8},
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
		fmt.Printf("%-10s %9d %8d %9d %15d\n",
			cfg.Name(), met.Cycles, met.Instrs, met.ByClass[ir.ClassBranch], met.LoadInterlock)
	}
}
