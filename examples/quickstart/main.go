// Quickstart: build a small loop program, compile it under traditional and
// balanced scheduling, simulate both on the Alpha 21164 model and compare.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/sched"
)

func main() {
	// A dot-product-flavoured kernel over arrays larger than the 8KB L1
	// cache, so loads really miss and scheduling matters.
	const n = 4096
	p := &hlir.Program{Name: "quickstart"}
	a := p.NewArray("a", hlir.KFloat, n)
	b := p.NewArray("b", hlir.KFloat, n)
	out := p.NewArray("out", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{out}
	i := hlir.IV("i")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(n),
			hlir.Set(hlir.At(out, i),
				hlir.Add(hlir.Mul(hlir.At(a, i), hlir.At(b, i)),
					hlir.At(out, i)))),
	}

	// Inputs.
	data := core.NewData()
	av := make([]float64, n)
	bv := make([]float64, n)
	for k := 0; k < n; k++ {
		av[k] = float64(k%17) * 0.25
		bv[k] = float64(k%5) - 2
	}
	data.F[a] = av
	data.F[b] = bv

	// The interpreter gives the ground truth every compiled configuration
	// must reproduce bit for bit.
	want, err := core.Reference(p, data)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("config        cycles   instrs  load-interlock  share")
	var cycles [2]int64
	for pi, policy := range []sched.Policy{sched.Traditional, sched.Balanced} {
		cfg := core.Config{Policy: policy, Unroll: 4}
		compiled, err := core.Compile(p, cfg, data, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		met, got, err := core.Execute(compiled, data)
		if err != nil {
			log.Fatal(err)
		}
		if got != want {
			log.Fatalf("%s: wrong output (checksum %x, want %x)", cfg.Name(), got, want)
		}
		fmt.Printf("%-10s %9d %8d %15d %5.1f%%\n",
			cfg.Name(), met.Cycles, met.Instrs, met.LoadInterlock,
			100*met.LoadInterlockShare())
		cycles[pi] = met.Cycles
	}
	fmt.Printf("\nbalanced-scheduling speedup: %.2fx\n",
		float64(cycles[0])/float64(cycles[1]))
}
