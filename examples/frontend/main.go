// frontend demonstrates the textual HLIR front end: a kernel written in
// the paper's figure notation is parsed, compiled under every optimization
// combination and simulated — the same workflow cmd/bsched offers via
// -file.
//
// Run with:
//
//	go run ./examples/frontend
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/hlir"
)

func main() {
	src, err := os.ReadFile(filepath.Join("examples", "frontend", "kernel.hlir"))
	if err != nil {
		// Allow running from the example directory too.
		src, err = os.ReadFile("kernel.hlir")
		if err != nil {
			log.Fatal(err)
		}
	}
	p, err := hlir.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed program %q: %d arrays, %d top-level statements\n\n",
		p.Name, len(p.Arrays), len(p.Body))

	data := core.NewData() // inputs start zeroed; the kernel still runs
	want, err := core.Reference(p, data)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"TS", "BS", "BS+LU4", "BS+LA+LU4", "BS+LA+TrS+LU8"} {
		cfg, err := core.ParseConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		c, err := core.Compile(p, cfg, data, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		met, got, err := core.Execute(c, data)
		if err != nil {
			log.Fatal(err)
		}
		ok := "ok"
		if got != want {
			ok = "WRONG RESULT"
		}
		fmt.Printf("%-14s %8d cycles  %7d instrs  %6d load-interlock  [%s]\n",
			name, met.Cycles, met.Instrs, met.LoadInterlock, ok)
	}
}
