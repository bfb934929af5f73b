// Command bsched compiles and simulates one workload benchmark under
// selected configurations and prints a detailed cycle breakdown: total
// cycles, dynamic instructions, load and fixed-latency interlocks, fetch
// and branch stalls, spill traffic and cache behaviour. It is the
// inspection companion to cmd/paperbench.
//
// Usage:
//
//	bsched [-dump] [-verify] [-file prog.hlir] [-cpuprofile out.pb.gz]
//	       [-memprofile out.pb.gz] [-gotrace out.trace] <benchmark> [config ...]
//
// Configs are comma-free names like BS, TS, BS+LU4, TS+TrS+LU8,
// BS+LA+TrS+LU8. With none given, a representative set runs. With -file,
// the program is parsed from the given HLIR source file (the notation of
// the paper's figures — see examples/frontend) instead of the built-in
// workload; array contents start zeroed. -verify runs the structural
// invariant checkers (internal/verify) between every compile phase.
//
// Exit codes: 0 = clean; 1 = usage or fatal error; 3 = a verification
// failure — an invariant violation under -verify, or a simulated output
// checksum that differs from the reference interpreter's.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hlir"
	"repro/internal/obs"
	"repro/internal/verify"
	"repro/internal/workload"
)

// prof is package-level so exit can stop a running CPU profile before
// terminating.
var prof *obs.Profiles

// exit stops any running profiles, then terminates with code.
func exit(code int) {
	prof.Stop()
	os.Exit(code)
}

func main() {
	dump := flag.Bool("dump", false, "print the scheduled machine code")
	verifyFlag := flag.Bool("verify", false, "run structural invariant verifiers between every compile phase")
	file := flag.String("file", "", "run a program parsed from this HLIR source file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	goTrace := flag.String("gotrace", "", "write a Go execution trace (inspect with go tool trace)")
	flag.Parse()
	var err error
	prof, err = obs.StartProfiles(*cpuProfile, *memProfile, *goTrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsched:", err)
		os.Exit(1)
	}
	defer prof.Stop()
	args := flag.Args()
	if *file == "" && len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: bsched [-dump] <benchmark> [config ...]")
		fmt.Fprintln(os.Stderr, "benchmarks:")
		for _, b := range workload.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", b.Name, b.Description)
		}
		exit(1)
	}
	var build func() (*hlir.Program, *core.Data)
	var title, traits string
	configArgs := args
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsched:", err)
			exit(1)
		}
		prog, err := hlir.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsched:", err)
			exit(1)
		}
		title, traits = prog.Name, "user program from "+*file
		build = func() (*hlir.Program, *core.Data) { return prog.Clone(), core.NewData() }
	} else {
		b, err := workload.ByName(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsched:", err)
			exit(1)
		}
		title, traits = b.Name+" — "+b.Description, b.Traits
		build = b.Build
		configArgs = args[1:]
	}
	var configs []core.Config
	if len(configArgs) > 0 {
		for _, s := range configArgs {
			cfg, err := core.ParseConfig(s)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bsched:", err)
				exit(1)
			}
			configs = append(configs, cfg)
		}
	} else {
		configs = exp.Cells()
	}

	p, d := build()
	want, err := core.Reference(p, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsched: reference:", err)
		exit(1)
	}

	fmt.Println(title)
	fmt.Printf("traits: %s\n\n", traits)
	fmt.Printf("%-14s %10s %10s %9s %9s %8s %8s %9s %7s %7s\n",
		"config", "cycles", "instrs", "loadIL", "fixedIL", "fetch", "brStall", "spills", "L1D%", "CPI")
	mismatched := false
	for _, cfg := range configs {
		c, err := core.Compile(p, cfg, d, core.Options{Verify: *verifyFlag})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsched: %s: %v\n", cfg.Name(), err)
			if verify.IsVerification(err) {
				exit(3)
			}
			exit(1)
		}
		met, got, err := core.Execute(c, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsched: %s: %v\n", cfg.Name(), err)
			exit(1)
		}
		status := ""
		if got != want {
			status = "  CHECKSUM MISMATCH"
			mismatched = true
		}
		cpi := float64(met.Cycles) / float64(met.Instrs)
		fmt.Printf("%-14s %10d %10d %9d %9d %8d %8d %9d %6.1f%% %7.2f%s\n",
			cfg.Name(), met.Cycles, met.Instrs, met.LoadInterlock, met.FixedInterlock,
			met.FetchStall, met.BranchStall, met.SpillStores+met.SpillRestores,
			100*met.L1DHitRate(), cpi, status)
		if *dump {
			fmt.Println(c.Fn)
		}
	}
	// A checksum mismatch is a verification failure: the full breakdown
	// was printed so every mismatching config is visible, then exit 3.
	if mismatched {
		exit(3)
	}
}
