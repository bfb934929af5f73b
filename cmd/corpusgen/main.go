// Command corpusgen mints a stratified corpus of generated HLIR programs
// (internal/hlirgen) onto disk: one parseable .hlir source file per
// program plus a manifest.jsonl recording each program's seed and stratum
// labels (loop depth, reuse class, ILP estimate). The corpus is a pure
// function of (-n, -seed): rerunning corpusgen with the same flags
// reproduces every file byte for byte, as hlirgen.Corpus(seed, n) does
// in memory, so corpora need never be checked in.
//
// Usage:
//
//	corpusgen [-n N] [-seed S] [-dir path] [-stats]
//
// -dir writes the corpus there (created if missing). Without -dir only
// the summary is printed — a fast way to inspect a seed's strata.
// -stats prints the per-stratum histogram.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/exp"
	"repro/internal/hlirgen"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("corpusgen", flag.ContinueOnError)
	n := fs.Int("n", 1000, "number of programs to generate")
	seed := fs.Uint64("seed", 1, "corpus seed; same (n, seed) reproduces the same corpus byte for byte")
	dir := fs.String("dir", "", "output directory for .hlir files and manifest.jsonl (omit to only summarize)")
	stats := fs.Bool("stats", false, "print the per-stratum histogram")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "corpusgen: -n must be positive")
		return 1
	}

	items, err := hlirgen.Corpus(*seed, *n)
	if err != nil {
		return fail(err)
	}

	totalStmts := 0
	strata := map[string]int{}
	for _, it := range items {
		totalStmts += hlirgen.CountStmts(it.Prog.Body)
		strata[it.Stratum.Label()]++
	}

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fail(err)
		}
		for _, it := range items {
			path := filepath.Join(*dir, it.Prog.Name+".hlir")
			if err := exp.WriteFileAtomic(path, []byte(it.Prog.String())); err != nil {
				return fail(err)
			}
		}
		manifest := hlirgen.EncodeManifest(*seed, items)
		if err := exp.WriteFileAtomic(filepath.Join(*dir, "manifest.jsonl"), manifest); err != nil {
			return fail(err)
		}
	}

	fmt.Printf("corpus: %d programs, seed %d, %d statements, %d strata\n",
		len(items), *seed, totalStmts, len(strata))
	if *dir != "" {
		fmt.Printf("wrote %d .hlir files + manifest.jsonl to %s\n", len(items), *dir)
	}
	if *stats {
		labels := make([]string, 0, len(strata))
		for l := range strata {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Printf("%-24s %d\n", l, strata[l])
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	return 1
}
