// Command tracecheck validates a Chrome trace-event JSON file (as written
// by paperbench -tracefile) and prints a span summary: it parses the
// file, rejects negative timestamps/durations and improperly nested spans,
// and reports span counts by name plus the number of worker lanes. CI
// runs it over the smoke grid's trace; a non-zero exit means the trace is
// structurally broken.
//
// Usage:
//
//	tracecheck grid.trace.json
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	sum, err := obs.ValidateChromeTrace(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d spans on %d lanes\n", os.Args[1], sum.Spans, sum.Lanes)
	names := make([]string, 0, len(sum.Names))
	for n := range sum.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s %d\n", n, sum.Names[n])
	}
}
