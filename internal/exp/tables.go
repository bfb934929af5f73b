package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table is a rendered experiment table.
type Table struct {
	// Title is the table caption (matching the paper's numbering).
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the data rows.
	Rows [][]string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			if i == 0 {
				fmt.Fprintf(w, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(w, "%*s", widths[i], c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	total := len(t.Header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pc1(v float64) string { return fmt.Sprintf("%.1f%%", v) }

var (
	bsNone   = core.Config{Policy: sched.Balanced}
	tsNone   = core.Config{Policy: sched.Traditional}
	bsLU4    = core.Config{Policy: sched.Balanced, Unroll: 4}
	bsLU8    = core.Config{Policy: sched.Balanced, Unroll: 8}
	tsLU4    = core.Config{Policy: sched.Traditional, Unroll: 4}
	tsLU8    = core.Config{Policy: sched.Traditional, Unroll: 8}
	bsTrS    = core.Config{Policy: sched.Balanced, Trace: true}
	bsTrS4   = core.Config{Policy: sched.Balanced, Trace: true, Unroll: 4}
	bsTrS8   = core.Config{Policy: sched.Balanced, Trace: true, Unroll: 8}
	tsTrS4   = core.Config{Policy: sched.Traditional, Trace: true, Unroll: 4}
	tsTrS8   = core.Config{Policy: sched.Traditional, Trace: true, Unroll: 8}
	bsLA     = core.Config{Policy: sched.Balanced, Locality: true}
	bsLA4    = core.Config{Policy: sched.Balanced, Locality: true, Unroll: 4}
	bsLA8    = core.Config{Policy: sched.Balanced, Locality: true, Unroll: 8}
	bsLATrS4 = core.Config{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 4}
	bsLATrS8 = core.Config{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 8}
)

// row fetches bench's metrics under each cfg; ok is false when any of
// those cells is missing or failed, in which case the benchmark renders
// as a degraded row and is excluded from the table's averages.
func (s *Suite) row(bench string, cfgs ...core.Config) ([]*sim.Metrics, bool) {
	out := make([]*sim.Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, ok := s.metrics(bench, cfg)
		if !ok {
			return nil, false
		}
		out[i] = m
	}
	return out, true
}

// degradedRow is a table row for a benchmark with failed or missing
// cells: its name followed by width-1 "----" columns.
func degradedRow(bench string, width int) []string {
	row := make([]string, width)
	row[0] = bench
	for i := 1; i < width; i++ {
		row[i] = "----"
	}
	return row
}

// Table1 describes the workload (static).
func Table1() *Table {
	t := &Table{
		Title:  "Table 1: The workload.",
		Header: []string{"Program", "Lang.", "Description"},
	}
	for _, b := range workload.All() {
		t.Rows = append(t.Rows, []string{b.Name, b.Lang, b.Description})
	}
	return t
}

// Table2 lists the memory hierarchy parameters (static configuration).
func Table2() *Table {
	return &Table{
		Title:  "Table 2: Memory hierarchy parameters.",
		Header: []string{"Parameter", "Value", "Latency (cycles)"},
		Rows: [][]string{
			{"L1 I-cache", "8KB direct-mapped, 32B lines", fmt.Sprint(cache.LatL1)},
			{"L1 D-cache (lockup-free)", "8KB direct-mapped, 32B lines, write-through", fmt.Sprint(cache.LatL1)},
			{"Outstanding misses (MSHRs)", fmt.Sprint(cache.MSHRs), "-"},
			{"L2 unified", "96KB 3-way, 32B lines", fmt.Sprint(cache.LatL2)},
			{"L3 board cache", "2MB direct-mapped", fmt.Sprint(cache.LatL3)},
			{"Main memory", "-", fmt.Sprint(cache.LatMem)},
			{"ITLB", "48 entries, 8KB pages", fmt.Sprint(cache.TLBMissPenalty) + " (miss)"},
			{"DTLB", "64 entries, 8KB pages", fmt.Sprint(cache.TLBMissPenalty) + " (miss)"},
		},
	}
}

// Table3 lists processor instruction latencies (static configuration).
func Table3() *Table {
	return &Table{
		Title:  "Table 3: Processor latencies.",
		Header: []string{"Instruction type", "Latency"},
		Rows: [][]string{
			{"integer op", fmt.Sprint(machine.LatInt)},
			{"integer multiply", fmt.Sprint(machine.LatIntMul)},
			{"load", fmt.Sprint(machine.LatLoadHit)},
			{"store", fmt.Sprint(machine.LatStore)},
			{"FP op (excluding divide)", fmt.Sprint(machine.LatFP)},
			{"FP div (23 bit fraction)", fmt.Sprint(machine.LatFPDivSingle)},
			{"FP div (53 bit fraction)", fmt.Sprint(machine.LatFPDiv)},
			{"branch", fmt.Sprint(machine.LatBranch)},
		},
	}
}

// Table4 — balanced scheduling: speedup in total cycles and percentage
// decrease in dynamic instruction count and load interlock cycles for
// unrolling factors 4 and 8, relative to no unrolling.
func (s *Suite) Table4() *Table {
	t := &Table{
		Title: "Table 4: Balanced scheduling: speedup and % decrease in instruction count and load interlock cycles for unrolling by 4 and 8 vs. no unrolling.",
		Header: []string{"Benchmark", "Cycles (no LU)", "Speedup LU4", "Speedup LU8",
			"Instrs (no LU)", "ΔInstr LU4", "ΔInstr LU8",
			"LoadIL (no LU)", "ΔLoadIL LU4", "ΔLoadIL LU8"},
	}
	var sp4, sp8, di4, di8, dl4, dl8 []float64
	for _, b := range s.sortedBenches() {
		ms, ok := s.row(b, bsNone, bsLU4, bsLU8)
		if !ok {
			t.Rows = append(t.Rows, degradedRow(b, len(t.Header)))
			continue
		}
		m0, m4, m8 := ms[0], ms[1], ms[2]
		row := []string{b,
			fmt.Sprint(m0.Cycles), f2(speedup(m0, m4)), f2(speedup(m0, m8)),
			fmt.Sprint(m0.Instrs),
			pc1(pctDecrease(m0.Instrs, m4.Instrs)), pc1(pctDecrease(m0.Instrs, m8.Instrs)),
			fmt.Sprint(m0.LoadInterlock)}
		if m0.LoadInterlock == 0 {
			row = append(row, "----", "----")
		} else {
			row = append(row,
				pc1(pctDecrease(m0.LoadInterlock, m4.LoadInterlock)),
				pc1(pctDecrease(m0.LoadInterlock, m8.LoadInterlock)))
			dl4 = append(dl4, pctDecrease(m0.LoadInterlock, m4.LoadInterlock))
			dl8 = append(dl8, pctDecrease(m0.LoadInterlock, m8.LoadInterlock))
		}
		t.Rows = append(t.Rows, row)
		sp4 = append(sp4, speedup(m0, m4))
		sp8 = append(sp8, speedup(m0, m8))
		di4 = append(di4, pctDecrease(m0.Instrs, m4.Instrs))
		di8 = append(di8, pctDecrease(m0.Instrs, m8.Instrs))
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", "", f2(mean(sp4)), f2(mean(sp8)),
		"", pc1(mean(di4)), pc1(mean(di8)), "", pc1(mean(dl4)), pc1(mean(dl8))})
	return t
}

// Table5 — balanced vs. traditional scheduling under loop unrolling:
// speedup, % reduction in load interlock cycles, and load interlocks as a
// percentage of total cycles.
func (s *Suite) Table5() *Table {
	t := &Table{
		Title: "Table 5: Balanced (BS) vs. traditional (TS) scheduling for loop unrolling.",
		Header: []string{"Benchmark",
			"BS/TS noLU", "BS/TS LU4", "BS/TS LU8",
			"ΔLoadIL noLU", "ΔLoadIL LU4", "ΔLoadIL LU8",
			"IL% BS noLU", "IL% TS noLU", "IL% BS LU4", "IL% TS LU4", "IL% BS LU8", "IL% TS LU8"},
	}
	levels := [][2]core.Config{{bsNone, tsNone}, {bsLU4, tsLU4}, {bsLU8, tsLU8}}
	sums := make([][]float64, 13)
	for _, b := range s.sortedBenches() {
		ms, ok := s.row(b, bsNone, tsNone, bsLU4, tsLU4, bsLU8, tsLU8)
		if !ok {
			t.Rows = append(t.Rows, degradedRow(b, len(t.Header)))
			continue
		}
		row := []string{b}
		var sp, dl, shares []string
		for li := range levels {
			mb := ms[2*li]
			mt := ms[2*li+1]
			sp = append(sp, f2(speedup(mt, mb)))
			sums[1+li] = append(sums[1+li], speedup(mt, mb))
			if mt.LoadInterlock == 0 {
				dl = append(dl, "----")
			} else {
				v := pctDecrease(mt.LoadInterlock, mb.LoadInterlock)
				dl = append(dl, pc1(v))
				sums[4+li] = append(sums[4+li], v)
			}
			shares = append(shares, pc1(100*mb.LoadInterlockShare()), pc1(100*mt.LoadInterlockShare()))
			sums[7+2*li] = append(sums[7+2*li], 100*mb.LoadInterlockShare())
			sums[8+2*li] = append(sums[8+2*li], 100*mt.LoadInterlockShare())
		}
		row = append(row, sp...)
		row = append(row, dl...)
		row = append(row, shares...)
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for i := 1; i <= 3; i++ {
		avg = append(avg, f2(mean(sums[i])))
	}
	for i := 4; i <= 6; i++ {
		avg = append(avg, pc1(mean(sums[i])))
	}
	for i := 7; i <= 12; i++ {
		avg = append(avg, pc1(mean(sums[i])))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// Table6 — speedups over balanced scheduling alone for every optimization
// combination.
func (s *Suite) Table6() *Table {
	return s.speedupTable("Table 6: Speedups over balanced scheduling alone for combinations of loop unrolling, trace scheduling (TrS) and locality analysis (LA).", []speedupCol{
		{name: "LU4", base: bsNone, new: bsLU4},
		{name: "LU8", base: bsNone, new: bsLU8},
		{name: "TrS", base: bsNone, new: bsTrS},
		{name: "TrS+LU4", base: bsNone, new: bsTrS4},
		{name: "TrS+LU8", base: bsNone, new: bsTrS8},
		{name: "LA", base: bsNone, new: bsLA},
		{name: "LA+LU4", base: bsNone, new: bsLA4},
		{name: "LA+LU8", base: bsNone, new: bsLA8},
		{name: "LA+TrS+LU4", base: bsNone, new: bsLATrS4},
		{name: "LA+TrS+LU8", base: bsNone, new: bsLATrS8},
	})
}

// Table7 — balanced vs. traditional scheduling: total-cycles speedup for
// unrolling alone and trace scheduling plus unrolling.
func (s *Suite) Table7() *Table {
	return s.speedupTable("Table 7: Speedup of balanced scheduling over traditional scheduling.", []speedupCol{
		{name: "No LU", base: tsNone, new: bsNone},
		{name: "LU4", base: tsLU4, new: bsLU4},
		{name: "LU8", base: tsLU8, new: bsLU8},
		{name: "TrS LU4", base: tsTrS4, new: bsTrS4},
		{name: "TrS LU8", base: tsTrS8, new: bsTrS8},
	})
}

// speedupCol is one column of a speedup table: base's cycles over new's
// at one issue width (0 means the single-issue machine).
type speedupCol struct {
	name      string
	base, new core.Config
	width     int
}

// speedupTable renders one speedup per benchmark and column, rows in
// Table 1 order. A benchmark missing any cell the table reads gets a
// degraded row, and the AVERAGE row averages the healthy benchmarks.
func (s *Suite) speedupTable(title string, cols []speedupCol) *Table {
	t := &Table{Title: title, Header: []string{"Benchmark"}}
	for _, c := range cols {
		t.Header = append(t.Header, c.name)
	}
	sums := make([][]float64, len(cols))
	for _, b := range s.sortedBenches() {
		vs := make([]float64, len(cols))
		ok := true
		for ci, c := range cols {
			base, okBase := s.metricsAt(b, c.base, c.width)
			m, okNew := s.metricsAt(b, c.new, c.width)
			if ok = okBase && okNew; !ok {
				break
			}
			vs[ci] = speedup(base, m)
		}
		if !ok {
			t.Rows = append(t.Rows, degradedRow(b, len(t.Header)))
			continue
		}
		row := []string{b}
		for ci, v := range vs {
			row = append(row, f2(v))
			sums[ci] = append(sums[ci], v)
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for ci := range cols {
		avg = append(avg, f2(mean(sums[ci])))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// Table8 — summary comparison of balanced and traditional scheduling per
// optimization level (averages across the workload).
func (s *Suite) Table8() *Table {
	t := &Table{
		Title: "Table 8: Summary comparison of balanced and traditional scheduling.",
		Header: []string{"Optimizations (besides BS)",
			"BS/TS speedup", "ΔLoadIL vs TS",
			"Speedup vs BS-none", "ΔLoadIL vs BS-none",
			"LoadIL% (BS)", "LoadIL% (TS)"},
	}
	rows := []struct {
		name   string
		bs, ts core.Config
		first  bool
	}{
		{"No optimizations", bsNone, tsNone, true},
		{"Loop unrolling by 4", bsLU4, tsLU4, false},
		{"Loop unrolling by 8", bsLU8, tsLU8, false},
		{"Trace scheduling with loop unrolling by 4", bsTrS4, tsTrS4, false},
		{"Trace scheduling with loop unrolling by 8", bsTrS8, tsTrS8, false},
	}
	for _, r := range rows {
		var sp, dlTS, spBase, dlBase, shareBS, shareTS []float64
		for _, b := range s.sortedBenches() {
			ms, ok := s.row(b, r.bs, r.ts, bsNone)
			if !ok {
				continue // injured benchmark: excluded from the summary averages
			}
			mb, mt, m0 := ms[0], ms[1], ms[2]
			sp = append(sp, speedup(mt, mb))
			if mt.LoadInterlock > 0 {
				dlTS = append(dlTS, pctDecrease(mt.LoadInterlock, mb.LoadInterlock))
			}
			spBase = append(spBase, speedup(m0, mb))
			if m0.LoadInterlock > 0 {
				dlBase = append(dlBase, pctDecrease(m0.LoadInterlock, mb.LoadInterlock))
			}
			shareBS = append(shareBS, 100*mb.LoadInterlockShare())
			shareTS = append(shareTS, 100*mt.LoadInterlockShare())
		}
		spBaseS, dlBaseS := f2(mean(spBase)), pc1(mean(dlBase))
		if r.first {
			spBaseS, dlBaseS = "n.a.", "n.a."
		}
		t.Rows = append(t.Rows, []string{r.name,
			f2(mean(sp)), pc1(mean(dlTS)), spBaseS, dlBaseS,
			pc1(mean(shareBS)), pc1(mean(shareTS))})
	}
	return t
}

// Table9 — summary of the locality-analysis results.
func (s *Suite) Table9() *Table {
	t := &Table{
		Title: "Table 9: Summary comparison of locality analysis results.",
		Header: []string{"Optimizations",
			"Speedup vs LA alone", "Speedup vs BS alone"},
	}
	rows := []struct {
		name string
		cfg  core.Config
	}{
		{"Locality analysis", bsLA},
		{"Locality analysis with loop unrolling by 4", bsLA4},
		{"Locality analysis with loop unrolling by 8", bsLA8},
		{"Locality analysis with trace scheduling and loop unrolling by 4", bsLATrS4},
		{"Locality analysis with trace scheduling and loop unrolling by 8", bsLATrS8},
	}
	for ri, r := range rows {
		var vsLA, vsBS []float64
		for _, b := range s.sortedBenches() {
			ms, ok := s.row(b, r.cfg, bsLA, bsNone)
			if !ok {
				continue // injured benchmark: excluded from the summary averages
			}
			vsLA = append(vsLA, speedup(ms[1], ms[0]))
			vsBS = append(vsBS, speedup(ms[2], ms[0]))
		}
		first := "n.a."
		if ri > 0 {
			first = f2(mean(vsLA))
		}
		t.Rows = append(t.Rows, []string{r.name, first, f2(mean(vsBS))})
	}
	return t
}

// Tables returns every dynamic table in paper order.
func (s *Suite) Tables() []*Table {
	return []*Table{s.Table4(), s.Table5(), s.Table6(), s.Table7(), s.Table8(), s.Table9()}
}
