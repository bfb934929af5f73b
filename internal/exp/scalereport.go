package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/obs"
)

// This file is the automated parallel-scaling report: it runs the same
// grid at jobs = 1, 2, 4, …, GOMAXPROCS with contention attribution on,
// and decomposes each width's shortfall from ideal speedup into named
// causes — an Amdahl-style breakdown measured, not inferred. Each of the
// w workers is either busy (building a front-end or running a cell) or
// idle. With busy(w) the workers' summed busy time and pool(w) the
// machine pool's summed lock waits (its wait histogram),
//
//	compute(w) = busy(w) − pool(w),  idle(w) = wall(w) − busy(w)/w
//	gap(w)     = wall(w) − wall(1)/w
//	           ≈ pool(w)/w + (compute(w) − compute(1))/w + idle(w)
//
// and every term on the right is a named cause: pool lock contention,
// per-cell compute dilation (memory bandwidth, GC — the same cells
// getting slower under parallelism), or idle workers (a pre-phase with
// fewer front-ends than workers, the tail of the cell queue). The
// remainder is the serial run's time outside compute, divided by w. The
// wait histograms give each resource's distribution; the runtime bridge
// separates our locks from the Go scheduler and GC.

// ScaleWidth is the measurement of one grid width.
type ScaleWidth struct {
	// Jobs is the worker count of this run.
	Jobs int `json:"jobs"`
	// WallSeconds is the grid's measured wall clock.
	WallSeconds float64 `json:"wall_seconds"`
	// Speedup is wall(1)/wall(jobs); Efficiency is Speedup/Jobs.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// IdealSeconds is wall(1)/jobs, GapSeconds the measured shortfall
	// (WallSeconds − IdealSeconds).
	IdealSeconds float64 `json:"ideal_seconds"`
	GapSeconds   float64 `json:"gap_seconds"`
	// BusySeconds is the time every worker spent building front-ends
	// and running cells, summed over workers (pool lock waits included).
	BusySeconds float64 `json:"busy_seconds"`
	// Attribution decomposes the gap per cause, in per-worker seconds:
	// block-pool is the "pool" wait histogram's sum divided by Jobs,
	// compute-dilation the growth of busy time net of pool waits over
	// jobs=1 divided by Jobs, idle the wall clock minus BusySeconds/Jobs.
	// The terms sum to AttributedSeconds and should approximate
	// GapSeconds.
	Attribution       map[string]float64 `json:"attribution_seconds"`
	AttributedSeconds float64            `json:"attributed_seconds"`
	// OtherSeconds is the unattributed remainder: the jobs=1 run's time
	// outside compute (queue building, worker spawn and join), divided
	// by Jobs.
	OtherSeconds float64 `json:"other_seconds"`
	// Waits carries each shared resource's wait distribution.
	Waits []obs.WaitSnapshot `json:"waits,omitempty"`
	// Runtime is the runtime/metrics delta across this width's run
	// (GC cycles and pauses, scheduler latency, goroutine count).
	Runtime obs.RuntimeSample `json:"runtime_delta"`
}

// ScaleReport is the full multi-width scaling measurement.
type ScaleReport struct {
	// GOMAXPROCS is the hardware parallelism the widths sweep up to.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Benches and Configs describe the grid each width ran.
	Benches []string `json:"benches"`
	Configs int      `json:"configs"`
	Cells   int      `json:"cells"`
	// BaselineSeconds is the jobs=1 wall clock every width is judged
	// against.
	BaselineSeconds float64 `json:"baseline_seconds"`
	// Widths holds one entry per measured width, ascending.
	Widths []ScaleWidth `json:"widths"`
	// Dominant names the largest attributed cause at the widest run —
	// the resource the next scaling fix should target.
	Dominant string `json:"dominant_resource"`
	// DominantSeconds is that cause's per-worker cost at the widest run.
	DominantSeconds float64 `json:"dominant_seconds"`
}

// scaleWidths is the sweep 1, 2, 4, … capped at max, with max itself
// always included (so a 6-core box measures 1, 2, 4, 6).
func scaleWidths(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// Attribution keys: pool lock waits, compute dilation and idle workers.
const (
	attrPool     = "block-pool"
	attrDilation = "compute-dilation"
	attrIdle     = "idle"
)

// attributionOrder fixes the report's column order.
var attributionOrder = []string{attrPool, attrDilation, attrIdle}

// RunScaleReport measures the grid's parallel scaling over the named
// benchmarks (all of them when names is empty). opt's Jobs, Contention,
// Tracer and Journal are owned by the report (each width gets a fresh
// contention bundle; journaling and tracing are disabled — one journal
// or trace cannot span repeated runs of the same cells without lanes
// colliding); Verify, CellTimeout, Ctx and Progress are honored. The
// error is the first width's grid failure — a degraded grid would
// poison the timing, so the report stops there.
func RunScaleReport(names []string, opt Options) (*ScaleReport, error) {
	benches, err := pick(names)
	if err != nil {
		return nil, err
	}
	opt.Journal = ""
	opt.Resume = false
	opt.Tracer = nil

	maxJobs := runtime.GOMAXPROCS(0)
	rep := &ScaleReport{
		GOMAXPROCS: maxJobs,
		Configs:    len(Cells()),
		Cells:      len(benches) * len(Cells()),
	}
	for _, b := range benches {
		rep.Benches = append(rep.Benches, b.Name)
	}

	var baseCompute float64 // compute at jobs=1: the dilation baseline
	for _, jobs := range scaleWidths(maxJobs) {
		wopt := opt
		wopt.Jobs = jobs
		wopt.Contention = obs.NewContention(0)

		rt0 := obs.SampleRuntime()
		start := time.Now()
		if _, err := RunBenchmarks(benches, wopt); err != nil {
			return rep, fmt.Errorf("exp: scale report at jobs=%d: %w", jobs, err)
		}
		wall := time.Since(start).Seconds()
		rtDelta := obs.SampleRuntime().Delta(rt0)

		busy := wopt.Contention.Busy().Seconds()
		pool := wopt.Contention.Hist("pool").Snapshot().Seconds()
		compute := busy - pool

		sw := ScaleWidth{
			Jobs:        jobs,
			WallSeconds: wall,
			BusySeconds: busy,
			Waits:       wopt.Contention.Waits.Snapshot(),
			Runtime:     rtDelta,
		}
		if len(rep.Widths) == 0 {
			rep.BaselineSeconds = wall
			baseCompute = compute
		}
		sw.Speedup = rep.BaselineSeconds / wall
		sw.Efficiency = sw.Speedup / float64(jobs)
		sw.IdealSeconds = rep.BaselineSeconds / float64(jobs)
		sw.GapSeconds = wall - sw.IdealSeconds

		// Per-worker attribution: pool waits divide across workers;
		// compute dilation is how much slower the same cells ran in
		// aggregate versus the serial baseline; idle is the wall clock a
		// worker spent outside every task.
		n := float64(jobs)
		sw.Attribution = map[string]float64{
			attrPool:     pool / n,
			attrDilation: (compute - baseCompute) / n,
			attrIdle:     wall - busy/n,
		}
		for _, v := range sw.Attribution {
			sw.AttributedSeconds += v
		}
		sw.OtherSeconds = sw.GapSeconds - sw.AttributedSeconds
		rep.Widths = append(rep.Widths, sw)
	}

	// Dominant cause at the widest run: the largest positive attribution.
	last := rep.Widths[len(rep.Widths)-1]
	for name, v := range last.Attribution {
		if v > rep.DominantSeconds {
			rep.Dominant, rep.DominantSeconds = name, v
		}
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report atomically to path.
func (r *ScaleReport) WriteJSONFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(b, '\n'))
}

// WriteText renders the human table: one row per width with efficiency
// and the per-cause gap breakdown, then the widest run's wait-histogram
// summary and runtime-bridge readings.
func (r *ScaleReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Parallel scaling report: %d benchmarks x %d configs = %d cells, GOMAXPROCS=%d\n\n",
		len(r.Benches), r.Configs, r.Cells, r.GOMAXPROCS)

	fmt.Fprintf(w, "%4s  %8s  %7s  %5s  %8s  |", "jobs", "wall(s)", "speedup", "eff%", "gap(s)")
	for _, k := range attributionOrder {
		fmt.Fprintf(w, "  %*s", attrColWidth(k), attrShort(k))
	}
	fmt.Fprintf(w, "  %8s\n", "other")
	for _, sw := range r.Widths {
		fmt.Fprintf(w, "%4d  %8.3f  %7.2f  %5.1f  %8.3f  |",
			sw.Jobs, sw.WallSeconds, sw.Speedup, 100*sw.Efficiency, sw.GapSeconds)
		for _, k := range attributionOrder {
			fmt.Fprintf(w, "  %*.3f", attrColWidth(k), sw.Attribution[k])
		}
		fmt.Fprintf(w, "  %8.3f\n", sw.OtherSeconds)
	}
	fmt.Fprintf(w, "\n(gap columns are per-worker seconds; gap ~= their sum + other)\n")

	if r.Dominant != "" {
		fmt.Fprintf(w, "\nDominant serialization at jobs=%d: %s (%.3fs per worker)\n",
			r.Widths[len(r.Widths)-1].Jobs, r.Dominant, r.DominantSeconds)
	}

	last := r.Widths[len(r.Widths)-1]
	if len(last.Waits) > 0 {
		fmt.Fprintf(w, "\nWait histograms at jobs=%d:\n", last.Jobs)
		fmt.Fprintf(w, "  %-12s  %8s  %12s  %12s  %12s\n", "resource", "waits", "total", "mean", "max")
		for _, ws := range last.Waits {
			mean := time.Duration(0)
			if ws.Count > 0 {
				mean = time.Duration(ws.SumNS / ws.Count)
			}
			fmt.Fprintf(w, "  %-12s  %8d  %12s  %12s  %12s\n",
				ws.Resource, ws.Count,
				time.Duration(ws.SumNS).Round(time.Microsecond),
				mean.Round(time.Microsecond),
				time.Duration(ws.MaxNS).Round(time.Microsecond))
		}
	}

	rt := last.Runtime
	fmt.Fprintf(w, "\nRuntime bridge at jobs=%d: goroutines=%d gc_cycles=%d gc_cpu=%.3fs\n",
		last.Jobs, rt.Goroutines, rt.GCCycles, rt.GCCPUSeconds)
	fmt.Fprintf(w, "  sched latency p50=%s p99=%s max=%s (%d samples)\n",
		time.Duration(rt.SchedLatency.P50NS), time.Duration(rt.SchedLatency.P99NS),
		time.Duration(rt.SchedLatency.MaxNS), rt.SchedLatency.Count)
	fmt.Fprintf(w, "  gc pauses     p50=%s p99=%s max=%s (%d pauses)\n",
		time.Duration(rt.GCPauses.P50NS), time.Duration(rt.GCPauses.P99NS),
		time.Duration(rt.GCPauses.MaxNS), rt.GCPauses.Count)
}

// attrShort abbreviates attribution keys for column headers.
func attrShort(k string) string {
	switch k {
	case attrPool:
		return "pool"
	case attrDilation:
		return "dilation"
	default:
		return k
	}
}

func attrColWidth(k string) int {
	if n := len(attrShort(k)); n > 7 {
		return n
	}
	return 7
}
