package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// This file bridges the Go runtime's own telemetry (runtime/metrics)
// into the obs layer: goroutine count, GC pauses and the scheduler's
// goroutine-latency distribution are exactly the signals that separate
// "our workers are blocked on our locks" from "the Go scheduler or the
// GC is the serialization". The scale report samples before/after each
// width and ships the deltas; bschedd's /debug/obs samples live.

// runtimeSamples is the fixed set of runtime/metrics this bridge reads.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

// RuntimeDist summarizes a runtime/metrics float64 histogram: total
// count plus approximate quantiles in nanoseconds (bucket upper bounds,
// so quantiles are conservative).
type RuntimeDist struct {
	Count int64 `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
	// SumNS approximates total time in the distribution from bucket
	// midpoints (runtime histograms do not carry exact sums).
	SumNS int64 `json:"sum_ns"`
}

// RuntimeSample is one point-in-time reading of the runtime bridge.
type RuntimeSample struct {
	// When is the sample's wall-clock time.
	When time.Time `json:"when"`
	// Goroutines is the live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// GCCycles counts completed GC cycles since process start.
	GCCycles int64 `json:"gc_cycles"`
	// HeapBytes is live heap object memory.
	HeapBytes int64 `json:"heap_bytes"`
	// GCCPUSeconds is total CPU spent in the GC since process start.
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
	// SchedLatency distributes time runnable goroutines waited for a
	// thread — the Go scheduler's own queueing delay.
	SchedLatency RuntimeDist `json:"sched_latency"`
	// GCPauses distributes stop-the-world pause lengths.
	GCPauses RuntimeDist `json:"gc_pauses"`
}

// SampleRuntime reads the bridge's runtime/metrics set.
func SampleRuntime() RuntimeSample {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := RuntimeSample{When: time.Now()}
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			out.Goroutines = kindInt(s)
		case "/gc/cycles/total:gc-cycles":
			out.GCCycles = kindInt(s)
		case "/memory/classes/heap/objects:bytes":
			out.HeapBytes = kindInt(s)
		case "/cpu/classes/gc/total:cpu-seconds":
			if s.Value.Kind() == metrics.KindFloat64 {
				out.GCCPUSeconds = s.Value.Float64()
			}
		case "/sched/latencies:seconds":
			out.SchedLatency = distSummary(s)
		case "/gc/pauses:seconds":
			out.GCPauses = distSummary(s)
		}
	}
	return out
}

// kindInt reads a Uint64 sample defensively (a runtime that drops a
// metric reports KindBad; we return 0 rather than panic).
func kindInt(s metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	v := s.Value.Uint64()
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// distSummary condenses a runtime float64-histogram (seconds) into
// nanosecond quantiles.
func distSummary(s metrics.Sample) RuntimeDist {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return RuntimeDist{}
	}
	h := s.Value.Float64Histogram()
	var out RuntimeDist
	for _, c := range h.Counts {
		out.Count += int64(c)
	}
	if out.Count == 0 {
		return out
	}
	// Quantile q: first bucket whose cumulative count crosses q*total;
	// report its upper bound (clamped for the +Inf tail).
	quantile := func(q float64) int64 {
		target := uint64(q * float64(out.Count))
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if cum > target {
				return boundNS(h.Buckets, i+1)
			}
		}
		return boundNS(h.Buckets, len(h.Buckets)-1)
	}
	out.P50NS = quantile(0.50)
	out.P90NS = quantile(0.90)
	out.P99NS = quantile(0.99)
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			out.MaxNS = boundNS(h.Buckets, i+1)
			break
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo := boundNS(h.Buckets, i)
		hi := boundNS(h.Buckets, i+1)
		out.SumNS += int64(c) * ((lo + hi) / 2)
	}
	return out
}

// boundNS converts bucket boundary i (seconds, possibly ±Inf) to
// nanoseconds, clamping infinities to the neighboring finite bound.
func boundNS(buckets []float64, i int) int64 {
	if i < 0 {
		i = 0
	}
	if i >= len(buckets) {
		i = len(buckets) - 1
	}
	b := buckets[i]
	if math.IsInf(b, +1) && i > 0 {
		b = buckets[i-1]
	}
	if math.IsInf(b, -1) || math.IsNaN(b) || b < 0 {
		b = 0
	}
	return int64(b * 1e9)
}

// Delta returns the change from prev to s for the cumulative fields
// (GC cycles, GC CPU, distribution counts); instantaneous fields
// (goroutines, heap) carry s's values. Used by the scale report to
// attribute runtime activity to one grid width.
func (s RuntimeSample) Delta(prev RuntimeSample) RuntimeSample {
	d := s
	d.GCCycles -= prev.GCCycles
	d.GCCPUSeconds -= prev.GCCPUSeconds
	d.SchedLatency.Count -= prev.SchedLatency.Count
	d.SchedLatency.SumNS -= prev.SchedLatency.SumNS
	d.GCPauses.Count -= prev.GCPauses.Count
	d.GCPauses.SumNS -= prev.GCPauses.SumNS
	return d
}
