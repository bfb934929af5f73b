package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Stats is a registry of named counters and histograms. Names are
// slash-scoped by the registering package ("dag/nodes",
// "sched/ready_len", "regalloc/spill_stores"), so one flat namespace
// carries the whole compilation pipeline's self-measurement.
//
// A Stats is safe for concurrent use: the experiment engine gives each
// (benchmark, configuration) cell its own registry, while the serving
// layers (bschedd's worker and coordinator modes) share one across every
// request goroutine. A nil *Stats is a valid disabled registry:
// Add/Inc/Observe on nil are no-ops.
type Stats struct {
	mu sync.Mutex
	c  map[string]int64
	h  map[string]*hist
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{c: map[string]int64{}, h: map[string]*hist{}}
}

// Add increments counter name by v. No-op on a nil registry.
func (s *Stats) Add(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.c[name] += v
	s.mu.Unlock()
}

// Inc increments counter name by one. No-op on a nil registry.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Counter returns counter name's current value (zero on a nil registry).
func (s *Stats) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c[name]
}

// Observe records v into histogram name. No-op on a nil registry.
func (s *Stats) Observe(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.h[name]
	if h == nil {
		h = &hist{}
		s.h[name] = h
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := 0
	for i < HistBuckets-1 && v > int64(1)<<uint(i) {
		i++
	}
	h.buckets[i]++
}

// Merge folds a snapshot into the registry, as if every count and
// observation behind it had been recorded here: counters add, histogram
// counts, sums and buckets add, and min/max widen. No-op on a nil
// registry or a nil snapshot.
func (s *Stats) Merge(o *Snapshot) {
	if s == nil || o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range o.Counters {
		s.c[k] += v
	}
	for k, oh := range o.Hists {
		h := s.h[k]
		if h == nil {
			h = &hist{}
			s.h[k] = h
		}
		if h.count == 0 || oh.Min < h.min {
			h.min = oh.Min
		}
		if h.count == 0 || oh.Max > h.max {
			h.max = oh.Max
		}
		h.count += oh.Count
		h.sum += oh.Sum
		for i, b := range oh.Buckets {
			h.buckets[i] += b
		}
	}
}

// HistBuckets is the number of histogram buckets: bucket i counts
// observations ≤ 2^i, with the final bucket absorbing overflow.
const HistBuckets = 16

type hist struct {
	count, sum int64
	min, max   int64
	buckets    [HistBuckets]int64
}

// Snapshot is the serializable form of a Stats registry. It also carries
// the unified per-cell view the engine builds: compiler-side counters
// plus the simulator's Metrics folded in under "sim/".
type Snapshot struct {
	// Counters maps counter name to value.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Hists maps histogram name to its distribution summary.
	Hists map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot summarises one histogram.
type HistSnapshot struct {
	// Count and Sum aggregate all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Min and Max bound the observed values.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets[i] counts observations ≤ 2^i (the last bucket counts the
	// rest); trailing empty buckets are trimmed.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot freezes the registry into its serializable form. A nil
// registry snapshots to nil.
func (s *Stats) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Snapshot{}
	if len(s.c) > 0 {
		out.Counters = make(map[string]int64, len(s.c))
		for k, v := range s.c {
			out.Counters[k] = v
		}
	}
	if len(s.h) > 0 {
		out.Hists = make(map[string]HistSnapshot, len(s.h))
		for k, h := range s.h {
			hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			last := -1
			for i, b := range h.buckets {
				if b != 0 {
					last = i
				}
			}
			if last >= 0 {
				hs.Buckets = append([]int64(nil), h.buckets[:last+1]...)
			}
			out.Hists[k] = hs
		}
	}
	return out
}

// Merge folds o into s: counters add, histogram counts/sums add and
// min/max widen. Both sides nil-safe; merging nil is a no-op.
func (s *Snapshot) Merge(o *Snapshot) {
	if s == nil || o == nil {
		return
	}
	for k, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = map[string]int64{}
		}
		s.Counters[k] += v
	}
	for k, oh := range o.Hists {
		if s.Hists == nil {
			s.Hists = map[string]HistSnapshot{}
		}
		h, ok := s.Hists[k]
		if !ok {
			h = HistSnapshot{Min: oh.Min, Max: oh.Max}
		}
		if oh.Count > 0 {
			if h.Count == 0 || oh.Min < h.Min {
				h.Min = oh.Min
			}
			if h.Count == 0 || oh.Max > h.Max {
				h.Max = oh.Max
			}
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		for i, b := range oh.Buckets {
			for len(h.Buckets) <= i {
				h.Buckets = append(h.Buckets, 0)
			}
			h.Buckets[i] += b
		}
		s.Hists[k] = h
	}
}

// CounterNames returns the snapshot's counter names, sorted.
func (s *Snapshot) CounterNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// promName sanitizes a slash-scoped metric name into the Prometheus
// exposition alphabet.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// GaugeWriter emits point-in-time Prometheus gauge samples — the
// serving layer's queue depth, breaker states and cache occupancy, which
// are instantaneous values rather than the monotonic counters a Stats
// registry accumulates. Each metric's "# TYPE" header is written once,
// before its first sample; errors are sticky and surfaced by Err.
type GaugeWriter struct {
	w     io.Writer
	typed map[string]bool
	err   error
}

// NewGaugeWriter returns a writer emitting to w.
func NewGaugeWriter(w io.Writer) *GaugeWriter {
	return &GaugeWriter{w: w, typed: map[string]bool{}}
}

// Gauge writes one sample. name is sanitized like counter names; labels
// (optional) are emitted in sorted order so output is deterministic.
func (g *GaugeWriter) Gauge(name string, labels map[string]string, v int64) {
	if g.err != nil {
		return
	}
	n := promName(name)
	if !g.typed[n] {
		g.typed[n] = true
		if _, err := fmt.Fprintf(g.w, "# TYPE %s gauge\n", n); err != nil {
			g.err = err
			return
		}
	}
	lab := ""
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%q", promName(k), labels[k]))
		}
		lab = "{" + strings.Join(parts, ",") + "}"
	}
	if _, err := fmt.Fprintf(g.w, "%s%s %d\n", n, lab, v); err != nil {
		g.err = err
	}
}

// Err reports the first write error, if any.
func (g *GaugeWriter) Err() error { return g.err }

// Gauges writes one unlabeled sample per entry of m, each name prefixed,
// in sorted name order.
func (g *GaugeWriter) Gauges(prefix string, m map[string]int64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g.Gauge(prefix+k, nil, m[k])
	}
}

// DebugDoc is the part of a daemon's /debug/obs document every bschedd
// mode shares: the counter/histogram registry (the data /metrics renders
// as Prometheus text), the point-in-time gauges /metrics also renders,
// and a live runtime/metrics sample. Each daemon embeds it in its own
// document next to its mode-specific sections.
type DebugDoc struct {
	Stats   *Snapshot        `json:"stats"`
	Gauges  map[string]int64 `json:"gauges"`
	Runtime RuntimeSample    `json:"runtime"`
}

// NewDebugDoc snapshots st and samples the runtime.
func NewDebugDoc(st *Stats, gauges map[string]int64) DebugDoc {
	return DebugDoc{Stats: st.Snapshot(), Gauges: gauges, Runtime: SampleRuntime()}
}

// WritePrometheus dumps the snapshot in the Prometheus text exposition
// format, every metric prefixed (e.g. "paperbench_"). Counters become
// counters; histograms expose _count/_sum/_min/_max series plus
// cumulative _bucket{le="..."} series with power-of-two bounds. Output is
// sorted and deterministic for a deterministic snapshot.
func (s *Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	if s == nil {
		return nil
	}
	for _, name := range s.CounterNames() {
		n := prefix + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Hists[name]
		n := prefix + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Buckets {
			cum += b
			le := fmt.Sprintf("%d", int64(1)<<uint(i))
			if i == HistBuckets-1 {
				le = "+Inf"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
				return err
			}
		}
		if len(h.Buckets) < HistBuckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n%s_min %d\n%s_max %d\n",
			n, h.Sum, n, h.Count, n, h.Min, n, h.Max); err != nil {
			return err
		}
	}
	return nil
}
