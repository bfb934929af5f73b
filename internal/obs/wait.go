package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wait-histogram half of the contention-attribution
// subsystem: every shared resource on the experiment engine's hot path
// (front-end cache, task deques, machine pool, journal) wraps its
// blocking operation in one of these helpers, so a slow parallel run
// decomposes into named per-resource wait-time distributions instead of
// an undifferentiated gap. WaitHist is lock-free (atomics only) because
// the whole point is to measure contention without adding a new lock to
// contend on; a nil *WaitHist or *WaitProfile is fully disabled and
// allocation-free.

// WaitBuckets is the number of wait-histogram buckets: bucket i counts
// waits ≤ 2^i nanoseconds (bucket 31 ≈ 2.1s), the final bucket absorbing
// overflow.
const WaitBuckets = 32

// WaitHist is a concurrency-safe histogram of wait durations for one
// named resource. Observe costs a few atomic adds; the zero value is
// ready to use.
type WaitHist struct {
	name    string
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [WaitBuckets]atomic.Int64
}

// Observe records one wait of duration d. Nil-safe; non-positive
// durations count as zero-length waits (bucket 0).
func (h *WaitHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	// Bucket i holds waits ≤ 2^i ns: the index is the bit length of ns,
	// clamped to the overflow bucket.
	i := bits.Len64(uint64(ns))
	if ns <= 1 {
		i = 0
	}
	if i >= WaitBuckets {
		i = WaitBuckets - 1
	}
	h.buckets[i].Add(1)
}

// WaitSnapshot is the serializable state of one resource's wait
// histogram.
type WaitSnapshot struct {
	// Resource names the contended resource ("frontend", "pool",
	// "journal", "taskqueue", ...).
	Resource string `json:"resource"`
	// Count is the number of recorded waits.
	Count int64 `json:"count"`
	// SumNS and MaxNS aggregate the wait time in nanoseconds.
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	// Buckets[i] counts waits ≤ 2^i ns; trailing zero buckets trimmed.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Seconds is the total recorded wait in seconds.
func (s WaitSnapshot) Seconds() float64 { return float64(s.SumNS) / 1e9 }

// Snapshot freezes the histogram. Nil snapshots to a zero-count
// snapshot.
func (h *WaitHist) Snapshot() WaitSnapshot {
	if h == nil {
		return WaitSnapshot{}
	}
	out := WaitSnapshot{
		Resource: h.name,
		Count:    h.count.Load(),
		SumNS:    h.sumNS.Load(),
		MaxNS:    h.maxNS.Load(),
	}
	last := -1
	var b [WaitBuckets]int64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		if b[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		out.Buckets = append([]int64(nil), b[:last+1]...)
	}
	return out
}

// WaitProfile is a registry of named WaitHists shared by every worker of
// a run. Hist is idempotent per name; a nil profile hands out nil hists,
// so one nil check at setup disables the whole layer.
type WaitProfile struct {
	mu    sync.Mutex
	hists map[string]*WaitHist
}

// NewWaitProfile returns an empty profile.
func NewWaitProfile() *WaitProfile {
	return &WaitProfile{hists: map[string]*WaitHist{}}
}

// Hist returns the histogram for resource name, creating it on first
// use. Nil-safe.
func (p *WaitProfile) Hist(name string) *WaitHist {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.hists[name]
	if h == nil {
		h = &WaitHist{name: name}
		p.hists[name] = h
	}
	return h
}

// Snapshot freezes every histogram, sorted by resource name. Nil
// snapshots to nil.
func (p *WaitProfile) Snapshot() []WaitSnapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	hists := make([]*WaitHist, 0, len(p.hists))
	for _, h := range p.hists {
		hists = append(hists, h)
	}
	p.mu.Unlock()
	out := make([]WaitSnapshot, 0, len(hists))
	for _, h := range hists {
		out = append(out, h.Snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Resource < out[b].Resource })
	return out
}

// AddTo folds every wait histogram into a Stats registry under
// "wait/<resource>" (values in nanoseconds), so wait distributions ride
// the existing snapshot/merge/Prometheus machinery. The power-of-two
// bucket layouts match; buckets beyond Stats' HistBuckets fold into its
// overflow bucket.
func (p *WaitProfile) AddTo(st *Stats) {
	if p == nil || st == nil {
		return
	}
	for _, ws := range p.Snapshot() {
		name := "wait/" + ws.Resource + "_ns"
		for i, n := range ws.Buckets {
			// Representative value for bucket i (≤ 2^i ns); buckets past
			// HistBuckets saturate into Stats' overflow bucket.
			st.ObserveN(name, int64(1)<<uint(i), n)
		}
	}
}

// TimedMutex is a sync.Mutex that attributes its lock waits to a
// WaitHist. The uncontended path is a TryLock (no timing, no clock
// read); only actual contention is measured. H must be set before first
// use (nil H behaves like a plain Mutex).
type TimedMutex struct {
	mu sync.Mutex
	// H receives the time spent blocked acquiring the lock.
	H *WaitHist
}

// Lock acquires the mutex, recording blocked time into H.
func (m *TimedMutex) Lock() {
	if m.H == nil {
		m.mu.Lock()
		return
	}
	if m.mu.TryLock() {
		return
	}
	start := time.Now()
	m.mu.Lock()
	m.H.Observe(time.Since(start))
}

// Unlock releases the mutex.
func (m *TimedMutex) Unlock() { m.mu.Unlock() }
