package obs

import (
	"testing"
	"time"
)

// TestWaitHistObserve checks the bucket layout: bucket i counts waits
// ≤ 2^i ns, the overflow bucket absorbs the rest.
func TestWaitHistObserve(t *testing.T) {
	h := &WaitHist{name: "r"}
	h.Observe(0)                    // bucket 0
	h.Observe(1)                    // bucket 0
	h.Observe(2)                    // bucket 1 (len64(2)=2... ≤ 4)
	h.Observe(1000)                 // ~2^10
	h.Observe(3 * time.Second)      // past bucket 31: overflow
	h.Observe(-5 * time.Nanosecond) // clamped to 0

	s := h.Snapshot()
	if s.Resource != "r" {
		t.Errorf("resource = %q", s.Resource)
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.MaxNS != (3 * time.Second).Nanoseconds() {
		t.Errorf("max = %d", s.MaxNS)
	}
	wantSum := int64(1 + 2 + 1000 + 3e9)
	if s.SumNS != wantSum {
		t.Errorf("sum = %d, want %d", s.SumNS, wantSum)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
	if len(s.Buckets) != WaitBuckets {
		t.Errorf("3s wait should land in the overflow bucket (len %d), got %d buckets", WaitBuckets, len(s.Buckets))
	}
	if s.Buckets[0] != 3 {
		t.Errorf("bucket 0 = %d, want 3 (0ns, 1ns and clamped negative)", s.Buckets[0])
	}
}

// TestTimedMutexRecordsContention holds the lock on one goroutine while
// another Locks: the waiter's blocked time must land in the histogram,
// and uncontended acquisitions must record nothing.
func TestTimedMutexRecordsContention(t *testing.T) {
	h := &WaitHist{name: "mu"}
	var m TimedMutex
	m.H = h

	m.Lock()
	m.Unlock()
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("uncontended TryLock path recorded %d waits", n)
	}

	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock() // blocks until the holder releases
		m.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	m.Unlock()
	<-done
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("contended lock recorded %d waits, want 1", s.Count)
	}
	if s.SumNS < (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("blocked wait = %dns, want >= 2ms", s.SumNS)
	}
}

// TestWaitDisabledZeroAlloc proves the nil fast paths are free.
func TestWaitDisabledZeroAlloc(t *testing.T) {
	var h *WaitHist
	var p *WaitProfile
	var m TimedMutex
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Microsecond)
		p.Hist("x").Observe(0)
		m.Lock()
		m.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("disabled wait path allocates %.1f per op, want 0", allocs)
	}
}

// TestTimelineDisabledZeroAlloc proves a worker's timeline costs nothing
// when it is off: spans on a worker's trace lane through a nil *Tracer
// or nil *Obs, and the busy-time and wait accounting of a nil
// *Contention, allocate nothing.
func TestTimelineDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	var o *Obs
	var c *Contention
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Begin(3, "cell", "exp").End()
		o.Begin("cell", "exp").End()
		c.Hist("pool").Observe(time.Microsecond)
		c.AddBusy(time.Microsecond)
		_ = c.Busy()
	})
	if allocs != 0 {
		t.Fatalf("disabled timeline path allocates %.1f per op, want 0", allocs)
	}
}

// TestRuntimeSample sanity-checks the runtime bridge: a live process has
// goroutines, and Delta subtracts cumulative fields.
func TestRuntimeSample(t *testing.T) {
	s := SampleRuntime()
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", s.Goroutines)
	}
	if s.When.IsZero() {
		t.Error("sample has zero timestamp")
	}
	d := SampleRuntime().Delta(s)
	if d.GCCycles < 0 {
		t.Errorf("delta GC cycles negative: %d", d.GCCycles)
	}
	if d.Goroutines < 1 {
		t.Errorf("delta keeps instantaneous goroutines, got %d", d.Goroutines)
	}
}
