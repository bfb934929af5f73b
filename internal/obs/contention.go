package obs

import (
	"sync/atomic"
	"time"
)

// Contention bundles the contention-attribution instruments one grid run
// carries: per-resource wait histograms and the workers' total busy
// time. A nil *Contention is fully disabled — Hist returns a nil
// receiver whose methods are free, AddBusy does nothing — so the engine
// threads it unconditionally and pays one nil check when attribution is
// off.
type Contention struct {
	// Waits holds the named per-resource wait histograms.
	Waits *WaitProfile

	busyNS atomic.Int64
}

// NewContention returns an enabled bundle. The argument is ignored.
func NewContention(int) *Contention {
	return &Contention{Waits: NewWaitProfile()}
}

// NewContentionAt is NewContention; both arguments are ignored.
func NewContentionAt(time.Time, int) *Contention {
	return NewContention(0)
}

// Hist returns the wait histogram for resource name (nil when disabled).
func (c *Contention) Hist(name string) *WaitHist {
	if c == nil {
		return nil
	}
	return c.Waits.Hist(name)
}

// AddBusy adds d to the workers' total busy time. Nil-safe.
func (c *Contention) AddBusy(d time.Duration) {
	if c == nil {
		return
	}
	c.busyNS.Add(int64(d))
}

// Busy returns the busy time summed over every worker (zero when
// disabled).
func (c *Contention) Busy() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.busyNS.Load())
}

// ContentionSnapshot is the serializable state of a Contention bundle,
// served live by bschedd's /debug/obs.
type ContentionSnapshot struct {
	// Waits summarizes each resource's wait distribution.
	Waits []WaitSnapshot `json:"waits,omitempty"`
}
