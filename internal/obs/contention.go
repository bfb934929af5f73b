package obs

import "time"

// Contention bundles the per-resource wait histograms one grid run
// carries. A nil *Contention is fully disabled — Hist returns a nil
// receiver whose methods are free — so the engine threads it
// unconditionally and pays one nil check when attribution is off.
type Contention struct {
	// Waits holds the named per-resource wait histograms.
	Waits *WaitProfile
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

// ContentionSnapshot is the serializable state of a Contention bundle,
// served live by bschedd's /debug/obs.
type ContentionSnapshot struct {
	// Waits summarizes each resource's wait distribution.
	Waits []WaitSnapshot `json:"waits,omitempty"`
}
