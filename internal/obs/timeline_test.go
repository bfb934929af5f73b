package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestTimelineTransitions drives one lane through the worker loop's
// state sequence and checks the totals and interval accounting.
func TestTimelineTransitions(t *testing.T) {
	ts := NewTimelineSet(16)
	tl := ts.Lane(0)
	tl.Set(StateSteal)
	time.Sleep(2 * time.Millisecond)
	tl.Set(StateRun)
	time.Sleep(2 * time.Millisecond)
	tl.Set(StateMerge)
	time.Sleep(time.Millisecond)
	tl.Set(StateIdle)

	snaps := ts.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("lanes = %d, want 1", len(snaps))
	}
	ws := snaps[0]
	if ws.Lane != 0 {
		t.Fatalf("lane = %d, want 0", ws.Lane)
	}
	// Three closed intervals (idle lead-in, steal, run) plus the merge
	// one closed by the final Set.
	if ws.Intervals != 4 {
		t.Fatalf("intervals = %d, want 4", ws.Intervals)
	}
	if ws.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", ws.Dropped)
	}
	for _, state := range []string{"steal", "run", "merge"} {
		if ws.StateNS[state] <= 0 {
			t.Errorf("state %q total = %d ns, want > 0", state, ws.StateNS[state])
		}
	}
	if ws.StateNS["run"] < (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("run total = %dns, want >= 1ms", ws.StateNS["run"])
	}

	// Setting the current state again must not mint an interval.
	before := ts.Snapshot()[0].Intervals
	tl.Set(StateIdle)
	if after := ts.Snapshot()[0].Intervals; after != before {
		t.Errorf("redundant Set minted an interval: %d -> %d", before, after)
	}
}

// TestTimelineRingOverflow checks that a full ring drops oldest
// intervals and counts them, while totals stay exact.
func TestTimelineRingOverflow(t *testing.T) {
	ts := NewTimelineSet(4)
	tl := ts.Lane(1)
	for i := 0; i < 10; i++ {
		tl.Set(StateRun)
		tl.Set(StateSteal)
	}
	ws := ts.Snapshot()[0]
	if ws.Intervals != 4 {
		t.Errorf("intervals = %d, want ring capacity 4", ws.Intervals)
	}
	if ws.Dropped != 20-4 {
		t.Errorf("dropped = %d, want %d", ws.Dropped, 20-4)
	}
}

// TestTimelineEventsValidate exports a multi-lane set to Chrome-trace
// events and pushes them through the trace validator: state lanes must
// be gap-free, overlap-free partitions.
func TestTimelineEventsValidate(t *testing.T) {
	ts := NewTimelineSet(0)
	for lane := 0; lane < 3; lane++ {
		tl := ts.Lane(lane)
		tl.Set(StateSteal)
		tl.Set(StateRun)
		tl.Set(StateBlockPool)
		tl.Set(StateRun)
		tl.Set(StateIdle)
	}
	evs := ts.Events()
	data, err := json.Marshal(struct {
		TraceEvents []Event `json:"traceEvents"`
	}{evs})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("exported timeline failed validation: %v", err)
	}
	if sum.StateLanes != 3 {
		t.Errorf("state lanes = %d, want 3", sum.StateLanes)
	}
	if sum.States["run"] == 0 || sum.States["block-pool"] == 0 {
		t.Errorf("state counts missing run/block-pool: %v", sum.States)
	}
	if sum.Spans != 0 {
		t.Errorf("state-only trace reported %d spans", sum.Spans)
	}
}

// TestValidateRejectsStateGap checks the partition invariant is actually
// enforced: a hole between consecutive states must fail validation.
func TestValidateRejectsStateGap(t *testing.T) {
	evs := []Event{
		{Name: "run", Cat: "state", Ph: "X", TS: 0, Dur: 10, PID: 2, TID: 0},
		{Name: "idle", Cat: "state", Ph: "X", TS: 20, Dur: 10, PID: 2, TID: 0},
	}
	data, _ := json.Marshal(evs)
	if _, err := ValidateChromeTrace(data); err == nil {
		t.Fatal("gap between state intervals passed validation")
	}
	// And an overlap must fail too.
	evs[1].TS = 5
	data, _ = json.Marshal(evs)
	if _, err := ValidateChromeTrace(data); err == nil {
		t.Fatal("overlapping state intervals passed validation")
	}
}

// TestTimelineDisabledZeroAlloc proves the off-by-default contract: a
// nil timeline, set and contention bundle cost zero allocations on the
// hot path.
func TestTimelineDisabledZeroAlloc(t *testing.T) {
	var tl *Timeline
	var ts *TimelineSet
	var c *Contention
	allocs := testing.AllocsPerRun(1000, func() {
		tl.Set(StateRun)
		ts.Lane(3).Set(StateBlockPool)
		c.Lane(1).Set(StateSteal)
		c.Hist("pool").Observe(time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled timeline path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkDisabledTimelineSet is the zero-alloc benchmark CI watches:
// the disabled state-transition path must stay free.
func BenchmarkDisabledTimelineSet(b *testing.B) {
	var tl *Timeline
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.Set(StateRun)
		tl.Set(StateSteal)
	}
}

// BenchmarkEnabledTimelineSet gives the enabled path's cost a number so
// regressions (an allocation sneaking into Set) are visible.
func BenchmarkEnabledTimelineSet(b *testing.B) {
	ts := NewTimelineSet(64)
	tl := ts.Lane(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.Set(StateRun)
		tl.Set(StateSteal)
	}
}
