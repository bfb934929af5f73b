package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the worker-timeline half of the contention-attribution
// subsystem: each engine worker carries a Timeline — a fixed-capacity
// ring buffer of busy/blocked state intervals — and the set of them
// exports as extra Chrome-trace lanes (one per worker, under a separate
// "worker states" process) alongside the span timeline. Where spans show
// what a worker is doing, states show what it is *waiting on*: a
// sibling's task deque, the machine pool, another worker building the
// shared front-end. A nil *TimelineSet or *Timeline is fully disabled and
// allocation-free, matching the rest of obs.

// WorkerState is one worker's coarse execution state.
type WorkerState uint8

const (
	// StateIdle covers the lead-in before the worker's first task and the
	// tail after its last (and any abandoned-attempt limbo).
	StateIdle WorkerState = iota
	// StateRun is productive work: the worker is executing a cell.
	StateRun
	// StateBlockPool is contention on a sim.Pool get/put.
	StateBlockPool
	// StateBlockFrontend is waiting for another worker to finish building
	// the benchmark's shared front-end.
	StateBlockFrontend
	// StateSteal is a worker whose own task deque ran dry scanning its
	// siblings' deques for work to steal.
	StateSteal
	// StateMerge is a worker finalizing its sharded result buffer at the
	// end of the run (sorting it into deterministic queue order and
	// handing it to the caller's merge).
	StateMerge

	numWorkerStates = 6
)

var workerStateNames = [numWorkerStates]string{
	"idle", "run", "block-pool", "block-frontend", "steal", "merge",
}

func (s WorkerState) String() string {
	if int(s) < len(workerStateNames) {
		return workerStateNames[s]
	}
	return "unknown"
}

// stateInterval is one completed [start, start+dur) interval in a state.
type stateInterval struct {
	start time.Duration // since the set's epoch
	dur   time.Duration
	state WorkerState
}

// Timeline records one worker's state intervals into a fixed-capacity
// ring. All methods are safe on a nil receiver (no-ops, zero
// allocations) and otherwise goroutine-safe: a cell attempt goroutine
// and its supervising worker goroutine may both flip states, the mutex
// totally orders the transitions.
type Timeline struct {
	epoch time.Time
	lane  int

	mu       sync.Mutex
	cur      WorkerState
	curSince time.Duration
	ring     []stateInterval // fixed capacity, oldest overwritten
	head     int             // next write position
	n        int             // valid entries (≤ cap)
	dropped  int             // intervals overwritten by ring wrap
	totals   [numWorkerStates]time.Duration
}

// Set transitions the worker into state s, closing the current interval.
// Setting the current state again is a no-op. Nil-safe and
// allocation-free in both the disabled and enabled paths.
func (t *Timeline) Set(s WorkerState) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	if s != t.cur {
		t.close(now)
		t.cur = s
		t.curSince = now
	}
	t.mu.Unlock()
}

// close records [curSince, now) as a completed interval of the current
// state. Caller holds t.mu.
func (t *Timeline) close(now time.Duration) {
	d := now - t.curSince
	if d < 0 {
		d = 0
	}
	t.totals[t.cur] += d
	iv := stateInterval{start: t.curSince, dur: d, state: t.cur}
	if len(t.ring) == 0 {
		t.dropped++
		return
	}
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.head] = iv
	t.head = (t.head + 1) % len(t.ring)
}

// intervals returns the retained intervals oldest-first plus the still-
// open one truncated at now. Caller holds t.mu.
func (t *Timeline) intervals(now time.Duration) []stateInterval {
	out := make([]stateInterval, 0, t.n+1)
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	if now > t.curSince {
		out = append(out, stateInterval{start: t.curSince, dur: now - t.curSince, state: t.cur})
	}
	return out
}

// WorkerTimelineSnapshot summarizes one worker's timeline: per-state
// totals in nanoseconds (including the still-open interval) and ring
// accounting.
type WorkerTimelineSnapshot struct {
	Lane int `json:"lane"`
	// StateNS maps state name to total nanoseconds spent in it.
	StateNS map[string]int64 `json:"state_ns"`
	// Intervals is how many completed intervals the ring retains.
	Intervals int `json:"intervals"`
	// Dropped counts intervals lost to ring overflow (capacity exceeded).
	Dropped int `json:"dropped,omitempty"`
}

// TimelineSet owns one Timeline per worker lane. A nil set is disabled:
// Lane returns nil and every downstream call is free.
type TimelineSet struct {
	epoch time.Time
	cap   int

	mu    sync.Mutex
	lanes map[int]*Timeline
}

// DefaultTimelineCap is the per-worker interval-ring capacity when
// NewTimelineSet is given zero: generous for a full paper grid (a worker
// records a handful of intervals per cell) while bounding memory.
const DefaultTimelineCap = 8192

// NewTimelineSet returns a set whose clock starts now; capPerWorker ≤ 0
// means DefaultTimelineCap.
func NewTimelineSet(capPerWorker int) *TimelineSet {
	return NewTimelineSetAt(time.Now(), capPerWorker)
}

// NewTimelineSetAt is NewTimelineSet with an explicit epoch, so state
// lanes and a Tracer's span lanes share one clock and line up in the
// trace viewer.
func NewTimelineSetAt(epoch time.Time, capPerWorker int) *TimelineSet {
	if capPerWorker <= 0 {
		capPerWorker = DefaultTimelineCap
	}
	return &TimelineSet{epoch: epoch, cap: capPerWorker, lanes: map[int]*Timeline{}}
}

// Lane returns lane's timeline, creating it (in StateIdle) on first use.
// Nil-safe: a nil set returns a nil timeline.
func (ts *TimelineSet) Lane(lane int) *Timeline {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.lanes[lane]
	if t == nil {
		t = &Timeline{
			epoch:    ts.epoch,
			lane:     lane,
			curSince: time.Since(ts.epoch),
			ring:     make([]stateInterval, ts.cap),
		}
		ts.lanes[lane] = t
	}
	return t
}

// sorted returns the set's timelines in lane order. Caller must not hold
// ts.mu.
func (ts *TimelineSet) sorted() []*Timeline {
	ts.mu.Lock()
	out := make([]*Timeline, 0, len(ts.lanes))
	for _, t := range ts.lanes {
		out = append(out, t)
	}
	ts.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].lane < out[b].lane })
	return out
}

// Snapshot freezes every lane's per-state totals (open intervals counted
// up to now). Nil snapshots to nil.
func (ts *TimelineSet) Snapshot() []WorkerTimelineSnapshot {
	if ts == nil {
		return nil
	}
	var out []WorkerTimelineSnapshot
	for _, t := range ts.sorted() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		ws := WorkerTimelineSnapshot{
			Lane:      t.lane,
			StateNS:   make(map[string]int64, numWorkerStates),
			Intervals: t.n,
			Dropped:   t.dropped,
		}
		for s, d := range t.totals {
			ws.StateNS[WorkerState(s).String()] = d.Nanoseconds()
		}
		if open := now - t.curSince; open > 0 {
			ws.StateNS[t.cur.String()] += open.Nanoseconds()
		}
		t.mu.Unlock()
		out = append(out, ws)
	}
	return out
}

// StateTotals sums per-state time across every lane, in seconds — the
// scale report's attribution input. Nil returns nil.
func (ts *TimelineSet) StateTotals() map[string]float64 {
	if ts == nil {
		return nil
	}
	out := map[string]float64{}
	for _, ws := range ts.Snapshot() {
		for name, ns := range ws.StateNS {
			out[name] += float64(ns) / 1e9
		}
	}
	return out
}

// statePID is the Chrome-trace process ID state lanes are exported
// under, distinct from the span lanes' PID 1 so state intervals (which
// tile a lane edge to edge) never collide with the span-nesting
// invariant.
const statePID = 2

// Events exports every lane as Chrome trace events: per-lane metadata
// naming the lane plus one "X" event per state interval under the
// "state" category and a dedicated process. Open intervals are truncated
// at now. Nil exports nil.
func (ts *TimelineSet) Events() []Event {
	if ts == nil {
		return nil
	}
	evs := []Event{{
		Name: "process_name", Ph: "M", PID: statePID,
		Args: map[string]string{"name": "worker states"},
	}}
	for _, t := range ts.sorted() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		ivs := t.intervals(now)
		lane, dropped := t.lane, t.dropped
		t.mu.Unlock()
		name := "worker " + strconv.Itoa(lane) + " state"
		if dropped > 0 {
			name += " (ring dropped " + strconv.Itoa(dropped) + ")"
		}
		evs = append(evs, Event{
			Name: "thread_name", Ph: "M", PID: statePID, TID: lane,
			Args: map[string]string{"name": name},
		})
		for _, iv := range ivs {
			evs = append(evs, Event{
				Name: iv.state.String(),
				Cat:  "state",
				Ph:   "X",
				TS:   float64(iv.start.Nanoseconds()) / 1e3,
				Dur:  float64(iv.dur.Nanoseconds()) / 1e3,
				PID:  statePID,
				TID:  lane,
			})
		}
	}
	return evs
}
