package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects nestable wall-clock spans and exports them in the
// Chrome trace-event format (the JSON array of "X" complete events that
// Perfetto and chrome://tracing render). Spans are cheap: Begin allocates
// one small struct, End appends one event under a mutex. A nil *Tracer is
// a valid, fully disabled tracer: Begin returns a nil *Span and both are
// no-ops with zero allocations, so instrumentation can stay unconditionally
// in place on hot paths.
//
// Concurrency: Begin/End/NameLane may be called from any goroutine. Spans
// opened on one goroutine must be ended on the same goroutine for the
// per-lane nesting invariant (spans on a lane are either disjoint or
// properly contained) to hold — the experiment engine gives each worker
// its own lane, so this falls out naturally.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	events []Event
}

// Event is one Chrome trace event. TS and Dur are in microseconds since
// the tracer's epoch (fractional, so nanosecond phases stay visible).
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Span is one open interval on a tracer lane. The zero of its lifecycle
// is Begin → optional Arg calls → End; all methods are nil-safe.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	start time.Time
	args  map[string]string
}

// NewTracer returns a tracer whose event clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Begin opens a span named name in category cat on lane tid. On a nil
// tracer it returns nil without allocating.
func (t *Tracer) Begin(tid int, name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, tid: tid, name: name, cat: cat, start: time.Now()}
}

// Arg attaches a key/value pair shown in the trace viewer's span details.
// It returns the span for chaining and is a no-op on a nil span.
func (s *Span) Arg(k, v string) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]string, 4)
	}
	s.args[k] = v
	return s
}

// End closes the span and records it as one complete ("X") event. No-op
// on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	ev := Event{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   float64(s.start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(now.Sub(s.start).Nanoseconds()) / 1e3,
		PID:  1,
		TID:  s.tid,
		Args: s.args,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// NameLane records a thread-name metadata event so the viewer labels lane
// tid (e.g. "worker 3"). No-op on a nil tracer.
func (t *Tracer) NameLane(tid int, name string) {
	if t == nil {
		return
	}
	ev := Event{
		Name: "thread_name",
		Ph:   "M",
		PID:  1,
		TID:  tid,
		Args: map[string]string{"name": name},
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Epoch returns the tracer's event-clock origin, so a caller can line
// its own timestamps up with the trace's. The zero time on a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Len reports the number of recorded events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Write writes the collected events as a Chrome trace JSON object
// ({"traceEvents": [...]}), events sorted by lane then start time so the
// output is deterministic up to timing.
func (t *Tracer) Write(w io.Writer) error {
	t.mu.Lock()
	evs := make([]Event, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].TID != evs[b].TID {
			return evs[a].TID < evs[b].TID
		}
		return evs[a].TS < evs[b].TS
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: evs})
}
