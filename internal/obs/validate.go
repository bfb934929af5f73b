package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// TraceSummary reports what ValidateChromeTrace found in a trace file.
type TraceSummary struct {
	// Spans is the number of complete ("X") events.
	Spans int
	// Lanes is the number of distinct (pid, tid) lanes carrying spans.
	Lanes int
	// Names counts spans per event name.
	Names map[string]int
}

// laneKey identifies one trace lane: a Chrome trace may carry several
// processes, so TID alone is not unique.
type laneKey struct{ pid, tid int }

// ValidateChromeTrace parses Chrome trace-event JSON (either a bare event
// array or a {"traceEvents": [...]} object) and checks the structural
// invariants our exporter guarantees: every complete event has a
// non-negative timestamp and duration, and within each lane spans are
// properly nested — any two either are disjoint or one contains the
// other. It returns a summary or the first violation.
func ValidateChromeTrace(data []byte) (*TraceSummary, error) {
	var wrapper struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	events := wrapper.TraceEvents
	if err := json.Unmarshal(data, &wrapper); err != nil {
		if err2 := json.Unmarshal(data, &events); err2 != nil {
			return nil, fmt.Errorf("obs: trace is neither an event array nor a traceEvents object: %w", err)
		}
	} else {
		events = wrapper.TraceEvents
	}

	sum := &TraceSummary{Names: map[string]int{}}
	byLane := map[laneKey][]Event{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue // metadata and other phases carry no interval
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("obs: span %q has negative ts/dur (%v/%v)", ev.Name, ev.TS, ev.Dur)
		}
		sum.Spans++
		sum.Names[ev.Name]++
		k := laneKey{ev.PID, ev.TID}
		byLane[k] = append(byLane[k], ev)
	}
	sum.Lanes = len(byLane)

	// Nesting check per span lane: sweep spans by start time (ties:
	// longer first, i.e. parent before child) against a stack of open
	// intervals. eps absorbs float microsecond rounding of nanosecond
	// clocks.
	const eps = 0.01
	for k, evs := range byLane {
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].TS != evs[b].TS {
				return evs[a].TS < evs[b].TS
			}
			return evs[a].Dur > evs[b].Dur
		})
		var stack []Event
		for _, ev := range evs {
			for len(stack) > 0 && ev.TS >= stack[len(stack)-1].TS+stack[len(stack)-1].Dur-eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.TS+ev.Dur > top.TS+top.Dur+eps {
					return nil, fmt.Errorf(
						"obs: lane %d: span %q [%.3f,%.3f] overlaps %q [%.3f,%.3f] without nesting",
						k.tid, ev.Name, ev.TS, ev.TS+ev.Dur, top.Name, top.TS, top.TS+top.Dur)
				}
			}
			stack = append(stack, ev)
		}
	}
	return sum, nil
}
