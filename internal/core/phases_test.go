package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fullPhases has every field non-zero and distinct, so a dropped or
// mis-tagged field cannot survive a round trip.
var fullPhases = PhaseTimes{
	Locality: 1 * time.Millisecond,
	Unroll:   2 * time.Millisecond,
	Prefetch: 3 * time.Millisecond,
	Lower:    4 * time.Millisecond,
	LICM:     5 * time.Millisecond,
	Profile:  6 * time.Millisecond,
	Trace:    7 * time.Millisecond,
	Sched:    8 * time.Millisecond,
	Regalloc: 9 * time.Millisecond,
	Sim:      10 * time.Millisecond,
}

func TestPhaseTimesJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(fullPhases)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"locality"`, `"unroll"`, `"prefetch"`, `"lower"`, `"licm"`,
		`"profile"`, `"trace"`, `"sched"`, `"regalloc"`, `"sim"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s field: %s", key, b)
		}
	}
	var back PhaseTimes
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != fullPhases {
		t.Errorf("round trip changed the value:\n got %+v\nwant %+v", back, fullPhases)
	}
}
