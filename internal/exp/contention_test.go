package exp

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestContentionPreservesTables extends the instrumentation-cannot-move-
// the-science criterion to the contention layer: a grid run with full
// attribution on renders byte-identical paper tables to a bare run.
func TestContentionPreservesTables(t *testing.T) {
	plain, err := RunGrid([]string{obsBench}, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	attributed, err := RunGrid([]string{obsBench}, Options{Jobs: 2, Contention: obs.NewContention(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Table8().Rows, attributed.Table8().Rows) {
		t.Errorf("Table 8 differs with contention attribution on:\nplain: %v\nattributed: %v",
			plain.Table8().Rows, attributed.Table8().Rows)
	}
	if !reflect.DeepEqual(plain.Table9().Rows, attributed.Table9().Rows) {
		t.Errorf("Table 9 differs with contention attribution on:\nplain: %v\nattributed: %v",
			plain.Table9().Rows, attributed.Table9().Rows)
	}
}

// TestGridContentionInstruments checks the engine actually feeds the
// bundle: the shared-resource wait histograms are registered.
func TestGridContentionInstruments(t *testing.T) {
	c := obs.NewContention(0)
	if _, err := RunGrid([]string{obsBench}, Options{Jobs: 2, Contention: c}); err != nil {
		t.Fatal(err)
	}
	waits := map[string]bool{}
	for _, ws := range c.Waits.Snapshot() {
		waits[ws.Resource] = true
	}
	for _, want := range []string{"pool", "frontend"} {
		if !waits[want] {
			t.Errorf("wait histogram %q not registered (got %v)", want, waits)
		}
	}
}
