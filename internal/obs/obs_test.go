package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilFastPathAllocs pins the disabled-observability contract: span
// and counter operations on nil receivers allocate nothing, so the
// pipeline's instrumentation is free when tracing is off.
func TestNilFastPathAllocs(t *testing.T) {
	var tr *Tracer
	var st *Stats
	var o *Obs
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(0, "phase", "compile")
		sp.Arg("k", "v")
		sp.End()
		st.Inc("dag/nodes")
		st.Add("dag/edges", 3)
		st.Observe("sched/ready_len", 7)
		o.Begin("cell", "exp").End()
		o.Stat().Inc("x")
	}); n != 0 {
		t.Fatalf("disabled observability allocated %.1f objects per op, want 0", n)
	}
}

func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin(0, "phase", "compile").End()
	}
}

func BenchmarkNilStatsCounter(b *testing.B) {
	var st *Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Inc("dag/nodes")
	}
}

// TestTracerChromeExport exercises nested and parallel-lane spans and
// validates the exported JSON with the same checker CI runs on real grid
// traces.
func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	tr.NameLane(0, "worker 0")
	tr.NameLane(1, "worker 1")

	outer := tr.Begin(0, "cell", "exp").Arg("bench", "tomcatv")
	inner := tr.Begin(0, "sched", "compile")
	time.Sleep(time.Millisecond)
	inner.End()
	tr.Begin(0, "regalloc", "compile").End()
	outer.End()
	tr.Begin(1, "cell", "exp").End()

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	if sum.Spans != 4 {
		t.Errorf("got %d spans, want 4", sum.Spans)
	}
	if sum.Lanes != 2 {
		t.Errorf("got %d lanes, want 2", sum.Lanes)
	}
	if sum.Names["cell"] != 2 || sum.Names["sched"] != 1 {
		t.Errorf("unexpected span name counts: %v", sum.Names)
	}
}

// TestValidateRejectsOverlap proves the nesting check actually rejects
// interleaved (non-nested) spans on one lane.
func TestValidateRejectsOverlap(t *testing.T) {
	bad := `[
	 {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
	 {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":0}
	]`
	if _, err := ValidateChromeTrace([]byte(bad)); err == nil {
		t.Fatal("overlapping spans passed validation")
	}
}

func TestStatsSnapshotAndMerge(t *testing.T) {
	a := NewStats()
	a.Inc("dag/nodes")
	a.Add("dag/nodes", 9)
	a.Observe("sched/ready_len", 1)
	a.Observe("sched/ready_len", 5)

	b := NewStats()
	b.Add("dag/nodes", 5)
	b.Add("regalloc/spill_stores", 2)
	b.Observe("sched/ready_len", 40000) // overflow bucket

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Counters["dag/nodes"]; got != 15 {
		t.Errorf("merged dag/nodes = %d, want 15", got)
	}
	if got := sa.Counters["regalloc/spill_stores"]; got != 2 {
		t.Errorf("merged regalloc/spill_stores = %d, want 2", got)
	}
	h := sa.Hists["sched/ready_len"]
	if h.Count != 3 || h.Sum != 40006 || h.Min != 1 || h.Max != 40000 {
		t.Errorf("merged hist = %+v", h)
	}
	if len(h.Buckets) != HistBuckets {
		t.Errorf("overflow observation should fill the last bucket: %v", h.Buckets)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := NewStats()
	s.Add("dag/mem-conflicts", 7)
	s.Observe("sched/load_weight", 3)
	var buf bytes.Buffer
	if err := s.Snapshot().WritePrometheus(&buf, "paperbench_"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE paperbench_dag_mem_conflicts counter",
		"paperbench_dag_mem_conflicts 7",
		"# TYPE paperbench_sched_load_weight histogram",
		`paperbench_sched_load_weight_bucket{le="4"} 1`,
		`paperbench_sched_load_weight_bucket{le="+Inf"} 1`,
		"paperbench_sched_load_weight_sum 3",
		"paperbench_sched_load_weight_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

// TestStatsConcurrent hammers one registry from many goroutines, the way
// the serving layers share theirs across request goroutines. Run under
// -race, it proves Stats is safe for concurrent use; the totals must add
// up exactly.
func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Inc("fleet/dispatches")
				s.Add("fleet/retries", 2)
				s.Observe("fleet/cell_ms", int64(i%7))
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("fleet/dispatches"); got != goroutines*per {
		t.Errorf("dispatches = %d, want %d", got, goroutines*per)
	}
	snap := s.Snapshot()
	if got := snap.Counters["fleet/retries"]; got != 2*goroutines*per {
		t.Errorf("retries = %d, want %d", got, 2*goroutines*per)
	}
	if got := snap.Hists["fleet/cell_ms"].Count; got != goroutines*per {
		t.Errorf("histogram count = %d, want %d", got, goroutines*per)
	}
}

// TestStatsNil proves the disabled registry is a no-op, not a panic.
func TestStatsNil(t *testing.T) {
	var s *Stats
	s.Inc("x")
	s.Add("x", 3)
	s.Observe("x", 1)
	if s.Counter("x") != 0 {
		t.Error("nil registry counted")
	}
	if s.Snapshot() != nil {
		t.Error("nil registry snapshots non-nil")
	}
}

// TestNilSnapshotSafe covers the disabled-stats path end to end.
func TestNilSnapshotSafe(t *testing.T) {
	var st *Stats
	if st.Snapshot() != nil {
		t.Error("nil stats should snapshot to nil")
	}
	var s *Snapshot
	s.Merge(&Snapshot{Counters: map[string]int64{"x": 1}}) // must not panic
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf, "p_"); err != nil || buf.Len() != 0 {
		t.Errorf("nil snapshot dump: err=%v len=%d", err, buf.Len())
	}
}
