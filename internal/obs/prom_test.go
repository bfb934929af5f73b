package obs

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// failAfter is an io.Writer that fails with errBoom after n successful
// writes — the GaugeWriter error-path probe.
type failAfter struct {
	n int
}

var errBoom = errors.New("boom")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errBoom
	}
	w.n--
	return len(p), nil
}

// TestGaugeWriterErrorSticky checks a write failure is captured by Err
// and later Gauge calls become no-ops instead of panicking or writing.
func TestGaugeWriterErrorSticky(t *testing.T) {
	w := &failAfter{n: 1} // TYPE header succeeds, sample line fails
	g := NewGaugeWriter(w)
	g.Gauge("queue_depth", nil, 3)
	if !errors.Is(g.Err(), errBoom) {
		t.Fatalf("Err() = %v, want errBoom", g.Err())
	}
	// Sticky: subsequent gauges keep the original error and don't write.
	g.Gauge("other", map[string]string{"a": "b"}, 1)
	if !errors.Is(g.Err(), errBoom) {
		t.Fatalf("error not sticky: %v", g.Err())
	}

	// Failure on the TYPE header itself.
	g2 := NewGaugeWriter(&failAfter{n: 0})
	g2.Gauge("x", nil, 1)
	if !errors.Is(g2.Err(), errBoom) {
		t.Fatalf("header failure not surfaced: %v", g2.Err())
	}
}

// TestGaugeWriterLabelsAndSanitize checks label ordering is
// deterministic and metric/label names are sanitized to the Prometheus
// alphabet.
func TestGaugeWriterLabelsAndSanitize(t *testing.T) {
	var sb strings.Builder
	g := NewGaugeWriter(&sb)
	g.Gauge("breaker/state", map[string]string{"z": "1", "a": "2"}, 7)
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "# TYPE breaker_state gauge\nbreaker_state{a=\"2\",z=\"1\"} 7\n"
	if out != want {
		t.Errorf("output:\n%q\nwant:\n%q", out, want)
	}
}

// TestPrometheusHistogramFormat renders a histogram and checks the
// exposition-format invariants a scraper relies on: cumulative buckets
// monotonically non-decreasing, a +Inf bucket equal to _count, and
// _sum/_count matching the observations.
func TestPrometheusHistogramFormat(t *testing.T) {
	st := NewStats()
	var wantSum, wantCount int64
	for _, v := range []int64{1, 2, 3, 100, 5000, 1 << 40} {
		st.Observe("cell/latency_ms", v)
		wantSum += v
		wantCount++
	}
	var sb strings.Builder
	if err := st.Snapshot().WritePrometheus(&sb, "p_"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	var (
		lastCum int64 = -1
		infVal  int64 = -1
		sum     int64 = -1
		count   int64 = -1
	)
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "p_cell_latency_ms_bucket{"):
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < lastCum {
				t.Errorf("bucket series not monotonic: %q after cum %d", line, lastCum)
			}
			lastCum = v
			if strings.Contains(line, `le="+Inf"`) {
				infVal = v
			}
		case strings.HasPrefix(line, "p_cell_latency_ms_sum "):
			sum, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		case strings.HasPrefix(line, "p_cell_latency_ms_count "):
			count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if infVal != wantCount {
		t.Errorf("+Inf bucket = %d, want count %d\n%s", infVal, wantCount, out)
	}
	if sum != wantSum {
		t.Errorf("_sum = %d, want %d", sum, wantSum)
	}
	if count != wantCount {
		t.Errorf("_count = %d, want %d", count, wantCount)
	}
}
