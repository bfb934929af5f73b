package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsHistograms is the regression test for the /metrics
// histogram omission: after a served cell, the endpoint must expose the
// cell-latency and queue-wait distributions as Prometheus histograms
// with consistent _count/_bucket series, not just counters.
func TestMetricsHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)

	for _, name := range []string{"bschedd_server_cell_latency_ms", "bschedd_server_queue_wait_ms"} {
		if !strings.Contains(out, "# TYPE "+name+" histogram") {
			t.Errorf("/metrics missing histogram %s:\n%.600s", name, out)
		}
		if !strings.Contains(out, name+`_bucket{le="+Inf"}`) {
			t.Errorf("/metrics histogram %s has no +Inf bucket", name)
		}
		if !strings.Contains(out, name+"_count") {
			t.Errorf("/metrics histogram %s has no _count series", name)
		}
	}
}

// TestDebugObsEndpoint checks /debug/obs serves one coherent JSON
// document: counter registry with histograms, gauges, breaker map, a
// live runtime sample, and the pipeline's wait histograms.
func TestDebugObsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/obs status %d", resp.StatusCode)
	}

	var doc struct {
		Stats   *obs.Snapshot    `json:"stats"`
		Gauges  map[string]int64 `json:"gauges"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
		} `json:"runtime"`
		Contention *obs.ContentionSnapshot `json:"contention"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/obs is not JSON: %v\n%s", err, body)
	}
	if doc.Stats == nil || doc.Stats.Counters["server/requests"] == 0 {
		t.Errorf("stats missing request counter: %+v", doc.Stats)
	}
	if _, ok := doc.Stats.Hists["server/cell_latency_ms"]; !ok {
		t.Errorf("stats missing cell-latency histogram: %v", doc.Stats.Hists)
	}
	if doc.Gauges["queue_capacity"] == 0 || doc.Gauges["workers_capacity"] == 0 {
		t.Errorf("gauges missing capacities: %v", doc.Gauges)
	}
	if doc.Runtime.Goroutines < 1 {
		t.Errorf("runtime sample goroutines = %d", doc.Runtime.Goroutines)
	}
	if doc.Contention == nil {
		t.Fatal("no contention section")
	}
	waits := map[string]bool{}
	for _, ws := range doc.Contention.Waits {
		waits[ws.Resource] = true
	}
	// The served cell touched the machine pool and built a front-end.
	if !waits["pool"] {
		t.Errorf("contention waits missing pool: %v", doc.Contention.Waits)
	}
}

// TestRequestIDInErrorsAndLogs checks the join key: a failing request's
// ID appears in the error body's request_id field, in the structured
// log line, and in the error message itself.
func TestRequestIDInErrorsAndLogs(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile",
		strings.NewReader(`{"bench":"no-such-bench","config":"BS"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	e := decodeError(t, body)
	if e.RequestID != "test-req-42" {
		t.Errorf("error body request_id = %q, want test-req-42", e.RequestID)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "request_id=test-req-42") {
		t.Errorf("log line missing request id:\n%s", logs)
	}

	// Happy path logs too, at info.
	logBuf.Reset()
	if resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d, body %s", resp.StatusCode, body)
	}
	if logs := logBuf.String(); !strings.Contains(logs, "compile served") || !strings.Contains(logs, "request_id=") {
		t.Errorf("success log missing:\n%s", logs)
	}
}
