package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Tests that install a faultinject plan cannot run in parallel: the plan
// is process-global.

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one JSON request and returns the response with its body
// read and closed.
func post(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, body
}

func decodeError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	return e
}

func TestCompileHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS+LU4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no X-Request-Id header")
	}
	var doc ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response is not a result document: %v", err)
	}
	if doc.Bench != "tomcatv" || doc.Config != "BS+LU4" {
		t.Errorf("doc identifies %s/%s, want tomcatv/BS+LU4", doc.Bench, doc.Config)
	}
	if doc.Metrics == nil || doc.Metrics.Cycles == 0 {
		t.Fatal("result document carries no metrics")
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		// bench and config are the cell the 400 body must name.
		bench, config string
	}{
		{"unknown bench", CompileRequest{Bench: "no-such", Config: "BS"}, "no-such", "BS"},
		{"bad config", CompileRequest{Bench: "tomcatv", Config: "XYZ"}, "tomcatv", "XYZ"},
		{"unroll factor over the cap", CompileRequest{Bench: "tomcatv", Config: "BS+LU17"}, "tomcatv", "BS+LU17"},
		{"bad json", "not an object", "", ""},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/compile", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		e := decodeError(t, body)
		if e.Kind != "bad_request" {
			t.Errorf("%s: kind %q, want bad_request", tc.name, e.Kind)
		}
		if e.Bench != tc.bench || e.Config != tc.config {
			t.Errorf("%s: body names cell %q/%q, want %q/%q", tc.name, e.Bench, e.Config, tc.bench, tc.config)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: status %d, want 405", resp.StatusCode)
	}

	resp2, body := post(t, ts.URL+"/v1/grid", GridRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty grid: status %d, want 400 (body %s)", resp2.StatusCode, body)
	}

	// One cell over the cap, duplicates included, is refused whole.
	configs := make([]string, MaxGridCells+1)
	for i := range configs {
		configs[i] = "BS"
	}
	resp3, body := post(t, ts.URL+"/v1/grid", GridRequest{Benches: []string{"tomcatv"}, Configs: configs})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized grid: status %d, want 400 (body %s)", resp3.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "bad_request" || !strings.Contains(e.Error, fmt.Sprint(MaxGridCells+1)) {
		t.Errorf("oversized grid: body %s, want a bad_request naming %d cells", body, MaxGridCells+1)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("%d cells computed for rejected requests, want 0", n)
	}
}

// TestQueueFullSheds floods a tiny admission queue with distinct work
// items: the excess must come back immediately as 429 with a Retry-After,
// the admitted ones must all be served, and liveness must hold
// throughout.
func TestQueueFullSheds(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "exp/cell", Key: "tomcatv", Mode: faultinject.ModeDelay, Delay: 150 * time.Millisecond,
	}))
	defer faultinject.Disable()

	_, ts := newTestServer(t, Config{Queue: 2, Workers: 1})

	configs := []string{"BS", "TS", "BF", "BS+LU2", "BS+LU4", "TS+LU2", "TS+LU4", "BF+LU2"}
	type outcome struct {
		status int
		err    ErrorBody
		retry  string
	}
	results := make([]outcome, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg string) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: cfg})
			results[i] = outcome{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
			if resp.StatusCode != http.StatusOK {
				results[i].err = decodeError(t, body)
			}
		}(i, cfg)
	}

	// Liveness while the drill runs: /healthz answers 200 regardless of load.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d under load, want 200", hresp.StatusCode)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if r.err.Kind != "shed" {
				t.Errorf("config %s: 429 kind %q, want shed", configs[i], r.err.Kind)
			}
			if r.retry == "" {
				t.Errorf("config %s: 429 without Retry-After", configs[i])
			}
		default:
			t.Errorf("config %s: status %d (%+v), want 200 or 429", configs[i], r.status, r.err)
		}
	}
	if shed == 0 {
		t.Errorf("no request shed with queue 2 and %d concurrent distinct cells", len(configs))
	}
	if ok == 0 {
		t.Error("no admitted request was served")
	}
}

// TestDeadlineNamesPhase: a request whose deadline expires mid-pipeline
// comes back as a structured 504 naming the phase it died in.
func TestDeadlineNamesPhase(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "exp/cell", Key: "tomcatv", Mode: faultinject.ModeDelay, Delay: 400 * time.Millisecond,
	}))
	defer faultinject.Disable()

	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS", DeadlineMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Kind != "timeout" {
		t.Errorf("kind %q, want timeout", e.Kind)
	}
	switch e.Phase {
	case "frontend", "compile", "sim", "check", "queue":
	default:
		t.Errorf("timeout names phase %q, want a pipeline stage", e.Phase)
	}
	if !strings.Contains(e.Error, e.Phase) {
		t.Errorf("message %q does not name the phase %q", e.Error, e.Phase)
	}
}

// TestBreakerLifecycleHTTP drives a benchmark's breaker through its whole
// life over HTTP: repeated injected faults open it (503 fault → 503
// breaker_open), a failed half-open probe reopens it, and once the faults
// stop a successful probe closes it again. Readiness tracks saturation.
func TestBreakerLifecycleHTTP(t *testing.T) {
	fault := func() {
		faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
			Site: "exp/cell", Key: "TRFD", Mode: faultinject.ModeError,
		}))
	}
	fault()
	defer faultinject.Disable()

	cooldown := 100 * time.Millisecond
	_, ts := newTestServer(t, Config{BreakerThreshold: 2, BreakerCooldown: cooldown})

	// Two consecutive faults trip the breaker (distinct configs so neither
	// cache nor singleflight short-circuits).
	for i, cfg := range []string{"BS", "TS"} {
		resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: cfg})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("fault %d: status %d, want 503 (body %s)", i, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Kind != "fault" {
			t.Fatalf("fault %d: kind %q, want fault", i, e.Kind)
		}
	}

	// Open: rejected up front without burning a pipeline slot.
	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: "BF"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d (body %s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "breaker_open" {
		t.Fatalf("open breaker: kind %q, want breaker_open", e.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker_open without Retry-After")
	}

	// TRFD is the only benchmark this server has seen, so one open breaker
	// saturates readiness.
	rresp, rbody := get(t, ts.URL+"/readyz")
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with every breaker open, want 503", rresp.StatusCode)
	}
	var ready struct {
		Ready    bool              `json:"ready"`
		Breakers map[string]string `json:"breakers"`
	}
	if err := json.Unmarshal(rbody, &ready); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if ready.Ready || ready.Breakers["TRFD"] != "open" {
		t.Errorf("readyz = %+v, want not-ready with TRFD open", ready)
	}

	// Half-open probe fails (fault still installed) → reopened.
	time.Sleep(cooldown + 20*time.Millisecond)
	resp, body = post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: "BS+LU2"})
	if e := decodeError(t, body); resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "fault" {
		t.Fatalf("failed probe: status %d kind %q, want 503 fault", resp.StatusCode, e.Kind)
	}
	resp, body = post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: "BS+LU4"})
	if e := decodeError(t, body); resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "breaker_open" {
		t.Fatalf("after failed probe: status %d kind %q, want 503 breaker_open", resp.StatusCode, e.Kind)
	}

	// Faults stop; the next probe succeeds and closes the breaker.
	faultinject.Disable()
	time.Sleep(cooldown + 20*time.Millisecond)
	resp, body = post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("successful probe: status %d (body %s)", resp.StatusCode, body)
	}
	rresp, _ = get(t, ts.URL+"/readyz")
	if rresp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d after breaker closed, want 200", rresp.StatusCode)
	}
}

// TestSingleflightCollapses fires identical concurrent requests: exactly
// one compiles (X-Cache miss), the rest share its flight or hit the
// cache, and every response is byte-identical.
func TestSingleflightCollapses(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "exp/cell", Key: "tomcatv", Mode: faultinject.ModeDelay, Delay: 100 * time.Millisecond,
	}))
	defer faultinject.Disable()

	s, ts := newTestServer(t, Config{})
	const n = 6
	bodies := make([][]byte, n)
	caches := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS+LU4"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (body %s)", i, resp.StatusCode, body)
				return
			}
			bodies[i], caches[i] = body, resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()

	misses := 0
	for i, c := range caches {
		switch c {
		case "miss":
			misses++
		case "shared", "hit":
		default:
			t.Errorf("request %d: X-Cache %q", i, c)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d served different bytes than request 0", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d requests compiled, want exactly 1 (caches %v)", misses, caches)
	}
	if c := counters(s); c["server/singleflight_shared"] == 0 && c["server/cache_hits"] == 0 {
		t.Error("neither singleflight nor cache absorbed the duplicates")
	}
}

// TestGridEndpoint: a grid request returns one entry per cell, degrading
// cell by cell — healthy benchmarks keep their metrics while a faulted
// benchmark's cells carry structured errors.
func TestGridEndpoint(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "exp/cell", Key: "DYFESM", Mode: faultinject.ModeError,
	}))
	defer faultinject.Disable()

	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/grid", GridRequest{
		Benches: []string{"tomcatv", "DYFESM"},
		Configs: []string{"BS", "TS"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, body)
	}
	var gr GridResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatalf("grid body: %v", err)
	}
	if len(gr.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(gr.Cells))
	}
	for _, c := range gr.Cells {
		switch c.Bench {
		case "tomcatv":
			if c.Metrics == nil || c.Error != "" {
				t.Errorf("healthy cell %s/%s degraded: %+v", c.Bench, c.Config, c)
			}
		case "DYFESM":
			if c.Metrics != nil || c.Kind != "fault" {
				t.Errorf("faulted cell %s/%s = %+v, want kind fault", c.Bench, c.Config, c)
			}
		}
	}
}

// TestDrainingRejects: after StartDrain new work is rejected with a
// structured 503, readiness goes not-ready, liveness stays green.
func TestDrainingRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.StartDrain()

	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d while draining, want 503 (body %s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != "draining" {
		t.Errorf("kind %q, want draining", e.Kind)
	}
	rresp, _ := get(t, ts.URL+"/readyz")
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d while draining, want 503", rresp.StatusCode)
	}
	hresp, _ := get(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d while draining, want 200", hresp.StatusCode)
	}
}

// TestMetricsEndpoint: /metrics exports the counter registry plus the
// queue, cache and breaker gauges in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Queue: 7})
	post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"})
	post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"})

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"bschedd_server_requests 2",
		"bschedd_server_cache_hits 1",
		"bschedd_queue_capacity 7",
		"bschedd_queue_depth 0",
		"bschedd_cache_entries 1",
		"bschedd_draining 0",
		`bschedd_breaker_state{bench="tomcatv"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, body
}

// counters snapshots the server's counter registry for assertions.
func counters(s *Server) map[string]int64 {
	return s.Stats.Snapshot().Counters
}
