package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// startWorker boots a real single-node bschedd worker on an ephemeral
// port and returns its host:port address.
func startWorker(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), ts
}

// newCoordinator builds a test coordinator with fast timers; mutate
// tweaks the config before New.
func newCoordinator(t *testing.T, mutate func(*Config), addrs ...string) *Coordinator {
	t.Helper()
	cfg := Config{
		Workers:       addrs,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		RetryBackoff:  10 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	})
	return c
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
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

func counter(c *Coordinator, name string) int64 {
	return c.Stats.Counter(name)
}

func TestCompileThroughFleetKeepsAffinity(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a, b)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var served []string
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: "tomcatv", Config: "BS+LU4"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d body %s", i, resp.StatusCode, body)
		}
		var doc server.ResultDoc
		if err := json.Unmarshal(body, &doc); err != nil || doc.Metrics == nil {
			t.Fatalf("compile %d: bad result doc %s (%v)", i, body, err)
		}
		served = append(served, resp.Header.Get("X-Served-By"))
	}
	if served[0] == "" || served[0] != served[1] {
		t.Errorf("benchmark affinity broken: served by %v, want one worker twice", served)
	}
	if got := counter(c, "fleet/cells_ok"); got != 2 {
		t.Errorf("fleet/cells_ok = %d, want 2", got)
	}
}

// TestGridByteIdenticalToSingleNode is the core sharding correctness
// claim: a buffered grid assembled from a 2-worker fleet is byte-for-byte
// the response a single-node daemon produces for the same request.
func TestGridByteIdenticalToSingleNode(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a, b)
	coordTS := httptest.NewServer(c.Handler())
	defer coordTS.Close()
	_, soloTS := startWorker(t)

	req := server.GridRequest{
		Benches: []string{"tomcatv", "TRFD", "ora"},
		Configs: []string{"BS", "TS", "BS+LU4"},
	}
	soloResp, soloBody := postJSON(t, soloTS.URL+"/v1/grid", req)
	fleetResp, fleetBody := postJSON(t, coordTS.URL+"/v1/grid", req)
	if soloResp.StatusCode != http.StatusOK || fleetResp.StatusCode != http.StatusOK {
		t.Fatalf("statuses solo=%d fleet=%d", soloResp.StatusCode, fleetResp.StatusCode)
	}
	if !bytes.Equal(soloBody, fleetBody) {
		t.Fatalf("fleet grid is not byte-identical to single-node:\nsolo:  %s\nfleet: %s",
			soloBody, fleetBody)
	}
}

func TestGridStreamsJSONL(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	req := server.GridRequest{Benches: []string{"tomcatv"}, Configs: []string{"BS", "TS"}}
	resp, body := postJSON(t, ts.URL+"/v1/grid?stream=jsonl", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 3 { // 2 cells + summary
		t.Fatalf("stream holds %d lines, want 3:\n%s", len(lines), body)
	}
	for _, line := range lines[:2] {
		var cell server.GridCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("cell line %q: %v", line, err)
		}
		if cell.Error != "" || cell.Metrics == nil {
			t.Errorf("streamed cell %s/%s failed: %q", cell.Bench, cell.Config, cell.Error)
		}
	}
	var sum gridSummary
	if err := json.Unmarshal(lines[2], &sum); err != nil {
		t.Fatalf("summary line %q: %v", lines[2], err)
	}
	if !sum.Done || sum.Cells != 2 || sum.Failed != 0 {
		t.Errorf("summary %+v, want done with 2 cells 0 failed", sum)
	}
}

func TestGridStreamsSSE(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	req := server.GridRequest{Benches: []string{"tomcatv"}, Configs: []string{"BS"}}
	resp, body := postJSON(t, ts.URL+"/v1/grid?stream=sse", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	s := string(body)
	if !strings.Contains(s, "event: cell\n") || !strings.Contains(s, "event: done\n") {
		t.Errorf("SSE stream missing cell/done events:\n%s", s)
	}
}

func TestDrainRejectsNewWorkAndReadyzFlips(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile during drain: status %d body %s", resp.StatusCode, body)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "draining" {
		t.Errorf("drain rejection kind %q (err %v), want draining", eb.Kind, err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection carries no Retry-After")
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
}

func TestJournalRecordsWorkerAttributionAndResumeReplays(t *testing.T) {
	a, _ := startWorker(t)
	journal := filepath.Join(t.TempDir(), "cells.jsonl")

	c := newCoordinator(t, func(cfg *Config) { cfg.Journal = journal }, a)
	ts := httptest.NewServer(c.Handler())
	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS+LU4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d body %s", resp.StatusCode, body)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	var rec CellRecord
	if err := json.Unmarshal(bytes.TrimSpace(b), &rec); err != nil {
		t.Fatalf("journal line %q: %v", b, err)
	}
	if rec.Worker != a || rec.Status != "ok" || rec.Bench != "tomcatv" {
		t.Fatalf("journal record %+v, want ok tomcatv served by %s", rec, a)
	}

	// Tear the tail: a coordinator killed mid-append leaves a partial
	// line; resume must truncate to the last complete record, not fail.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"torn","bench":"TRFD","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume into a different topology — the recorded worker no longer
	// exists — and the cell must replay from the journal, not dispatch.
	c2 := newCoordinator(t, func(cfg *Config) {
		cfg.Journal = filepath.Join(t.TempDir(), "new.jsonl")
		cfg.Resume = true
	}, "127.0.0.1:1") // dead address: any dispatch would fail
	// Point resume at the old journal explicitly.
	resumed, err := loadResume(journal)
	if err != nil {
		t.Fatalf("loadResume: %v", err)
	}
	c2.resumed = resumed

	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	resp2, body2 := postJSON(t, ts2.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS+LU4"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resumed compile: status %d body %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(bytes.TrimSpace(body2), bytes.TrimSpace(body)) {
		t.Errorf("resumed body differs from original:\nwas: %s\nnow: %s", body, body2)
	}
	if got := counter(c2, "fleet/resume_hits"); got != 1 {
		t.Errorf("fleet/resume_hits = %d, want 1", got)
	}
	if resp2.Header.Get("X-Served-By") != "resume" {
		t.Errorf("X-Served-By = %q, want resume", resp2.Header.Get("X-Served-By"))
	}
}

// reply is one HTTP exchange's outcome, delivered by postAsync.
type reply struct {
	status int
	body   []byte
	err    error
}

// postAsync POSTs v as JSON off the test goroutine and delivers the
// reply on the returned channel.
func postAsync(url string, v any) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		b, err := json.Marshal(v)
		if err != nil {
			out <- reply{err: err}
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		out <- reply{resp.StatusCode, body, err}
	}()
	return out
}

// heldCellsFail sends a two-cell grid and a compile, both with
// deadlineMS, to a coordinator whose one worker holds every compile
// until the request that carried it ends. Once all three cells are
// held it calls end, then checks that every cell came back as kind in
// the dispatch phase, the compile with status, and that the journal
// records kind for each cell.
func heldCellsFail(t *testing.T, deadlineMS int64, end func(*Coordinator), kind string, status int) {
	t.Helper()
	var held atomic.Int64
	allHeld := make(chan struct{})
	release := make(chan struct{})
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if held.Add(1) == 3 {
			close(allHeld)
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	t.Cleanup(func() { close(release) })
	journal := filepath.Join(t.TempDir(), "cells.jsonl")
	c := newCoordinator(t, func(cfg *Config) { cfg.Journal = journal }, addr)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	grid := postAsync(ts.URL+"/v1/grid", server.GridRequest{
		Benches: []string{"tomcatv"}, Configs: []string{"BS", "TS"}, DeadlineMS: deadlineMS,
	})
	compile := postAsync(ts.URL+"/v1/compile", server.CompileRequest{
		Bench: "tomcatv", Config: "BS+LU4", DeadlineMS: deadlineMS,
	})
	select {
	case <-allHeld:
	case <-time.After(10 * time.Second):
		t.Fatalf("the worker holds %d cells, want 3", held.Load())
	}
	end(c)
	g, cp := <-grid, <-compile

	if g.err != nil || g.status != http.StatusOK {
		t.Fatalf("grid: status %d err %v body %s, want 200", g.status, g.err, g.body)
	}
	var gr server.GridResponse
	if err := json.Unmarshal(g.body, &gr); err != nil || len(gr.Cells) != 2 {
		t.Fatalf("grid body %s (err %v), want 2 cells", g.body, err)
	}
	for _, cell := range gr.Cells {
		if cell.Kind != kind || cell.Phase != "dispatch" || cell.Error == "" || cell.Metrics != nil {
			t.Errorf("cell %s/%s: kind %q phase %q error %q, want a %s in dispatch",
				cell.Bench, cell.Config, cell.Kind, cell.Phase, cell.Error, kind)
		}
	}
	var eb server.ErrorBody
	if cp.err != nil || cp.status != status || json.Unmarshal(cp.body, &eb) != nil ||
		eb.Kind != kind || eb.Phase != "dispatch" {
		t.Errorf("compile: status %d err %v body %s, want %d %s in dispatch", cp.status, cp.err, cp.body, status, kind)
	}
	if got := held.Load(); got != 3 {
		t.Errorf("the worker saw %d compiles, want 3 (no retry after the request ended)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("journal holds %d lines, want 3:\n%s", len(lines), b)
	}
	for i, line := range lines {
		var rec CellRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Status != kind || rec.Body != nil {
			t.Errorf("journal line %d %s (err %v), want status %q and no body", i, line, err, kind)
		}
	}
}

// TestGridDeadlinePassesMidDispatch: a grid whose deadline passes while
// its worker holds every cell still answers 200, each cell a timeout in
// the dispatch phase, and a compile under the same hold answers 504.
func TestGridDeadlinePassesMidDispatch(t *testing.T) {
	heldCellsFail(t, 500, func(*Coordinator) {}, "timeout", http.StatusGatewayTimeout)
}

// TestDrainCancelsCellsMidDispatch: a drain whose context has already
// expired cancels the cells its worker holds. The grid still answers
// 200, each cell canceled in the dispatch phase, and the compile answers
// 503.
func TestDrainCancelsCellsMidDispatch(t *testing.T) {
	heldCellsFail(t, 0, func(c *Coordinator) {
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.Drain(expired); err != nil {
			t.Errorf("Drain: %v", err)
		}
	}, "canceled", http.StatusServiceUnavailable)
}

func TestNewRequiresWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers succeeded")
	}
}

func TestBadRequestsDoNotRetry(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "no-such-bench", Config: "BS"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if got := counter(c, "fleet/retries"); got != 0 {
		t.Errorf("bad request triggered %d retries", got)
	}
}

// TestOversizedGridRejected: a grid one cell over server.MaxGridCells
// is a 400 naming its cell count, and no cell is dispatched.
func TestOversizedGridRejected(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	configs := make([]string, server.MaxGridCells+1)
	for i := range configs {
		configs[i] = "BS"
	}
	resp, body := postJSON(t, ts.URL+"/v1/grid",
		server.GridRequest{Benches: []string{"tomcatv"}, Configs: configs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d body %s, want 400", resp.StatusCode, body)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "bad_request" ||
		!strings.Contains(eb.Error, strconv.Itoa(server.MaxGridCells+1)) {
		t.Errorf("body %s (err %v), want a bad_request naming %d cells", body, err, server.MaxGridCells+1)
	}
	if got := counter(c, "fleet/dispatches"); got != 0 {
		t.Errorf("fleet/dispatches = %d, want 0", got)
	}
}

func TestCoordinatorBodyLimit(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, func(cfg *Config) { cfg.MaxBodyBytes = 256 }, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	huge := map[string]string{"bench": strings.Repeat("x", 1024)}
	resp, body := postJSON(t, ts.URL+"/v1/compile", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %s, want 413", resp.StatusCode, body)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "too_large" {
		t.Errorf("413 kind %q (err %v), want too_large", eb.Kind, err)
	}
	if got := counter(c, "fleet/too_large"); got != 1 {
		t.Errorf("fleet/too_large = %d, want 1", got)
	}
}

// TestWriteFailureRetryAfterRange: the coordinator's transient rejections
// carry the same jittered Retry-After policy as a worker's (base 1s, so
// 1 or 2 whole seconds), header and body agree, and concurrent
// rejections do not all get one value.
func TestWriteFailureRetryAfterRange(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	c.StartDrain()

	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: "tomcatv", Config: "BS"})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("compile while draining: status %d body %s, want 503", resp.StatusCode, body)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 || secs > 2 {
			t.Fatalf("Retry-After = %q, want 1 or 2", resp.Header.Get("Retry-After"))
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfterS != secs {
			t.Fatalf("body retry_after_s = %d (%v), header %d", eb.RetryAfterS, err, secs)
		}
		seen[secs] = true
	}
	if len(seen) < 2 {
		t.Errorf("Retry-After took one value 200 times (%v); no jitter", seen)
	}

	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusMethodNotAllowed || eb.Kind != "bad_request" {
		t.Fatalf("GET /v1/compile: status %d body %s, want a 405 bad_request", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("bad_request carries Retry-After %q", ra)
	}
}
