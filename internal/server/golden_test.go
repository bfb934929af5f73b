package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sched"
)

// TestCachedBytesEqualColdBytes is the golden-stability check: the
// response document is fully deterministic for a (benchmark, config,
// verify) key, so the LRU-served bytes must equal the cold compile's
// bytes exactly — not just semantically.
func TestCachedBytesEqualColdBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompileRequest{Bench: "tomcatv", Config: "BS+LU4", Verify: true}

	resp1, cold := post(t, ts.URL+"/v1/compile", req)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	resp2, cached := post(t, ts.URL+"/v1/compile", req)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm request: status %d cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, cached) {
		t.Fatalf("cached response differs from cold response:\ncold:   %s\ncached: %s", cold, cached)
	}

	// A second server instance — fresh cache, fresh front-ends — produces
	// the same bytes again: nothing in the document depends on process
	// state or wall-clock.
	_, ts2 := newTestServer(t, Config{})
	resp3, other := post(t, ts2.URL+"/v1/compile", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("second server: status %d", resp3.StatusCode)
	}
	if !bytes.Equal(cold, other) {
		t.Fatalf("second server's response differs:\nfirst:  %s\nsecond: %s", cold, other)
	}
}

// TestServerMatchesEngine: the metrics the server serves for a cell are
// identical to what the CLI path (exp.CellRunner / paperbench's grid)
// computes for the same (benchmark, config) — serving adds caching and
// admission around the pipeline, never a different answer.
func TestServerMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfg := core.Config{Policy: sched.Balanced, Unroll: 4, Locality: true}

	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "TRFD", Config: cfg.Name(), Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, body)
	}
	var doc ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	res, err := exp.NewCellRunner().Run(context.Background(), "TRFD", cfg, exp.Options{Verify: true})
	if err != nil {
		t.Fatalf("engine cell: %v", err)
	}
	if doc.Metrics == nil || res.Metrics == nil {
		t.Fatal("missing metrics")
	}
	if *doc.Metrics != *res.Metrics {
		t.Fatalf("server metrics %+v differ from engine metrics %+v", *doc.Metrics, *res.Metrics)
	}
}
