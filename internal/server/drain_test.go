package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
)

// postID is post with an explicit X-Request-Id, so journal entries can be
// matched back to the requests that produced them.
func postID(t *testing.T, url, id string, req any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(hreq)
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

func readRequestJournal(t *testing.T, path string) map[string]journalRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer f.Close()
	out := map[string]journalRecord{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("torn journal line %q: %v", sc.Text(), err)
		}
		if _, dup := out[rec.ID]; dup {
			t.Errorf("request %s journaled twice", rec.ID)
		}
		out[rec.ID] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning journal: %v", err)
	}
	return out
}

// TestLoadDrillAndDrain is the acceptance drill: with queue capacity Q
// and more than 2Q concurrent distinct requests the server sheds the
// excess with 429 and serves every admitted request; /healthz stays green
// throughout; a SIGTERM-style drain under a short deadline cancels
// in-flight work into structured errors; and after Drain returns the
// journal holds exactly one well-formed line for every admitted request —
// nothing dropped, nothing torn.
func TestLoadDrillAndDrain(t *testing.T) {
	faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
		Site: "exp/cell", Mode: faultinject.ModeDelay, Delay: 120 * time.Millisecond,
	}))
	defer faultinject.Disable()

	journal := filepath.Join(t.TempDir(), "requests.jsonl")
	const queueCap = 3
	s, ts := newTestServer(t, Config{Queue: queueCap, Workers: 2, Journal: journal})

	// Wave 1: every cell of the paper grid for one benchmark — 16 distinct
	// work items against a queue of 3, all at once.
	cells := exp.Cells()
	if len(cells) <= 2*queueCap {
		t.Fatalf("drill needs > 2Q requests, have %d for Q=%d", len(cells), queueCap)
	}
	statuses := make([]int, len(cells))
	var wg sync.WaitGroup
	for i, cfg := range cells {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resp, body := postID(t, ts.URL+"/v1/compile", fmt.Sprintf("w1-%02d", i),
				CompileRequest{Bench: "tomcatv", Config: name})
			statuses[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("cell %s: status %d (%s), want 200 or 429", name, resp.StatusCode, body)
			}
		}(i, cfg.Name())
	}
	// Liveness under load: /healthz keeps answering 200 while the drill runs.
	for i := 0; i < 3; i++ {
		hresp, _ := get(t, ts.URL+"/healthz")
		if hresp.StatusCode != http.StatusOK {
			t.Errorf("/healthz = %d during load drill, want 200", hresp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()

	served, shed := 0, 0
	for _, st := range statuses {
		switch st {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("drill: %d served, %d shed — want both nonzero", served, shed)
	}

	// Wave 2: slow in-flight requests on a fresh benchmark (nothing
	// cached), then drain with a deadline far shorter than their runtime.
	w2 := []string{"BS", "TS", "BF"}
	w2status := make([]int, len(w2))
	w2kind := make([]string, len(w2))
	for i, cfg := range w2 {
		wg.Add(1)
		go func(i int, cfg string) {
			defer wg.Done()
			resp, body := postID(t, ts.URL+"/v1/compile", fmt.Sprintf("w2-%d", i),
				CompileRequest{Bench: "TRFD", Config: cfg})
			w2status[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				w2kind[i] = decodeError(t, body).Kind
			}
		}(i, cfg)
	}
	time.Sleep(40 * time.Millisecond) // let wave 2 get admitted

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drainStart := time.Now()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if took := time.Since(drainStart); took > 5*time.Second {
		t.Errorf("drain took %s, want prompt completion after deadline cancel", took)
	}
	wg.Wait()

	for i := range w2 {
		switch {
		case w2status[i] == http.StatusOK:
			// finished before the drain deadline — fine
		case w2status[i] == http.StatusServiceUnavailable && (w2kind[i] == "canceled" || w2kind[i] == "draining"),
			w2status[i] == http.StatusGatewayTimeout && w2kind[i] == "timeout":
			// canceled by the drain into a structured error — fine
		default:
			t.Errorf("wave-2 request %d: status %d kind %q — not a result or structured cancel",
				i, w2status[i], w2kind[i])
		}
	}

	// After the drain the server rejects new work and the journal is
	// complete: one line per admitted request (wave 1 and every wave-2
	// request that entered before the drain flipped), none torn.
	resp, body := postID(t, ts.URL+"/v1/compile", "late", CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusServiceUnavailable || decodeError(t, body).Kind != "draining" {
		t.Errorf("post-drain request: status %d body %s, want 503 draining", resp.StatusCode, body)
	}

	recs := readRequestJournal(t, journal)
	for i := range cells {
		id := fmt.Sprintf("w1-%02d", i)
		rec, ok := recs[id]
		if !ok {
			t.Errorf("admitted request %s missing from journal", id)
			continue
		}
		if rec.Status != statuses[i] {
			t.Errorf("journal records status %d for %s, served %d", rec.Status, id, statuses[i])
		}
	}
	for i := range w2 {
		id := fmt.Sprintf("w2-%d", i)
		_, ok := recs[id]
		entered := w2kind[i] != "draining"
		if entered && !ok {
			t.Errorf("in-flight request %s (status %d) dropped from journal by drain", id, w2status[i])
		}
		if !entered && ok {
			t.Errorf("draining-rejected request %s journaled", id)
		}
	}
	if _, ok := recs["late"]; ok {
		t.Error("request rejected after drain appears in journal")
	}
}

// TestDrainNoDeadlinePressure: a drain whose context outlives the
// in-flight work lets it finish normally — results land as 200s and the
// journal still covers everything.
func TestDrainNoDeadlinePressure(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "requests.jsonl")
	s, ts := newTestServer(t, Config{Journal: journal})

	var wg sync.WaitGroup
	status := make([]int, 2)
	for i, cfg := range []string{"BS", "TS"} {
		wg.Add(1)
		go func(i int, cfg string) {
			defer wg.Done()
			resp, _ := postID(t, ts.URL+"/v1/compile", fmt.Sprintf("r%d", i),
				CompileRequest{Bench: "tomcatv", Config: cfg})
			status[i] = resp.StatusCode
		}(i, cfg)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()

	recs := readRequestJournal(t, journal)
	for i := range status {
		id := fmt.Sprintf("r%d", i)
		rec, ok := recs[id]
		if !ok {
			// The request may have arrived after the drain flipped; then it
			// was rejected as draining and legitimately not journaled.
			if status[i] != http.StatusServiceUnavailable {
				t.Errorf("request %s (status %d) missing from journal", id, status[i])
			}
			continue
		}
		if rec.Status != status[i] {
			t.Errorf("journal status %d for %s, served %d", rec.Status, id, status[i])
		}
	}
}
