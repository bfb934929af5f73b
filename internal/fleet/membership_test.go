package fleet

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// deadAddr returns a host:port that refuses connections immediately: an
// ephemeral port that was listening a moment ago and is now closed.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestJoinAndLeaveOverHTTP drives the membership endpoints end to end:
// join admits and is idempotent, leave removes, unknown leaves 404, bad
// addresses 400, and the epoch advances with every change.
func TestJoinAndLeaveOverHTTP(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	epoch0 := c.members.generation()
	resp, body := postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d body %s", resp.StatusCode, body)
	}
	var joinDoc struct {
		Joined  bool   `json:"joined"`
		Healthy bool   `json:"healthy"`
		Workers int    `json:"workers"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &joinDoc); err != nil {
		t.Fatalf("join body: %v", err)
	}
	if !joinDoc.Joined || !joinDoc.Healthy || joinDoc.Workers != 2 {
		t.Errorf("join doc = %+v, want joined healthy 2-worker fleet", joinDoc)
	}
	if joinDoc.Epoch <= epoch0 {
		t.Errorf("epoch %d did not advance past %d on join", joinDoc.Epoch, epoch0)
	}

	// Idempotent: joining a member again changes nothing.
	resp, body = postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-join: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &joinDoc); err != nil || joinDoc.Joined || joinDoc.Workers != 2 {
		t.Errorf("re-join doc = %+v (err %v), want joined=false workers=2", joinDoc, err)
	}

	// Bad address is a structured 400.
	resp, _ = postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": "not-an-addr"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("join bad addr: status %d, want 400", resp.StatusCode)
	}

	// Leave removes; leaving again is a 404.
	resp, body = postJSON(t, ts.URL+"/v1/fleet/leave", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d body %s", resp.StatusCode, body)
	}
	if got := len(c.WorkerAddrs()); got != 1 {
		t.Errorf("fleet holds %d workers after leave, want 1", got)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/fleet/leave", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("leave non-member: status %d, want 404", resp.StatusCode)
	}
	if got := counter(c, "fleet/joins"); got != 1 {
		t.Errorf("fleet/joins = %d, want 1", got)
	}
	if got := counter(c, "fleet/leaves"); got != 1 {
		t.Errorf("fleet/leaves = %d, want 1", got)
	}
}

// TestJoinedWorkerReceivesCells: a worker joined over HTTP starts
// serving its share of the keyspace immediately — the join probes it
// synchronously, so it is dispatchable before the handler returns.
func TestJoinedWorkerReceivesCells(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d body %s", resp.StatusCode, body)
	}
	servedByB := false
	for _, bench := range workload.All() {
		if c.OwnerAddr(bench.Name) != b {
			continue
		}
		resp, cbody := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: bench.Name, Config: "BS"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %s: status %d body %s", bench.Name, resp.StatusCode, cbody)
		}
		if got := resp.Header.Get("X-Served-By"); got != b {
			t.Errorf("bench %s owned by joined worker served by %q", bench.Name, got)
		}
		servedByB = true
		break
	}
	if !servedByB {
		t.Fatalf("joined worker owns none of the %d benchmarks (vanishingly unlikely)", len(workload.All()))
	}
}

// TestLeaveStopsProbeGoroutines is the prober-lifecycle regression test:
// joining workers starts probe loops, removing them must stop those
// loops — the goroutine count returns to its baseline instead of leaking
// one ticker loop per departed worker.
func TestLeaveStopsProbeGoroutines(t *testing.T) {
	a, _ := startWorker(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.ProbeInterval = 10 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
	}, a)

	// Take the baseline only after a's probe loop has finished a round
	// trip: its keep-alive connection adds three goroutines (client read
	// and write loops, server conn) that must not count as a leak.
	for deadline := time.Now().Add(5 * time.Second); counter(c, "fleet/probes") < 2; {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never completed a round trip")
		}
		time.Sleep(5 * time.Millisecond)
	}
	baseline := runtime.NumGoroutine()
	var joined []string
	for i := 0; i < 8; i++ {
		addr := deadAddr(t)
		if _, _, err := c.Join(addr); err != nil {
			t.Fatalf("join %s: %v", addr, err)
		}
		joined = append(joined, addr)
	}
	if got := len(c.WorkerAddrs()); got != 9 {
		t.Fatalf("fleet holds %d workers, want 9", got)
	}
	for _, addr := range joined {
		if !c.Leave(addr) {
			t.Fatalf("leave %s reported non-member", addr)
		}
	}
	// The stopped loops unwind asynchronously; poll them down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d after leaving 8 workers (baseline %d): probe loops leaked",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvictionAfterSustainedProbeFailure: with EvictAfterFails set, a
// worker that stops answering probes is removed from the fleet — and its
// keys remap to survivors — without an operator in the loop.
func TestEvictionAfterSustainedProbeFailure(t *testing.T) {
	a, _ := startWorker(t)
	dead := deadAddr(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.ProbeInterval = 10 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.EvictAfterFails = 3
	}, a, dead)

	deadline := time.Now().Add(10 * time.Second)
	for len(c.WorkerAddrs()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead worker never evicted; fleet still %v", c.WorkerAddrs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.WorkerAddrs()[0]; got != a {
		t.Errorf("survivor is %q, want %q", got, a)
	}
	if got := counter(c, "fleet/evictions"); got != 1 {
		t.Errorf("fleet/evictions = %d, want 1", got)
	}
	// Every benchmark now routes to the survivor.
	if got := c.OwnerAddr("tomcatv"); got != a {
		t.Errorf("tomcatv owned by %q after eviction, want %q", got, a)
	}
}

// TestLastMemberNeverEvicted: a fully dead fleet keeps its roster — the
// last worker is never auto-evicted, so a revived worker is probed back
// into rotation instead of leaving an empty ring forever.
func TestLastMemberNeverEvicted(t *testing.T) {
	dead := deadAddr(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.ProbeInterval = 5 * time.Millisecond
		cfg.ProbeTimeout = 50 * time.Millisecond
		cfg.EvictAfterFails = 2
	}, dead)

	time.Sleep(300 * time.Millisecond) // many eviction opportunities
	if got := len(c.WorkerAddrs()); got != 1 {
		t.Fatalf("last member was evicted; fleet holds %d workers", got)
	}
	if got := counter(c, "fleet/evictions"); got != 0 {
		t.Errorf("fleet/evictions = %d, want 0", got)
	}
}

// TestReadyzQuorum: /readyz is quorum-aware — ready while healthy >=
// MinWorkers, 503 naming the down workers once the fleet sinks below
// quorum.
func TestReadyzQuorum(t *testing.T) {
	a, _ := startWorker(t)
	b, tsB := startWorker(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.MinWorkers = 2
		cfg.ProbeInterval = 10 * time.Millisecond
	}, a, b)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	get := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return resp.StatusCode, doc
	}

	if status, doc := get(); status != http.StatusOK {
		t.Fatalf("readyz at quorum: status %d doc %v", status, doc)
	}

	tsB.Close() // kill one worker; the probe loop will notice
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, doc := get()
		if status == http.StatusServiceUnavailable {
			if doc["ready"] != false {
				t.Errorf("below-quorum readyz doc says ready: %v", doc)
			}
			if doc["min_workers"] != float64(2) {
				t.Errorf("readyz min_workers = %v, want 2", doc["min_workers"])
			}
			down, _ := doc["down_workers"].([]any)
			found := false
			for _, d := range down {
				if d == b {
					found = true
				}
			}
			if !found {
				t.Errorf("down_workers %v does not name the dead worker %q", down, b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never went 503 after the fleet sank below quorum")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinRejectedWhileDraining: a draining coordinator admits no new
// workers — the join answers a structured 503.
func TestJoinRejectedWhileDraining(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	c.StartDrain()
	resp, body := postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": b})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join while draining: status %d body %s, want 503", resp.StatusCode, body)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "draining" {
		t.Errorf("join failure kind %q (err %v), want draining", eb.Kind, err)
	}
}

// TestMembersEndpoint: /v1/fleet/members reports the roster with live
// status and the membership epoch.
func TestMembersEndpoint(t *testing.T) {
	a, _ := startWorker(t)
	b, _ := startWorker(t)
	c := newCoordinator(t, nil, a, b)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/fleet/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Workers map[string]workerStatus `json:"workers"`
		Healthy int                     `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("members body: %v", err)
	}
	if len(doc.Workers) != 2 {
		t.Errorf("members lists %d workers, want 2", len(doc.Workers))
	}
	for _, addr := range []string{a, b} {
		if _, ok := doc.Workers[addr]; !ok {
			t.Errorf("members missing worker %s: %v", addr, doc.Workers)
		}
	}
}

// TestValidateWorkerAddr rejects malformed join targets.
func TestValidateWorkerAddr(t *testing.T) {
	for _, bad := range []string{"", "nohost", "host:", ":80:", "http://x:1"} {
		if err := validateWorkerAddr(bad); err == nil {
			t.Errorf("validateWorkerAddr(%q) accepted a malformed address", bad)
		}
	}
	for _, good := range []string{"127.0.0.1:8080", "worker-3:443", "[::1]:9"} {
		if err := validateWorkerAddr(good); err != nil {
			t.Errorf("validateWorkerAddr(%q): %v", good, err)
		}
	}
}
