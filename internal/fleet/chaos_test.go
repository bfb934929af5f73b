package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/workload"
)

// killSwitch wraps a worker's handler with a remotely armed death: once
// armed, the worker serves dieAfter more compile requests and then
// aborts every connection — compiles and health probes alike — exactly
// like a process that was SIGKILLed mid-grid.
type killSwitch struct {
	inner    http.Handler
	armed    atomic.Bool
	served   atomic.Int64
	dieAfter int64
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.armed.Load() {
		if r.URL.Path == "/v1/compile" {
			if k.served.Add(1) > k.dieAfter {
				panic(http.ErrAbortHandler)
			}
		} else {
			panic(http.ErrAbortHandler)
		}
	}
	k.inner.ServeHTTP(w, r)
}

func startKillableWorker(t *testing.T, dieAfter int64) (string, *killSwitch) {
	ks := &killSwitch{dieAfter: dieAfter}
	addr := startWorkerBehind(t, func(h http.Handler) http.Handler {
		ks.inner = h
		return ks
	})
	return addr, ks
}

// startWorkerBehind boots a real single-node worker whose handler wrap
// decorates, and returns its host:port address.
func startWorkerBehind(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(wrap(s.Handler()))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// freezer wraps a worker's handler with a remotely armed freeze: once
// frozen, every request — compiles and health probes alike — blocks
// until test cleanup while its connection stays open, like a process
// under SIGSTOP.
type freezer struct {
	inner   http.Handler
	frozen  atomic.Bool
	release chan struct{}
}

func (f *freezer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.frozen.Load() {
		<-f.release
		return
	}
	f.inner.ServeHTTP(w, r)
}

func startFreezableWorker(t *testing.T) (string, *freezer) {
	f := &freezer{release: make(chan struct{})}
	addr := startWorkerBehind(t, func(h http.Handler) http.Handler {
		f.inner = h
		return f
	})
	// Cleanups run last-in first-out: thaw before the server's Close,
	// which waits for the blocked handlers.
	t.Cleanup(func() { close(f.release) })
	return addr, f
}

// TestGridSurvivesWorkerDeathMidGrid is the chaos proof for the fleet:
// the worker that owns the requested benchmark dies after serving one
// cell, and the surviving worker completes the grid with zero failed
// cells — byte-identical to a single-node run — while the retry and
// failover counters attribute the recovery.
func TestGridSurvivesWorkerDeathMidGrid(t *testing.T) {
	addrA, ksA := startKillableWorker(t, 1)
	addrB, ksB := startKillableWorker(t, 1)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.RetryBackoff = 5 * time.Millisecond
	}, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Arm the kill switch on whichever worker owns tomcatv, so the death
	// deterministically hits the worker mid-way through its own shard.
	owner := c.OwnerAddr("tomcatv")
	if owner == addrA {
		ksA.armed.Store(true)
	} else {
		ksB.armed.Store(true)
	}

	req := server.GridRequest{
		Benches: []string{"tomcatv"},
		Configs: []string{"BS", "TS", "BS+LU4", "BS+TrS"},
	}
	resp, body := postJSON(t, ts.URL+"/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid: status %d body %s", resp.StatusCode, body)
	}
	var grid server.GridResponse
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatalf("grid body: %v", err)
	}
	if len(grid.Cells) != 4 {
		t.Fatalf("grid holds %d cells, want 4", len(grid.Cells))
	}
	for _, cell := range grid.Cells {
		if cell.Error != "" || cell.Metrics == nil {
			t.Errorf("cell %s/%s failed despite a surviving worker: kind=%q err=%q",
				cell.Bench, cell.Config, cell.Kind, cell.Error)
		}
	}

	// The recovery must be attributed: transport errors on the dead
	// worker, retries, and failovers to the survivor.
	for _, name := range []string{"fleet/worker_errors", "fleet/retries", "fleet/failovers"} {
		if got := counter(c, name); got == 0 {
			t.Errorf("%s = 0 after a mid-grid worker death", name)
		}
	}
	if got := counter(c, "fleet/degraded_cells"); got != 0 {
		t.Errorf("fleet/degraded_cells = %d, want 0 (a worker survived)", got)
	}

	// Byte-identity with a single-node run, even across the failover.
	_, soloTS := startWorker(t)
	_, soloBody := postJSON(t, soloTS.URL+"/v1/grid", req)
	if !bytes.Equal(body, soloBody) {
		t.Errorf("failover grid differs from single-node run:\nfleet: %s\nsolo:  %s", body, soloBody)
	}

	// The counters are observable over HTTP: /metrics as Prometheus
	// series, /debug/obs as the raw counter registry.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{"bschedd_fleet_retries", "bschedd_fleet_failovers", "bschedd_fleet_worker_errors", "bschedd_fleet_worker_healthy"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s:\n%s", series, metrics)
		}
	}
	oresp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	var obsDoc struct {
		Stats struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"stats"`
		Workers map[string]workerStatus `json:"workers"`
	}
	if err := json.NewDecoder(oresp.Body).Decode(&obsDoc); err != nil {
		t.Fatalf("/debug/obs: %v", err)
	}
	oresp.Body.Close()
	if obsDoc.Stats.Counters["fleet/failovers"] == 0 {
		t.Error("/debug/obs does not expose fleet/failovers")
	}
	if len(obsDoc.Workers) != 2 {
		t.Errorf("/debug/obs lists %d workers, want 2", len(obsDoc.Workers))
	}
}

// TestGridSurvivesKillAndJoinMidGrid is the fleet's chaos proof: the
// benchmark's owner is killed and a replacement joins while a grid is in
// flight — the grid completes with zero failed cells, byte-identical to
// a single-node run, and at least one failover is served from the
// shared cache tier instead of recomputed.
func TestGridSurvivesKillAndJoinMidGrid(t *testing.T) {
	addrA, ksA := startKillableWorker(t, 0)
	addrB, ksB := startKillableWorker(t, 0)
	addrC, _ := startWorker(t) // the replacement
	c := newCoordinator(t, func(cfg *Config) {
		cfg.RetryBackoff = 5 * time.Millisecond
	}, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// The replacement must not take the gridded benchmark over when it
	// joins: if the join lands before the grid dispatches, an owning
	// replacement would serve every cell as primary and no failover would
	// ever run. A join moves keys only to the joining worker, so an analog
	// an existing worker owns in the post-join fleet has that owner before
	// and after the join.
	post := membersOf(addrA, addrB, addrC)
	bench, owner := "", (*killSwitch)(nil)
	for _, b := range workload.All() {
		switch post.owner(b.Name) {
		case addrA:
			bench, owner = b.Name, ksA
		case addrB:
			bench, owner = b.Name, ksB
		}
		if bench != "" {
			break
		}
	}
	if bench == "" {
		t.Fatal("the replacement owns every analog (vanishingly unlikely)")
	}
	if got, want := c.OwnerAddr(bench), post.owner(bench); got != want {
		t.Fatalf("%s: owner %s before the join, %s after it", bench, got, want)
	}

	req := server.GridRequest{
		Benches: []string{bench},
		Configs: []string{"BS", "TS", "BS+LU4", "BS+TrS"},
	}

	// Warm pass: every cell served cold and promoted into the shared
	// cache tier.
	resp, _ := postJSON(t, ts.URL+"/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm grid: status %d", resp.StatusCode)
	}

	// Kill the owner outright, then re-run the grid while the replacement
	// joins mid-flight.
	owner.armed.Store(true)
	gridDone := make(chan []byte, 1)
	go func() {
		_, body := postJSON(t, ts.URL+"/v1/grid", req)
		gridDone <- body
	}()
	jresp, jbody := postJSON(t, ts.URL+"/v1/fleet/join", map[string]string{"addr": addrC})
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("join mid-grid: status %d body %s", jresp.StatusCode, jbody)
	}
	body := <-gridDone

	var grid server.GridResponse
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatalf("grid body: %v", err)
	}
	for _, cell := range grid.Cells {
		if cell.Error != "" || cell.Metrics == nil {
			t.Errorf("cell %s/%s failed through kill+join churn: kind=%q err=%q",
				cell.Bench, cell.Config, cell.Kind, cell.Error)
		}
	}

	// The replacement is a member, and the failovers hit the shared tier
	// instead of recomputing.
	members := c.WorkerAddrs()
	found := false
	for _, m := range members {
		if m == addrC {
			found = true
		}
	}
	if !found {
		t.Errorf("joined worker %s missing from roster %v", addrC, members)
	}
	if got := counter(c, "fleet/cache_hits"); got == 0 {
		t.Error("fleet/cache_hits = 0; failovers recomputed cells the tier already held")
	}

	// Byte-identity with a single-node run, across the kill and the join.
	_, soloTS := startWorker(t)
	_, soloBody := postJSON(t, soloTS.URL+"/v1/grid", req)
	if !bytes.Equal(body, soloBody) {
		t.Errorf("churned grid differs from single-node run:\nfleet: %s\nsolo:  %s", body, soloBody)
	}

	// The tier's work is visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{"bschedd_fleet_cache_hits", "bschedd_fleet_joins", "bschedd_fleet_epoch"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestFailoverServedFromReplicaStore: the coordinator's own tier is
// cold, but the surviving worker computed the cell behind the
// coordinator's back. The failover goes to that replica, which answers
// from its own result store: the bytes are its own answer, and it
// computed the cell once.
func TestFailoverServedFromReplicaStore(t *testing.T) {
	addrA, ksA := startKillableWorker(t, 0)
	addrB, tsB := startWorker(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.RetryBackoff = 5 * time.Millisecond
	}, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Find a benchmark owned by the killable worker.
	bench := ""
	for _, b := range []string{"tomcatv", "TRFD", "ora", "swm256", "DYFESM", "alvinn", "doduc", "ear", "ARC2D", "BDNA", "MDG", "QCD2", "dnasa7", "hydro2d", "mdljdp2", "spice2g6", "su2cor"} {
		if c.OwnerAddr(b) == addrA {
			bench = b
			break
		}
	}
	if bench == "" {
		t.Fatal("killable worker owns no benchmark (vanishingly unlikely)")
	}

	// Warm the SURVIVOR's result store directly, bypassing the
	// coordinator so its own tier stays cold for this cell.
	creq := server.CompileRequest{Bench: bench, Config: "BS"}
	bresp, directBody := postJSON(t, tsB.URL+"/v1/compile", creq)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("direct warm compile: status %d", bresp.StatusCode)
	}

	// Kill the owner; the failover must land on B.
	ksA.armed.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/compile", creq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover compile: status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != addrB {
		t.Errorf("X-Served-By = %q, want the replica %q", got, addrB)
	}
	if !bytes.Equal(body, directBody) {
		t.Errorf("failover bytes differ from the replica's own response:\nfailover: %s\ndirect:   %s", body, directBody)
	}
	if got := counter(c, "fleet/cache_hits"); got != 0 {
		t.Errorf("fleet/cache_hits = %d, want 0 (the tier never saw the cell)", got)
	}
	mresp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, line := range []string{"bschedd_server_cache_misses 1\n", "bschedd_server_cache_hits 1\n"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("replica /metrics lacks %q: it did not compute the cell exactly once and serve it again\n%s", line, metrics)
		}
	}
}

// TestGridDegradesWhenFleetDies: with every worker dead the grid still
// answers 200 — each cell a structured degraded row, never a failed
// grid or a hung request.
func TestGridDegradesWhenFleetDies(t *testing.T) {
	addr, ks := startKillableWorker(t, 0)
	ks.armed.Store(true) // dead from the first request
	c := newCoordinator(t, func(cfg *Config) {
		cfg.RetryBackoff = 2 * time.Millisecond
	}, addr)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	req := server.GridRequest{Benches: []string{"tomcatv"}, Configs: []string{"BS", "TS"}}
	resp, body := postJSON(t, ts.URL+"/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid against a dead fleet: status %d body %s (grids must degrade, not fail)",
			resp.StatusCode, body)
	}
	var grid server.GridResponse
	if err := json.Unmarshal(body, &grid); err != nil {
		t.Fatalf("grid body: %v", err)
	}
	for _, cell := range grid.Cells {
		if cell.Kind != "degraded" {
			t.Errorf("cell %s/%s kind %q, want degraded", cell.Bench, cell.Config, cell.Kind)
		}
		if cell.Error == "" {
			t.Errorf("degraded cell %s/%s carries no error message", cell.Bench, cell.Config)
		}
	}
	if got := counter(c, "fleet/degraded_cells"); got != 2 {
		t.Errorf("fleet/degraded_cells = %d, want 2", got)
	}

	// A single compile against the dead fleet is a structured 503 with a
	// Retry-After, not a hang or a raw error.
	cresp, cbody := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compile: status %d body %s", cresp.StatusCode, cbody)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(cbody, &eb); err != nil || eb.Kind != "degraded" {
		t.Errorf("compile failure kind %q (err %v), want degraded", eb.Kind, err)
	}
	if cresp.Header.Get("Retry-After") == "" {
		t.Error("degraded compile carries no Retry-After")
	}
}

// stubWorker is a scripted worker for protocol-level tests: it answers
// /readyz 200 and runs fn for /v1/compile.
func stubWorker(t *testing.T, fn http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		fn(w, r)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// dropExchange aborts an exchange at the transport level: hijack the
// connection and close it without a response.
func dropExchange(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

// TestCoordinatorHonorsRetryAfter: a worker shedding load with 429 +
// Retry-After gets its window respected — the coordinator backs off the
// worker fleet-wide instead of hammering it from the retry loop.
func TestCoordinatorHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Kind: "shed", Error: "queue full", RetryAfterS: 1})
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"bench":"tomcatv","config":"BS","metrics":null}`))
	})
	c := newCoordinator(t, nil, addr)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("request finished in %s; the 1s Retry-After window was not honored", elapsed)
	}
	if got := counter(c, "fleet/retry_after_honored"); got != 1 {
		t.Errorf("fleet/retry_after_honored = %d, want 1", got)
	}
	if got := counter(c, "fleet/backoff_waits"); got == 0 {
		t.Error("fleet/backoff_waits = 0; the retry loop should have waited out the window")
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("worker saw %d compile requests, want 2 (no hammering inside the window)", got)
	}
}

// TestFrozenWorkerCellsFailOver: the benchmark's owner freezes with its
// connections open. The cell in flight on it leaves as soon as a health
// probe goes unanswered, long before the request deadline, and is served
// by the replica; the abandoned attempt counts as the owner's transport
// failure.
func TestFrozenWorkerCellsFailOver(t *testing.T) {
	addrA, fzA := startFreezableWorker(t)
	addrB, fzB := startFreezableWorker(t)
	c := newCoordinator(t, nil, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	owner, replica, fz := addrA, addrB, fzA
	if c.OwnerAddr("tomcatv") == addrB {
		owner, replica, fz = addrB, addrA, fzB
	}
	fz.frozen.Store(true)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS", DeadlineMS: 10000})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after %s, body %s", resp.StatusCode, elapsed, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != replica {
		t.Errorf("X-Served-By = %q, want the replica %q (owner %s is frozen)", got, replica, owner)
	}
	if elapsed >= 3*time.Second {
		t.Errorf("request took %s; the cell should leave the frozen owner once a probe goes unanswered", elapsed)
	}
	if got := counter(c, "fleet/worker_errors"); got < 1 {
		t.Errorf("fleet/worker_errors = %d, want >= 1 (the abandoned attempt)", got)
	}
}

// TestDrainingWorkerKeepsInflightCell: an answered probe never ends
// in-flight work. The owner answers /readyz 503 while its compile runs,
// so it is marked down and takes no new cells, but the cell already on
// it completes there and no transport failure is counted.
func TestDrainingWorkerKeepsInflightCell(t *testing.T) {
	var draining atomic.Value // host:port of the worker that drains mid-cell
	draining.Store("")
	var busy atomic.Bool
	var refusals atomic.Int64
	refused := make(chan struct{})
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Host == draining.Load().(string) {
				switch {
				case r.URL.Path == "/readyz" && busy.Load():
					if refusals.Add(1) == 3 {
						close(refused)
					}
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				case r.URL.Path == "/v1/compile":
					busy.Store(true)
					defer busy.Store(false)
					// Hold the cell until three probes have been refused.
					select {
					case <-refused:
					case <-time.After(5 * time.Second):
					}
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	addrA := startWorkerBehind(t, wrap)
	addrB := startWorkerBehind(t, wrap)
	c := newCoordinator(t, nil, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	owner := c.OwnerAddr("tomcatv")
	draining.Store(owner)

	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != owner {
		t.Errorf("X-Served-By = %q, want the draining owner %q", got, owner)
	}
	if got := refusals.Load(); got < 3 {
		t.Errorf("the owner refused %d probes while the cell ran, want >= 3", got)
	}
	if got := counter(c, "fleet/worker_down"); got < 1 {
		t.Errorf("fleet/worker_down = %d; the refused probes never marked the owner down", got)
	}
	if got := counter(c, "fleet/worker_errors"); got != 0 {
		t.Errorf("fleet/worker_errors = %d, want 0", got)
	}
}

// TestFaultInjectedLinkFailureFailsOver drives the failover path through
// the seeded fault-injection hook — the same machinery the daemon's
// -faultspec flag installs: a plan severs every dispatch on the
// coordinator→owner link, the compile fails over to the replica, and
// once the plan is lifted the owner is probed back into rotation with no
// lasting damage.
func TestFaultInjectedLinkFailureFailsOver(t *testing.T) {
	addrA, _ := startWorker(t)
	addrB, _ := startWorker(t)
	c := newCoordinator(t, func(cfg *Config) {
		cfg.RetryBackoff = 2 * time.Millisecond
	}, addrA, addrB)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	owner := c.OwnerAddr("tomcatv")
	replica := addrA
	if owner == addrA {
		replica = addrB
	}
	plan, err := faultinject.ParseSpec(42, "fleet/dispatch|"+owner+"=error")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != replica {
		t.Errorf("X-Served-By = %q, want the replica %q (the owner link is severed)", got, replica)
	}
	if got := counter(c, "fleet/worker_errors"); got == 0 {
		t.Error("fleet/worker_errors = 0; the injected link failure was not attributed")
	}
	if got := counter(c, "fleet/failovers"); got == 0 {
		t.Error("fleet/failovers = 0; dispatch never failed over to the replica")
	}

	// Lift the plan: the probe loop revives the owner and cache affinity
	// routes its benchmark back to it.
	faultinject.Disable()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: "tomcatv", Config: "BS"})
		served := resp.Header.Get("X-Served-By")
		if resp.StatusCode == http.StatusOK && served == owner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never served again after the fault was lifted (last served by %q)", served)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerBreakerOpensAndRecovers: a worker that answers health
// probes but cannot complete a compile exchange (the sick-but-alive
// case) accumulates transport failures until its worker-level breaker
// opens; once the worker heals, the cooldown's half-open probe closes
// the breaker and dispatch resumes.
func TestWorkerBreakerOpensAndRecovers(t *testing.T) {
	var healed atomic.Bool
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if !healed.Load() {
			dropExchange(w)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"bench":"tomcatv","config":"BS","metrics":null}`))
	})
	c := newCoordinator(t, func(cfg *Config) {
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 200 * time.Millisecond
		cfg.RetryBackoff = 2 * time.Millisecond
		cfg.ProbeInterval = 10 * time.Millisecond
	}, addr)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Hammer compiles until the breaker trips. The probe loop keeps
	// flipping the worker back to healthy (readyz answers 200), so the
	// retry loop keeps reaching the worker and the failures accumulate.
	deadline := time.Now().Add(10 * time.Second)
	for counter(c, "fleet/worker_breaker_opens") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker breaker never opened under repeated transport failures")
		}
		resp, _ := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: "tomcatv", Config: "BS"})
		if resp.StatusCode == http.StatusOK {
			t.Fatal("compile succeeded against a worker that drops every exchange")
		}
		time.Sleep(15 * time.Millisecond)
	}
	if got := counter(c, "fleet/worker_errors"); got == 0 {
		t.Error("fleet/worker_errors = 0 after transport failures")
	}

	// Heal the worker. After the cooldown the next dispatch is admitted
	// as the half-open probe, succeeds and closes the breaker.
	healed.Store(true)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the worker healed")
		}
		resp, body := postJSON(t, ts.URL+"/v1/compile",
			server.CompileRequest{Bench: "tomcatv", Config: "BS"})
		if resp.StatusCode == http.StatusOK {
			if len(body) == 0 {
				t.Error("healed compile returned an empty body")
			}
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := c.members.get(addr).brk.State(); got != server.BreakerClosed {
		t.Errorf("worker breaker state %s after recovery, want closed",
			server.BreakerStateName(got))
	}
}

// TestRetryBudgetFollowsRoster: a cell's attempt budget is read from the
// current roster, so a fleet grown by joins can reach every replica. The
// coordinator starts with one worker (a budget of 3) and three more
// join; the first three workers in tomcatv's replica order drop every
// compile exchange, and the fourth must still serve the cell.
func TestRetryBudgetFollowsRoster(t *testing.T) {
	drops := map[string]*atomic.Bool{}
	var addrs []string
	for i := 0; i < 4; i++ {
		drop := new(atomic.Bool)
		addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path != "/v1/compile":
				http.NotFound(w, r)
			case drop.Load():
				dropExchange(w)
			default:
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write([]byte(`{"bench":"tomcatv","config":"BS","metrics":null}`))
			}
		})
		drops[addr] = drop
		addrs = append(addrs, addr)
	}
	c := newCoordinator(t, nil, addrs[0])
	for _, addr := range addrs[1:] {
		if joined, healthy, err := c.Join(addr); !joined || !healthy || err != nil {
			t.Fatalf("Join(%s) = joined %v, healthy %v, err %v", addr, joined, healthy, err)
		}
	}
	order := c.members.replicaWorkers("tomcatv")
	for _, w := range order[:3] {
		drops[w.addr].Store(true)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/compile",
		server.CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d; the budget did not grow with the joins (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Served-By"); got != order[3].addr {
		t.Errorf("X-Served-By = %q, want the fourth replica %q", got, order[3].addr)
	}
	if got := counter(c, "fleet/worker_errors"); got != 3 {
		t.Errorf("fleet/worker_errors = %d, want 3 (one per dropping replica)", got)
	}
}
