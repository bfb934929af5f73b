// Command fleetdrill is the sustained churn drill for bschedd's
// coordinator mode: it boots an in-process fleet (real bschedd worker
// servers on ephemeral ports behind a real coordinator), drives
// concurrent /v1/grid load at it, and — on a seeded, reproducible
// timeline — kills workers abruptly and joins replacements while the
// load runs. The point is to measure what elasticity costs under
// sustained churn, not just whether one failover works:
//
//	fleetdrill -workers 3 -grids 400 -concurrency 16 -drillseed 7 \
//	           -churn-ops 6 -out drill.json
//
// The JSON report records grid tail latency (p50/p95/p99/max/mean), the
// degraded-row rate, how many recomputes the shared cache tier avoided,
// the executed churn timeline, journal integrity after the churn, and
// the coordinator's full counter registry. The churn timeline is a pure
// function of -drillseed (logical worker slots, not runtime addresses),
// so replaying the same seed replays the same kill/join schedule — the
// property CI's churn-smoke job asserts by diffing two runs.
//
// The drill ends with a deterministic phase regardless of seed: it
// kills the current owner of the first benchmark and issues one more
// grid, which must be served from the shared cache tier (the cells were
// promoted during the load phase) — proving recompute-avoidance under a
// worst-case death, then drains the coordinator cleanly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/workload"
)

// churnOp is one planned membership event. AtMS and the action/slot
// pair are derived only from the drill seed, never from runtime state,
// so the plan is reproducible across runs and machines.
type churnOp struct {
	AtMS   int64  `json:"at_ms"`
	Action string `json:"action"` // "kill" or "join"
	Slot   string `json:"slot"`   // logical worker name: w0, w1, ...
}

// churnPlan derives the seeded kill/join timeline. It never plans the
// fleet below two live workers — the drill measures churn, not total
// fleet loss (the dead-fleet path has its own chaos test).
func churnPlan(seed int64, ops, initialWorkers int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	alive := make(map[string]bool, initialWorkers)
	for i := 0; i < initialWorkers; i++ {
		alive[fmt.Sprintf("w%d", i)] = true
	}
	nextSlot := initialWorkers
	plan := make([]churnOp, 0, ops)
	at := int64(0)
	for i := 0; i < ops; i++ {
		at += 150 + rng.Int63n(350)
		if len(alive) > 2 && rng.Intn(2) == 0 {
			slots := make([]string, 0, len(alive))
			for s := range alive {
				slots = append(slots, s)
			}
			sort.Strings(slots)
			s := slots[rng.Intn(len(slots))]
			delete(alive, s)
			plan = append(plan, churnOp{AtMS: at, Action: "kill", Slot: s})
			continue
		}
		s := fmt.Sprintf("w%d", nextSlot)
		nextSlot++
		alive[s] = true
		plan = append(plan, churnOp{AtMS: at, Action: "join", Slot: s})
	}
	return plan
}

// drillWorker is one in-process bschedd worker: a real server.Server on
// a real TCP port, killable abruptly (http.Server.Close severs every
// connection, indistinguishable from SIGKILL to the coordinator).
type drillWorker struct {
	slot string
	addr string
	srv  *server.Server
	hsrv *http.Server
}

func startDrillWorker(slot string) (*drillWorker, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := server.NewHTTPServer(srv.Handler(), time.Second)
	go func() { _ = hsrv.Serve(ln) }()
	return &drillWorker{slot: slot, addr: ln.Addr().String(), srv: srv, hsrv: hsrv}, nil
}

func (w *drillWorker) kill() { _ = w.hsrv.Close() }

// latencySummary is the grid-latency distribution in the report.
type latencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func summarize(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return latencySummary{
		P50:  pick(0.50),
		P95:  pick(0.95),
		P99:  pick(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// journalReport is the post-churn journal integrity check: every line
// the coordinator journaled must parse back (the reader tolerates only
// a torn final line, and a clean drain leaves none).
type journalReport struct {
	RawLines int  `json:"raw_lines"`
	Parsed   int  `json:"parsed"`
	Intact   bool `json:"intact"`
}

// report is the drill's JSON output.
type report struct {
	Seed             int64            `json:"seed"`
	InitialWorkers   int              `json:"initial_workers"`
	FinalWorkers     int              `json:"final_workers"`
	Grids            int              `json:"grids"`
	Concurrency      int              `json:"concurrency"`
	CellsTotal       int              `json:"cells_total"`
	CellsOK          int              `json:"cells_ok"`
	CellsDegraded    int              `json:"cells_degraded"`
	DegradedRowRate  float64          `json:"degraded_row_rate"`
	LatencyMS        latencySummary   `json:"latency_ms"`
	RecomputeAvoided int64            `json:"recompute_avoided"`
	CacheHits        int64            `json:"cache_hits"`
	CacheLocalHits   int64            `json:"cache_local_hits"`
	CachePeerHits    int64            `json:"cache_peer_hits"`
	Joins            int64            `json:"joins"`
	Evictions        int64            `json:"evictions"`
	Failovers        int64            `json:"failovers"`
	ChurnTimeline    []churnOp        `json:"churn_timeline"`
	Journal          journalReport    `json:"journal"`
	CleanDrain       bool             `json:"clean_drain"`
	Counters         map[string]int64 `json:"counters"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("fleetdrill", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "initial fleet size (3+ makes churn meaningful)")
	grids := fs.Int("grids", 400, "total /v1/grid requests to issue")
	concurrency := fs.Int("concurrency", 16, "concurrent grid requests in flight")
	seed := fs.Int64("drillseed", 1, "seed for the churn timeline (same seed = same kill/join schedule)")
	churnOps := fs.Int("churn-ops", 6, "number of seeded kill/join events")
	benchCount := fs.Int("benches", 4, "benchmarks per grid request (rotating through the workload)")
	configsFlag := fs.String("configs", "BS,TS,BS+LU4,BS+TrS", "comma-separated configuration names per grid")
	evictAfter := fs.Int("evict-after", 5, "coordinator: evict workers after this many failed probes")
	probeInterval := fs.Duration("probe-interval", 50*time.Millisecond, "coordinator probe cadence")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *workers < 3 {
		fmt.Fprintln(os.Stderr, "fleetdrill: -workers must be >= 3 (churn needs survivors)")
		return 1
	}

	var configs []string
	for _, c := range strings.Split(*configsFlag, ",") {
		if c = strings.TrimSpace(c); c != "" {
			configs = append(configs, c)
		}
	}

	// Boot the initial fleet.
	fleetMu := sync.Mutex{}
	bySlot := map[string]*drillWorker{}
	var initialAddrs []string
	for i := 0; i < *workers; i++ {
		w, err := startDrillWorker(fmt.Sprintf("w%d", i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetdrill:", err)
			return 1
		}
		bySlot[w.slot] = w
		initialAddrs = append(initialAddrs, w.addr)
	}
	defer func() {
		fleetMu.Lock()
		defer fleetMu.Unlock()
		for _, w := range bySlot {
			w.kill()
		}
	}()

	jnl, err := os.CreateTemp("", "fleetdrill-journal-*.jsonl")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	jnlPath := jnl.Name()
	jnl.Close()
	defer os.Remove(jnlPath)

	coord, err := fleet.New(fleet.Config{
		Workers:         initialAddrs,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    500 * time.Millisecond,
		RetryBackoff:    10 * time.Millisecond,
		EvictAfterFails: *evictAfter,
		Journal:         jnlPath,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	chsrv := server.NewHTTPServer(coord.Handler(), time.Second)
	go func() { _ = chsrv.Serve(cln) }()
	coordURL := "http://" + cln.Addr().String()
	defer chsrv.Close()

	benches := workload.All()
	benchNames := make([]string, len(benches))
	for i, b := range benches {
		benchNames[i] = b.Name
	}

	// The churn executor fires the seeded plan on its wall-clock offsets
	// while the load runs. Joins go through the coordinator's public
	// HTTP endpoint — the same path an operator's tooling uses.
	plan := churnPlan(*seed, *churnOps, *workers)
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		start := time.Now()
		for _, op := range plan {
			if d := time.Duration(op.AtMS)*time.Millisecond - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			switch op.Action {
			case "kill":
				fleetMu.Lock()
				w := bySlot[op.Slot]
				fleetMu.Unlock()
				if w != nil {
					w.kill()
					fmt.Fprintf(os.Stderr, "fleetdrill: t=%dms kill %s (%s)\n", op.AtMS, op.Slot, w.addr)
				}
			case "join":
				w, err := startDrillWorker(op.Slot)
				if err != nil {
					fmt.Fprintf(os.Stderr, "fleetdrill: join %s: %v\n", op.Slot, err)
					continue
				}
				fleetMu.Lock()
				bySlot[op.Slot] = w
				fleetMu.Unlock()
				if err := postJoin(coordURL, w.addr); err != nil {
					fmt.Fprintf(os.Stderr, "fleetdrill: join %s: %v\n", op.Slot, err)
					continue
				}
				fmt.Fprintf(os.Stderr, "fleetdrill: t=%dms join %s (%s)\n", op.AtMS, op.Slot, w.addr)
			}
		}
	}()

	// The load phase: *grids requests over *concurrency lanes, each grid
	// a rotating window of benchmarks so every worker's shard sees
	// sustained traffic and the shared tier warms across the keyspace.
	var (
		mu        sync.Mutex
		latencies []float64
		cellsOK   int
		cellsBad  int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				names := make([]string, 0, *benchCount)
				for j := 0; j < *benchCount; j++ {
					names = append(names, benchNames[(g+j)%len(benchNames)])
				}
				ok, bad, ms := runGrid(coordURL, names, configs)
				mu.Lock()
				latencies = append(latencies, ms)
				cellsOK += ok
				cellsBad += bad
				mu.Unlock()
			}
		}()
	}
	for g := 0; g < *grids; g++ {
		work <- g
	}
	close(work)
	wg.Wait()
	<-churnDone

	// Deterministic final phase: kill the current owner of the first
	// benchmark and grid it again. Its cells were promoted into the
	// shared tier during the load phase, so the failover must avoid
	// recomputation — the property churn-smoke asserts.
	ownerAddr := coord.OwnerAddr(benchNames[0])
	fleetMu.Lock()
	for _, w := range bySlot {
		if w.addr == ownerAddr {
			w.kill()
			fmt.Fprintf(os.Stderr, "fleetdrill: final phase: killed owner %s (%s)\n", w.slot, w.addr)
		}
	}
	fleetMu.Unlock()
	ok, bad, ms := runGrid(coordURL, benchNames[:1], configs)
	mu.Lock()
	latencies = append(latencies, ms)
	cellsOK += ok
	cellsBad += bad
	mu.Unlock()

	// Clean drain, then check the journal survived the churn intact.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := coord.Drain(drainCtx)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill: drain:", drainErr)
	}

	raw, err := os.ReadFile(jnlPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	rawLines := strings.Count(string(raw), "\n")
	records, err := exp.ReadJSONLines[fleet.CellRecord](jnlPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill: journal:", err)
		return 1
	}

	snap := coord.Stats.Snapshot()
	total := cellsOK + cellsBad
	rep := report{
		Seed:             *seed,
		InitialWorkers:   *workers,
		FinalWorkers:     len(coord.WorkerAddrs()),
		Grids:            *grids + 1,
		Concurrency:      *concurrency,
		CellsTotal:       total,
		CellsOK:          cellsOK,
		CellsDegraded:    cellsBad,
		LatencyMS:        summarize(latencies),
		RecomputeAvoided: snap.Counters["fleet/recompute_avoided"],
		CacheHits:        snap.Counters["fleet/cache_hits"],
		CacheLocalHits:   snap.Counters["fleet/cache_local_hits"],
		CachePeerHits:    snap.Counters["fleet/cache_peer_hits"],
		Joins:            snap.Counters["fleet/joins"],
		Evictions:        snap.Counters["fleet/evictions"],
		Failovers:        snap.Counters["fleet/failovers"],
		ChurnTimeline:    plan,
		Journal: journalReport{
			RawLines: rawLines,
			Parsed:   len(records),
			Intact:   rawLines == len(records),
		},
		CleanDrain: drainErr == nil,
		Counters:   snap.Counters,
	}
	if total > 0 {
		rep.DegradedRowRate = float64(cellsBad) / float64(total)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fleetdrill:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"fleetdrill: %d grids, %d cells (%d degraded, rate %.4f), p50=%.0fms p99=%.0fms, recompute_avoided=%d, drain=%v\n",
		rep.Grids, total, cellsBad, rep.DegradedRowRate,
		rep.LatencyMS.P50, rep.LatencyMS.P99, rep.RecomputeAvoided, rep.CleanDrain)
	if !rep.CleanDrain || !rep.Journal.Intact {
		return 1
	}
	return 0
}

// postJoin admits addr into the fleet over the coordinator's public API.
func postJoin(coordURL, addr string) error {
	body, _ := json.Marshal(map[string]string{"addr": addr})
	resp, err := http.Post(coordURL+"/v1/fleet/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("join %s: status %d", addr, resp.StatusCode)
	}
	return nil
}

// runGrid issues one buffered grid request and tallies its cells.
func runGrid(coordURL string, benches, configs []string) (ok, degraded int, ms float64) {
	reqBody, _ := json.Marshal(server.GridRequest{Benches: benches, Configs: configs})
	start := time.Now()
	resp, err := http.Post(coordURL+"/v1/grid", "application/json", strings.NewReader(string(reqBody)))
	ms = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		return 0, len(benches) * len(configs), ms
	}
	defer resp.Body.Close()
	var grid server.GridResponse
	if err := json.NewDecoder(resp.Body).Decode(&grid); err != nil || resp.StatusCode != http.StatusOK {
		return 0, len(benches) * len(configs), ms
	}
	for _, cell := range grid.Cells {
		if cell.Error == "" && cell.Metrics != nil {
			ok++
		} else {
			degraded++
		}
	}
	return ok, degraded, ms
}
