package fleet

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"

	"repro/internal/server"
)

// membership is the coordinator's dynamic view of the fleet: the worker
// set and its epoch, under one lock. Placement is derived from the set
// on every lookup (replicaWorkers), so there is no routing structure to
// keep in step with it. The coordinator (not membership) owns each
// worker's probe-loop lifecycle; membership only tracks who is in the
// fleet.
type membership struct {
	mu      sync.RWMutex
	workers map[string]*worker
	epoch   uint64 // bumps on every add/remove; exported as a gauge
}

func newMembership() *membership {
	return &membership{workers: make(map[string]*worker)}
}

// add admits w; it reports false (leaving the fleet unchanged) when the
// address is already a member.
func (m *membership) add(w *worker) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[w.addr]; ok {
		return false
	}
	m.workers[w.addr] = w
	m.epoch++
	return true
}

// remove drops addr from the fleet and returns its worker, or nil when
// addr is not a member. The returned worker object stays valid for any
// dispatch already holding it — in-flight cells drain on it naturally —
// but no new dispatch will resolve to it.
func (m *membership) remove(addr string) *worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[addr]
	if !ok {
		return nil
	}
	delete(m.workers, addr)
	m.epoch++
	return w
}

// get returns the member at addr, or nil.
func (m *membership) get(addr string) *worker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.workers[addr]
}

// all returns the members sorted by address (a stable order for status
// pages and metrics).
func (m *membership) all() []*worker {
	m.mu.RLock()
	out := make([]*worker, 0, len(m.workers))
	for _, w := range m.workers {
		out = append(out, w)
	}
	m.mu.RUnlock()
	slices.SortFunc(out, func(a, b *worker) int { return strings.Compare(a.addr, b.addr) })
	return out
}

// size reports the member count.
func (m *membership) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.workers)
}

// generation reports the membership epoch (bumped on every change).
func (m *membership) generation() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// replicaWorkers returns every member in key's preference order by
// rendezvous (highest-random-weight) hashing, Thaler and Ravishankar's
// scheme: each member scores mix64(fnv64(addr) ^ mix64(fnv64(key))), the
// highest score owns key and the rest follow in descending score, ties
// broken by address. Three properties follow from the member set alone:
//
//   - Affinity: cells key by benchmark name, so all configurations of a
//     benchmark share an owner while it is healthy, and its front-end and
//     result caches stay hot.
//   - Stable failover order: the order is a pure function of (key, member
//     set), so retries always know "the next worker".
//   - Bounded movement: a join moves only the keys the newcomer now
//     outscores everyone on (~1/(n+1) of them), and a leave only the
//     departed worker's keys; every other key keeps its owner
//     (property-tested in rebalance_test.go).
//
// Resolving per dispatch attempt (not per cell) is what lets a mid-grid
// join start taking cells within one probe interval and a mid-grid
// leave stop receiving them immediately.
func (m *membership) replicaWorkers(key string) []*worker {
	out := m.all() // address order, which a stable sort keeps among ties
	kh := mix64(fnv64(key))
	slices.SortStableFunc(out, func(a, b *worker) int {
		return cmp.Compare(mix64(fnv64(b.addr)^kh), mix64(fnv64(a.addr)^kh))
	})
	return out
}

// owner returns key's owner, the first of its replica order, or "" in
// an empty fleet.
func (m *membership) owner(key string) string {
	if order := m.replicaWorkers(key); len(order) > 0 {
		return order[0].addr
	}
	return ""
}

// mix64 is splitmix64's finalizer. Scrambling the XOR of an address
// hash and a key hash makes the members' scores for a key independent
// draws: unmixed, two members' order would hinge on one bit of the key
// hash (the highest bit where their address hashes differ).
func mix64(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// fnv64 hashes s with FNV-1a.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// --- Coordinator-level membership operations ---------------------------

// OwnerAddr reports which worker currently owns key's cells (the first
// of its replica order), or "" with an empty fleet. Exported for
// operational tooling (the churn drill targets an owner deliberately)
// and tests.
func (c *Coordinator) OwnerAddr(key string) string {
	return c.members.owner(key)
}

// WorkerAddrs returns the current member addresses, sorted.
func (c *Coordinator) WorkerAddrs() []string {
	ws := c.members.all()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.addr
	}
	return out
}

// validateWorkerAddr rejects join targets that are not host:port.
func validateWorkerAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("fleet: worker address %q: %v", addr, err)
	}
	if host == "" || port == "" {
		return fmt.Errorf("fleet: worker address %q: want host:port", addr)
	}
	return nil
}

// Join admits a worker into the fleet: validate the address, probe it
// once synchronously (so a live worker starts receiving cells
// immediately — well within one probe interval — and a dead one joins
// unhealthy without poisoning dispatch), add it to the member set, and
// start its health-probe loop. Joining an existing member is
// idempotent: it reports joined=false and the member's current health.
func (c *Coordinator) Join(addr string) (joined, healthy bool, err error) {
	if err := validateWorkerAddr(addr); err != nil {
		return false, false, err
	}
	if c.Draining() {
		return false, false, fmt.Errorf("fleet: coordinator is draining")
	}
	if w := c.members.get(addr); w != nil {
		return false, w.healthy.Load(), nil
	}
	w := c.newWorker(addr)
	_, ready := c.probeOnce(w)
	w.healthy.Store(ready)
	if !c.members.add(w) {
		// Lost a join race; the winner's worker is the member.
		if cur := c.members.get(addr); cur != nil {
			return false, cur.healthy.Load(), nil
		}
		return false, false, nil
	}
	c.startProbe(w)
	c.Stats.Inc("fleet/joins")
	c.Log.Info("worker joined", "worker", addr, "healthy", w.healthy.Load(),
		"workers", c.members.size(), "epoch", c.members.generation())
	return true, w.healthy.Load(), nil
}

// Leave removes a worker from the fleet: it leaves the member set (new
// cells stop routing to it at once), its probe loop is stopped, and any
// cell already in flight on it drains naturally — the dispatch holds
// the worker object and completes its HTTP exchange, so a voluntary
// leave never costs a failed or degraded row. It reports whether addr
// was a member.
func (c *Coordinator) Leave(addr string) bool {
	w := c.members.remove(addr)
	if w == nil {
		return false
	}
	w.stopProbe()
	c.Stats.Inc("fleet/leaves")
	c.Log.Info("worker left", "worker", addr,
		"workers", c.members.size(), "epoch", c.members.generation())
	return true
}

// evict removes a worker whose probes have failed EvictAfterFails times
// in a row. The last member is never auto-evicted: a fully-dead fleet
// keeps its roster so a revived worker is probed back into rotation
// (matching the fixed-fleet behaviour this coordinator grew out of).
// Called from the worker's own probe loop; reports whether the worker
// was evicted (the loop then exits).
func (c *Coordinator) evict(w *worker) bool {
	if c.members.size() <= 1 {
		return false
	}
	if c.members.remove(w.addr) == nil {
		return false // a concurrent Leave got there first
	}
	w.stopProbe()
	c.Stats.Inc("fleet/evictions")
	c.Log.Warn("worker evicted after sustained probe failure",
		"worker", w.addr, "probe_fails", w.probeFails.Load(),
		"workers", c.members.size(), "epoch", c.members.generation())
	return true
}

// newWorker builds the coordinator's view of one worker daemon.
func (c *Coordinator) newWorker(addr string) *worker {
	w := &worker{
		addr: addr,
		base: "http://" + addr,
		brk:  server.NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
		sem:  make(chan struct{}, inflight),
		stop: make(chan struct{}),
	}
	w.live, w.liveLost = context.WithCancel(context.Background())
	return w
}

// startProbe launches w's health-probe loop. The loop exits when the
// worker leaves or is evicted (w.stop), or when the coordinator drains
// (probeCtx).
func (c *Coordinator) startProbe(w *worker) {
	c.probeWG.Add(1)
	go c.probeLoop(w)
}
