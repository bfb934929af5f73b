package fleet

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/server"
)

// membership is the coordinator's dynamic view of the fleet: the worker
// set and the consistent-hash ring over it, mutated together under one
// lock so a dispatch never resolves a ring owner to a worker that has
// already left. The coordinator (not membership) owns each worker's
// probe-loop lifecycle; membership only tracks who is in the fleet.
//
// Reads vastly outnumber writes — every dispatch attempt resolves its
// replica order here — so the lock is an RWMutex and the write path
// (join/leave/evict) mutates the ring incrementally: a join splices one
// worker's vnode points in, a leave filters them out, and every key not
// owned by the changed worker keeps its owner (bounded cell movement,
// property-tested in rebalance_test.go).
type membership struct {
	mu      sync.RWMutex
	ring    *ring
	workers map[string]*worker
	epoch   uint64 // bumps on every add/remove; exported as a gauge
}

func newMembership() *membership {
	return &membership{
		ring:    newRing(),
		workers: make(map[string]*worker),
	}
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
	m.ring.add(w.addr, vnodes)
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
	m.ring.remove(addr)
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
	sort.Slice(out, func(a, b int) bool { return out[a].addr < out[b].addr })
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

// replicaWorkers resolves key's ring replica order to live worker
// objects in one lock acquisition — the snapshot a dispatch attempt
// works from. Re-resolving per attempt (not per cell) is what lets a
// mid-grid join start taking cells within one probe interval and a
// mid-grid leave stop receiving them immediately.
func (m *membership) replicaWorkers(key string) []*worker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	addrs := m.ring.replicas(key)
	out := make([]*worker, 0, len(addrs))
	for _, a := range addrs {
		if w, ok := m.workers[a]; ok {
			out = append(out, w)
		}
	}
	return out
}

// ownerAddr returns the ring owner for key, or "".
func (m *membership) ownerAddr(key string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring.owner(key)
}

// --- Coordinator-level membership operations ---------------------------

// OwnerAddr reports which worker currently owns key's cells (the ring
// owner), or "" with an empty fleet. Exported for operational tooling
// (the churn drill targets an owner deliberately) and tests.
func (c *Coordinator) OwnerAddr(key string) string {
	return c.members.ownerAddr(key)
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
// unhealthy without poisoning dispatch), splice it into the ring, and
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

// Leave removes a worker from the fleet: it is taken off the ring (new
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
