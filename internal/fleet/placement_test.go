package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

// membersOf builds the member set the coordinator keeps: one add per
// worker address, in the order given.
func membersOf(addrs ...string) *membership {
	m := newMembership()
	for _, a := range addrs {
		m.add(&worker{addr: a})
	}
	return m
}

// replicaAddrs is key's replica order as addresses.
func replicaAddrs(m *membership, key string) []string {
	var out []string
	for _, w := range m.replicaWorkers(key) {
		out = append(out, w.addr)
	}
	return out
}

func TestRingReplicasDeterministic(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3"}
	m1 := membersOf(addrs...)
	m2 := membersOf(addrs...)
	for _, key := range []string{"tomcatv", "TRFD", "ora", "swm256", "DYFESM"} {
		a, b := replicaAddrs(m1, key), replicaAddrs(m2, key)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("replicas(%q) differ across identical fleets: %v vs %v", key, a, b)
		}
		if !reflect.DeepEqual(a, replicaAddrs(m1, key)) {
			t.Errorf("replicas(%q) not stable across calls", key)
		}
	}
}

// TestRingBuildOrderIrrelevant: placement is a pure function of the
// member set — the order workers joined in cannot change any owner.
func TestRingBuildOrderIrrelevant(t *testing.T) {
	m1 := membersOf("a:1", "b:2", "c:3")
	m2 := membersOf("c:3", "a:1", "b:2")
	for _, key := range []string{"tomcatv", "TRFD", "ora", "swm256", "DYFESM", "alvinn"} {
		if !reflect.DeepEqual(replicaAddrs(m1, key), replicaAddrs(m2, key)) {
			t.Errorf("replicas(%q) depend on join order: %v vs %v",
				key, replicaAddrs(m1, key), replicaAddrs(m2, key))
		}
	}
}

func TestRingReplicasCoverAllWorkersOnce(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3", "d:4"}
	order := replicaAddrs(membersOf(addrs...), "tomcatv")
	if len(order) != len(addrs) {
		t.Fatalf("replicas returned %d workers, want %d", len(order), len(addrs))
	}
	seen := map[string]bool{}
	valid := map[string]bool{}
	for _, a := range addrs {
		valid[a] = true
	}
	for _, addr := range order {
		if !valid[addr] {
			t.Fatalf("replica %q is not a fleet member", addr)
		}
		if seen[addr] {
			t.Fatalf("replica order %v repeats worker %s", order, addr)
		}
		seen[addr] = true
	}
}

// TestRingAffinity: all cells of one benchmark share an owner (the cell
// key hashes the benchmark name only), and different benchmarks spread
// across the fleet rather than piling onto one worker.
func TestRingAffinity(t *testing.T) {
	m := membersOf("a:1", "b:2", "c:3")
	benches := []string{
		"ARC2D", "BDNA", "DYFESM", "MDG", "QCD2", "TRFD",
		"alvinn", "dnasa7", "doduc", "ear", "hydro2d", "mdljdp2",
		"ora", "spice2g6", "su2cor", "swm256", "tomcatv",
	}
	owners := map[string]int{}
	for _, b := range benches {
		owners[m.owner(b)]++
	}
	if len(owners) < 2 {
		t.Errorf("all %d benchmarks hashed to one worker: %v", len(benches), owners)
	}
}

// TestRingBalanceTwoMembers: with two members, each owns a fair share
// of the keys for every address pair, not just on average. Loopback
// pairs differing only in the port are where poorly mixed hashes show:
// one member could own almost no keys.
func TestRingBalanceTwoMembers(t *testing.T) {
	const nKeys = 10_000
	keys := syntheticKeys(4, nKeys)
	for i := 0; i < 200; i++ {
		a := fmt.Sprintf("127.0.0.1:%d", 30000+2*i)
		b := fmt.Sprintf("127.0.0.1:%d", 30000+2*i+1)
		m := membersOf(a, b)
		owned := 0
		for _, k := range keys {
			if m.owner(k) == a {
				owned++
			}
		}
		if share := float64(owned) / nKeys; share < 0.30 || share > 0.70 {
			t.Errorf("%s owns %.3f of %d keys against %s, want within [0.30, 0.70]", a, share, nKeys, b)
		}
	}
}

// TestRingStableUnderRemoval: dropping one worker only moves the keys it
// owned; every other key keeps its owner. This is the property that
// keeps surviving workers' caches hot through a fleet death.
func TestRingStableUnderRemoval(t *testing.T) {
	m := membersOf("a:1", "b:2", "c:3")
	keys := []string{"tomcatv", "TRFD", "ora", "swm256", "DYFESM", "alvinn", "doduc", "ear"}
	was := map[string]string{}
	for _, key := range keys {
		was[key] = m.owner(key)
	}
	m.remove("c:3")
	for _, key := range keys {
		now := m.owner(key)
		if was[key] != "c:3" && was[key] != now {
			t.Errorf("key %q moved %s -> %s though its owner survived", key, was[key], now)
		}
		if now == "c:3" {
			t.Errorf("key %q still owned by removed worker", key)
		}
	}
}

// TestRingEmptyAndSingle: an empty fleet resolves nothing; a
// one-worker fleet owns everything.
func TestRingEmptyAndSingle(t *testing.T) {
	m := membersOf()
	if got := m.owner("tomcatv"); got != "" {
		t.Errorf("empty fleet owner = %q, want \"\"", got)
	}
	if got := replicaAddrs(m, "tomcatv"); len(got) != 0 {
		t.Errorf("empty fleet replicas = %v, want none", got)
	}
	m.add(&worker{addr: "a:1"})
	if got := m.owner("tomcatv"); got != "a:1" {
		t.Errorf("single-worker fleet owner = %q, want a:1", got)
	}
	m.remove("a:1")
	if got := m.owner("tomcatv"); got != "" {
		t.Errorf("owner after removing the last worker = %q, want \"\"", got)
	}
}
