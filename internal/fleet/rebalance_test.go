package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// syntheticKeys builds nKeys deterministic benchmark-like keys from a
// seed, so the rebalance properties are checked over a far larger key
// population than the 17 real benchmarks.
func syntheticKeys(seed int64, nKeys int) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d-%08x", i, rng.Uint32())
	}
	return keys
}

// TestRingJoinMovesBoundedKeys is the bounded-cell-movement property for
// joins: admitting one worker to an n-worker fleet may remap at most
// (1/(n+1) + ε) of 10k synthetic keys, every remapped key must land on
// the newcomer, and every other key keeps its owner.
func TestRingJoinMovesBoundedKeys(t *testing.T) {
	const nKeys = 10_000
	const eps = 0.05
	keys := syntheticKeys(1, nKeys)
	for _, n := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := membersOf()
			for i := 0; i < n; i++ {
				m.add(&worker{addr: fmt.Sprintf("w%d:80", i)})
			}
			before := make(map[string]string, nKeys)
			for _, k := range keys {
				before[k] = m.owner(k)
			}
			newcomer := fmt.Sprintf("w%d:80", n)
			m.add(&worker{addr: newcomer})
			moved := 0
			for _, k := range keys {
				now := m.owner(k)
				if now == before[k] {
					continue
				}
				moved++
				if now != newcomer {
					t.Fatalf("key %q moved %s -> %s; only the newcomer may take keys on a join",
						k, before[k], now)
				}
			}
			bound := int(float64(nKeys) * (1.0/float64(n+1) + eps))
			if moved > bound {
				t.Errorf("join moved %d/%d keys, want <= %d (1/%d + %.0f%%)",
					moved, nKeys, bound, n+1, eps*100)
			}
			if moved == 0 {
				t.Error("join moved no keys; the newcomer would receive no cells")
			}
		})
	}
}

// TestRingLeaveMovesBoundedKeys is the same property for leaves: only
// the departed worker's keys remap (~1/n of them), and they scatter to
// survivors; everything else keeps its owner.
func TestRingLeaveMovesBoundedKeys(t *testing.T) {
	const nKeys = 10_000
	const eps = 0.05
	keys := syntheticKeys(2, nKeys)
	for _, n := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := membersOf()
			for i := 0; i < n; i++ {
				m.add(&worker{addr: fmt.Sprintf("w%d:80", i)})
			}
			before := make(map[string]string, nKeys)
			for _, k := range keys {
				before[k] = m.owner(k)
			}
			departed := fmt.Sprintf("w%d:80", n/2)
			m.remove(departed)
			moved := 0
			for _, k := range keys {
				now := m.owner(k)
				if before[k] == departed {
					moved++
					if now == departed {
						t.Fatalf("key %q still owned by departed worker", k)
					}
					continue
				}
				if now != before[k] {
					t.Fatalf("key %q moved %s -> %s though its owner stayed in the fleet",
						k, before[k], now)
				}
			}
			bound := int(float64(nKeys) * (1.0/float64(n) + eps))
			if moved > bound {
				t.Errorf("leave moved %d/%d keys, want <= %d (1/%d + %.0f%%)",
					moved, nKeys, bound, n, eps*100)
			}
		})
	}
}

// TestRingJoinThenLeaveRoundTrips: a join followed by the same worker
// leaving restores every key to its original owner — membership churn
// that nets to nothing must cost nothing permanently.
func TestRingJoinThenLeaveRoundTrips(t *testing.T) {
	const nKeys = 10_000
	keys := syntheticKeys(3, nKeys)
	m := membersOf()
	for i := 0; i < 5; i++ {
		m.add(&worker{addr: fmt.Sprintf("w%d:80", i)})
	}
	before := make(map[string]string, nKeys)
	for _, k := range keys {
		before[k] = m.owner(k)
	}
	m.add(&worker{addr: "transient:80"})
	m.remove("transient:80")
	for _, k := range keys {
		if got := m.owner(k); got != before[k] {
			t.Fatalf("key %q owner %s -> %s after a net-zero join+leave", k, before[k], got)
		}
	}
}
