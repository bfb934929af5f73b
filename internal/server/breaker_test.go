package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerTripsAtThreshold walks the closed → open edge: failures
// below the threshold keep admitting, the threshold-th consecutive
// failure opens the breaker, and a success anywhere before it resets the
// consecutive count.
func TestBreakerTripsAtThreshold(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(3, time.Minute)

	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		if b.Failure(now) {
			t.Fatalf("failure %d opened the breaker below threshold", i+1)
		}
	}
	// A success resets the consecutive-failure count.
	if ok, _ := b.Allow(now); !ok {
		t.Fatal("closed breaker rejected after 2 failures")
	}
	b.Success()
	for i := 0; i < 2; i++ {
		b.Allow(now)
		if b.Failure(now) {
			t.Fatalf("failure %d after reset opened the breaker", i+1)
		}
	}
	b.Allow(now)
	if !b.Failure(now) {
		t.Fatal("threshold-th consecutive failure did not open the breaker")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after trip = %s, want open", BreakerStateName(got))
	}
}

// TestBreakerCooldownAndProbe exercises open → half-open → closed: an
// open breaker rejects with a shrinking Retry-After until the cooldown
// elapses, then admits exactly one probe whose success closes it.
func TestBreakerCooldownAndProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(1, 10*time.Second)
	b.Allow(now)
	b.Failure(now)

	if ok, retry := b.Allow(now.Add(3 * time.Second)); ok || retry != 7*time.Second {
		t.Fatalf("open breaker: allow = (%v, %s), want (false, 7s)", ok, retry)
	}

	// Cooldown over: the first caller is the probe, the second is not.
	probeAt := now.Add(11 * time.Second)
	if ok, _ := b.Allow(probeAt); !ok {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", BreakerStateName(got))
	}
	if ok, retry := b.Allow(probeAt); ok {
		t.Fatal("second request admitted while a probe is in flight")
	} else if retry <= 0 {
		t.Fatal("non-probe rejection carried no Retry-After")
	}

	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %s, want closed", BreakerStateName(got))
	}
	if ok, _ := b.Allow(probeAt); !ok {
		t.Fatal("closed breaker rejected after successful probe")
	}
}

// TestBreakerProbeFailureReopens exercises half-open → open: a failed
// probe reopens the breaker for a fresh cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(1, 10*time.Second)
	b.Allow(now)
	b.Failure(now)

	probeAt := now.Add(11 * time.Second)
	b.Allow(probeAt) // probe admitted
	if !b.Failure(probeAt) {
		t.Fatal("probe failure did not report reopening")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after probe failure = %s, want open", BreakerStateName(got))
	}
	// The cooldown restarted at the probe failure.
	if ok, _ := b.Allow(probeAt.Add(9 * time.Second)); ok {
		t.Fatal("reopened breaker admitted before its fresh cooldown elapsed")
	}
	if ok, _ := b.Allow(probeAt.Add(11 * time.Second)); !ok {
		t.Fatal("reopened breaker did not half-open after its fresh cooldown")
	}
}

// TestBreakerCancelProbe: a probe whose request died of its own context
// releases the probe slot without deciding the breaker's fate — the next
// caller becomes the new probe.
func TestBreakerCancelProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(1, time.Second)
	b.Allow(now)
	b.Failure(now)

	probeAt := now.Add(2 * time.Second)
	b.Allow(probeAt)
	if ok, _ := b.Allow(probeAt); ok {
		t.Fatal("two probes in flight")
	}
	b.CancelProbe()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after canceled probe = %s, want half-open", BreakerStateName(got))
	}
	if ok, _ := b.Allow(probeAt); !ok {
		t.Fatal("probe slot not released after cancelProbe")
	}
}

// TestBreakerHalfOpenHammer races a crowd through the open → half-open
// transition: after the cooldown, many goroutines call Allow at once and
// exactly one may be admitted as the probe. Run under -race this also
// proves the transition takes no lock-free shortcuts. The cycle repeats
// — probe success, then a fresh trip — to hammer the transition from
// both half-open entry paths (cooldown expiry and probe hand-back).
func TestBreakerHalfOpenHammer(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(1, 10*time.Second)
	const crowd = 64

	for round := 0; round < 50; round++ {
		b.Allow(now)
		b.Failure(now) // trip
		probeAt := now.Add(11 * time.Second)

		var admitted atomic.Int64
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < crowd; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				if ok, retry := b.Allow(probeAt); ok {
					admitted.Add(1)
				} else if retry <= 0 {
					t.Error("rejected caller got no Retry-After")
				}
			}()
		}
		start.Done()
		done.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("round %d: %d probes admitted through half-open, want exactly 1", round, got)
		}
		if got := b.State(); got != BreakerHalfOpen {
			t.Fatalf("round %d: state %s after hammer, want half-open", round, BreakerStateName(got))
		}
		b.Success() // close it for the next round
		now = probeAt
	}
}

// TestBreakersSaturated: readiness flips only when every known breaker
// is open.
func TestBreakersSaturated(t *testing.T) {
	now := time.Unix(1000, 0)
	bs := newBreakers(1, time.Minute)
	if bs.saturated() {
		t.Fatal("empty breaker set reported saturated")
	}
	a, b := bs.get("a"), bs.get("b")
	a.Allow(now)
	a.Failure(now)
	if bs.saturated() {
		t.Fatal("saturated with one of two breakers open")
	}
	b.Allow(now)
	b.Failure(now)
	if !bs.saturated() {
		t.Fatal("not saturated with every breaker open")
	}
	if st := bs.states(); st["a"] != BreakerOpen || st["b"] != BreakerOpen {
		t.Fatalf("states = %v, want both open", st)
	}
	a.Success()
	if bs.saturated() {
		t.Fatal("still saturated after a breaker closed")
	}
}
