package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hlir"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sched"
)

// sharedPrefixCfgs all lower to the same code: they differ only in
// policy and trace scheduling.
var sharedPrefixCfgs = []Config{
	{Policy: sched.Balanced, Locality: true, Unroll: 4},
	{Policy: sched.Traditional, Locality: true, Unroll: 4},
	{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 4},
	{Policy: sched.Traditional, Locality: true, Trace: true, Unroll: 4},
}

// traceSiblingCfgs share one transform prefix and so one profile: they
// differ only in policy.
var traceSiblingCfgs = []Config{
	{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 4},
	{Policy: sched.Traditional, Locality: true, Trace: true, Unroll: 4},
	{Policy: sched.BalancedFixed, Locality: true, Trace: true, Unroll: 4},
	{Policy: sched.Auto, Locality: true, Trace: true, Unroll: 4},
}

// waitBound is how long a test waits for a compilation that must finish:
// past it, the compilation is taken to be blocked for good.
const waitBound = 30 * time.Second

// observedCompile compiles with a fresh counter registry and returns the
// result and its snapshot.
func observedCompile(p *hlir.Program, cfg Config, d *Data, opt Options) (*Compiled, *obs.Snapshot, error) {
	st := obs.NewStats()
	opt.Obs = &obs.Obs{Stats: st}
	c, err := Compile(p, cfg, d, opt)
	return c, st.Snapshot(), err
}

// startWaiters compiles p under each of cfgs, each on its own goroutine,
// with opt, whose memo or cache flight for the configurations' prefix
// the caller holds. The channel yields each waiter's outcome, checked
// against a compile with no memo or cache; the profile cache's hit
// counter is left out of the comparison.
func startWaiters(t *testing.T, p *hlir.Program, d *Data, cfgs []Config, opt Options) <-chan error {
	t.Helper()
	type fresh struct {
		c    *Compiled
		snap *obs.Snapshot
	}
	want := make([]fresh, len(cfgs))
	for i, cfg := range cfgs {
		c, snap, err := observedCompile(p, cfg, d, Options{Verify: opt.Verify})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fresh{c, snap}
	}
	out := make(chan error, len(cfgs))
	for i, cfg := range cfgs {
		go func() {
			c, snap, err := observedCompile(p, cfg, d, opt)
			if snap != nil {
				delete(snap.Counters, "core/profile_cache_hits")
			}
			switch {
			case err != nil:
			case !SameExecution(c, want[i].c):
				err = errors.New(cfg.Name() + ": code differs from a fresh compile's")
			case !reflect.DeepEqual(snap, want[i].snap):
				err = errors.New(cfg.Name() + ": counters differ from a fresh compile's")
			}
			out <- err
		}()
	}
	// Every waiter blocks on the held flight.
	select {
	case err := <-out:
		t.Fatalf("a compilation finished while its flight was still held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// awaitWaiters reports the outcome of each of n waiters, failing the
// test when one is still blocked after waitBound.
func awaitWaiters(t *testing.T, waiters <-chan error, n int) {
	t.Helper()
	timeout := time.After(waitBound)
	for i := 0; i < n; i++ {
		select {
		case err := <-waiters:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatalf("%d of %d waiters still blocked after %v", n-i, n, waitBound)
		}
	}
}

// panicBuild runs a build that panics for fl, checking that the panic
// reaches the builder.
func panicBuild[V any](t *testing.T, m *memo[V], key Config, fl *flight[V]) {
	t.Helper()
	defer func() {
		if v := recover(); v != "boom" {
			t.Errorf("recovered %v, want the build's panic", v)
		}
	}()
	m.build(key, fl, func() (V, error) { panic("boom") })
}

// replaced reports whether m's entry for key is a successful flight
// other than fl: a waiter rebuilt what fl failed to.
func replaced[V any](m *memo[V], key Config, fl *flight[V]) bool {
	m.mu.Lock()
	again := m.m[key]
	m.mu.Unlock()
	return again != nil && again != fl && again.ok
}

// TestPrefixSharingBuildPanics holds a prefix's flight while every
// configuration of the prefix waits on it, then panics in the build:
// the flight must still complete, leave no entry, and every waiter must
// build or share a fresh prefix and match a compile that lowers afresh.
func TestPrefixSharingBuildPanics(t *testing.T) {
	p, d := smallProgram()
	pm := &PrefixMemo{}
	key := prefixKey(sharedPrefixCfgs[0])
	fl, first := pm.flight(key)
	if !first {
		t.Fatal("an empty memo handed out an existing flight")
	}
	waiters := startWaiters(t, p, d, sharedPrefixCfgs, Options{Verify: true, Prefixes: pm})
	panicBuild(t, &pm.memo, key, fl)
	awaitWaiters(t, waiters, len(sharedPrefixCfgs))
	if fl.ok {
		t.Error("the panicked flight carries a prefix")
	}
	if !replaced(&pm.memo, key, fl) {
		t.Error("after the panicked build, the memo does not hold a waiter's successful one")
	}
}

// TestPrefixSharingBuildCanceled cancels a build whose flight every
// configuration of the prefix waits on, and one waiter's own deadline
// expires while it waits: that waiter must fail with its own deadline at
// once, the canceled build must not be cached, and the other waiters
// must retry and match a compile that lowers afresh. A compilation
// whose context is dead before the lookup registers nothing.
func TestPrefixSharingBuildCanceled(t *testing.T) {
	p, d := smallProgram()
	pm := &PrefixMemo{}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(p, sharedPrefixCfgs[0], d, Options{Ctx: dead, Prefixes: pm}); !errors.Is(err, context.Canceled) {
		t.Fatalf("compile under a dead context: %v, want context.Canceled", err)
	}
	if len(pm.m) != 0 {
		t.Fatalf("a compilation canceled before its lookup registered %d flights", len(pm.m))
	}

	key := prefixKey(sharedPrefixCfgs[0])
	fl, first := pm.flight(key)
	if !first {
		t.Fatal("an empty memo handed out an existing flight")
	}
	waiters := startWaiters(t, p, d, sharedPrefixCfgs, Options{Verify: true, Prefixes: pm})

	short, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	start := time.Now()
	_, err := Compile(p, sharedPrefixCfgs[1], d, Options{Ctx: short, Prefixes: pm})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter with an expiring deadline: %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("waiter with a 10ms deadline returned after %v", waited)
	}

	builder := &compilation{p: p, cfg: sharedPrefixCfgs[0], opt: Options{Ctx: dead, Prefixes: pm}}
	if _, err := pm.build(key, fl, builder.buildPrefix); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled build: %v, want context.Canceled", err)
	}
	awaitWaiters(t, waiters, len(sharedPrefixCfgs))
	if !replaced(&pm.memo, key, fl) {
		t.Error("after the canceled build, the memo does not hold a waiter's successful one")
	}
}

// TestProfileSharingCollectPanics holds a profile's flight while every
// trace sibling of its prefix waits on it, then panics in the
// collection: the flight must still complete, nothing may be cached from
// it, and every waiter must collect or share a fresh profile and match a
// compile with no cache.
func TestProfileSharingCollectPanics(t *testing.T) {
	p, d := smallProgram()
	pc := &ProfileCache{}
	key := prefixKey(traceSiblingCfgs[0])
	fl, first := pc.flight(key)
	if !first {
		t.Fatal("an empty cache handed out an existing flight")
	}
	waiters := startWaiters(t, p, d, traceSiblingCfgs, Options{Verify: true, Profiles: pc})
	panicBuild(t, &pc.memo, key, fl)
	awaitWaiters(t, waiters, len(traceSiblingCfgs))
	if fl.ok || fl.v != nil {
		t.Error("the panicked flight carries a profile")
	}
	if !replaced(&pc.memo, key, fl) {
		t.Error("after the panicked collection, the cache does not hold a waiter's successful one")
	}
}

// TestProfileSharingWaiterDeadline holds a profile's flight while a
// trace compilation with a short deadline waits on it: the waiter must
// fail with its own deadline, in the profile lookup, at once. A sibling
// without a deadline then waits on the same flight, which fails; it
// must collect its own profile.
func TestProfileSharingWaiterDeadline(t *testing.T) {
	p, d := smallProgram()
	pc := &ProfileCache{}
	key := prefixKey(traceSiblingCfgs[0])
	fl, first := pc.flight(key)
	if !first {
		t.Fatal("an empty cache handed out an existing flight")
	}
	waiters := startWaiters(t, p, d, traceSiblingCfgs[1:2], Options{Profiles: pc})

	short, stop := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer stop()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Compile(p, traceSiblingCfgs[0], d, Options{Ctx: short, Profiles: pc})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "profiling") {
			t.Errorf("waiter with an expiring deadline: %v, want context.DeadlineExceeded from the profile lookup", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("waiter with a 300ms deadline returned after %v", waited)
		}
	case <-time.After(waitBound):
		t.Fatalf("waiter with a 300ms deadline still blocked after %v", waitBound)
	}

	pc.build(key, fl, func() (profile.Edges, error) { return nil, errors.New("collection failed") })
	awaitWaiters(t, waiters, 1)
}
