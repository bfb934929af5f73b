package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/hlir"
	"repro/internal/obs"
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

// observedCompile compiles with a fresh counter registry and returns the
// result and its snapshot.
func observedCompile(p *hlir.Program, cfg Config, d *Data, opt Options) (*Compiled, *obs.Snapshot, error) {
	st := obs.NewStats()
	opt.Obs = &obs.Obs{Stats: st}
	c, err := Compile(p, cfg, d, opt)
	return c, st.Snapshot(), err
}

// startWaiters compiles p under every shared-prefix configuration, each
// on its own goroutine, through pm, whose flight for the prefix the
// caller holds. The channel yields each waiter's outcome, checked
// against a compile that lowers afresh.
func startWaiters(t *testing.T, pm *PrefixMemo, p *hlir.Program, d *Data) <-chan error {
	t.Helper()
	type fresh struct {
		c    *Compiled
		snap *obs.Snapshot
	}
	want := make([]fresh, len(sharedPrefixCfgs))
	for i, cfg := range sharedPrefixCfgs {
		c, snap, err := observedCompile(p, cfg, d, Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fresh{c, snap}
	}
	out := make(chan error, len(sharedPrefixCfgs))
	for i, cfg := range sharedPrefixCfgs {
		go func() {
			c, snap, err := observedCompile(p, cfg, d, Options{Verify: true, Prefixes: pm})
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
		t.Fatalf("a compilation finished while its prefix was still building: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// TestPrefixSharingBuildPanics holds a prefix's flight while every
// configuration of the prefix waits on it, then panics in the build:
// the flight must still complete, leave no entry, and every waiter must
// build or share a fresh prefix and match a compile that lowers afresh.
func TestPrefixSharingBuildPanics(t *testing.T) {
	p, d := smallProgram()
	pm := &PrefixMemo{}
	key := prefixKey(sharedPrefixCfgs[0])
	fl, build := pm.flight(key)
	if !build {
		t.Fatal("an empty memo handed out an existing flight")
	}
	waiters := startWaiters(t, pm, p, d)
	func() {
		defer func() {
			if v := recover(); v != "boom" {
				t.Errorf("recovered %v, want the build's panic", v)
			}
		}()
		pm.build(key, fl, func(*obs.Stats) (*prefix, error) { panic("boom") })
	}()
	for range sharedPrefixCfgs {
		if err := <-waiters; err != nil {
			t.Error(err)
		}
	}
	if fl.pre != nil {
		t.Error("the panicked flight carries a prefix")
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
	fl, build := pm.flight(key)
	if !build {
		t.Fatal("an empty memo handed out an existing flight")
	}
	waiters := startWaiters(t, pm, p, d)

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

	builder := &compilation{p: p, cfg: sharedPrefixCfgs[0], opt: Options{Ctx: dead, Prefixes: pm}, out: &Compiled{}}
	if err := pm.build(key, fl, builder.lowerPrefix); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled build: %v, want context.Canceled", err)
	}
	for range sharedPrefixCfgs {
		if err := <-waiters; err != nil {
			t.Error(err)
		}
	}
	pm.mu.Lock()
	again := pm.m[key]
	pm.mu.Unlock()
	if again == nil || again == fl || again.pre == nil {
		t.Error("after the canceled build, the memo does not hold a waiter's successful one")
	}
}
