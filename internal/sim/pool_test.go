package sim

import (
	"sync"
	"testing"

	"repro/internal/ir"
)

// TestPoolReuseBitIdentical cycles one machine through functions whose
// memory images differ in size — large, tiny, then larger again — and
// checks each pooled run against a fresh machine.
func TestPoolReuseBitIdentical(t *testing.T) {
	const n, small = 1024, 8
	fSum, fSmall, fBr := buildSum(n), buildSum(small), buildBranchy(n)

	baseline := func(fn *ir.Func, init func(*Machine)) *runOutcome {
		m, err := New(fn)
		if err != nil {
			t.Fatal(err)
		}
		if init != nil {
			init(m)
		}
		return observe(t, m)
	}
	wantSum := baseline(fSum, initRamp(0, n))
	wantSmall := baseline(fSmall, initRamp(0, small))
	wantBr := baseline(fBr, initLCG(0, n))

	p := NewPool(nil)
	var hits, misses int
	for round := 0; round < 3; round++ {
		for _, k := range []struct {
			fn   *ir.Func
			init func(*Machine)
			want *runOutcome
		}{
			{fSum, initRamp(0, n), wantSum},
			{fSmall, initRamp(0, small), wantSmall},
			{fBr, initLCG(0, n), wantBr},
		} {
			m, reused, err := p.Get(k.fn)
			if err != nil {
				t.Fatal(err)
			}
			if reused {
				hits++
			} else {
				misses++
			}
			k.init(m)
			diffOutcomes(t, observe(t, m), k.want)
			p.Put(m)
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one machine serves every run)", misses)
	}
	if hits != 8 {
		t.Errorf("hits = %d, want 8", hits)
	}
}

func TestPoolCountersGlobal(t *testing.T) {
	h0, m0 := PoolCounters()
	p := NewPool(nil)
	f := buildSum(64)
	m, reused, err := p.Get(f)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first Get reported reuse")
	}
	p.Put(m)
	m, reused, err = p.Get(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("second Get did not reuse")
	}
	p.Put(m)
	h1, m1 := PoolCounters()
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Errorf("global counters moved by (%d,%d), want (1,1)", h1-h0, m1-m0)
	}
}

func TestPoolPutNilAndCap(t *testing.T) {
	p := NewPool(nil)
	p.Put(nil) // must not panic
	f := buildSum(16)
	ms := make([]*Machine, maxPoolFree+4)
	for i := range ms {
		m, _, err := p.Get(f)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for _, m := range ms {
		p.Put(m)
	}
	if got := p.idle(); got != maxPoolFree {
		t.Errorf("pool holds %d machines, want cap %d", got, maxPoolFree)
	}
}

// TestPoolConcurrent shares one pool among goroutines that alternate two
// functions of different image sizes, so machines keep moving between
// them.
func TestPoolConcurrent(t *testing.T) {
	sizes := [2]int64{256, 8}
	var fns [2]*ir.Func
	var wants [2]*Metrics
	for k, n := range sizes {
		fns[k] = buildSum(n)
		m0, err := New(fns[k])
		if err != nil {
			t.Fatal(err)
		}
		initRamp(0, n)(m0)
		if wants[k], err = m0.Run(nil); err != nil {
			t.Fatal(err)
		}
	}

	p := NewPool(nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := i % 2
				m, _, err := p.Get(fns[k])
				if err != nil {
					errs <- err
					return
				}
				initRamp(0, sizes[k])(m)
				met, err := m.Run(nil)
				if err != nil {
					errs <- err
					return
				}
				if *met != *wants[k] {
					t.Errorf("pooled run of %d-element sum diverged: %v vs %v", sizes[k], met, wants[k])
				}
				p.Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInvalidateForcesReinit covers the profiler's hazard: a function
// mutated in place after a run must not be replayed from the stale
// predecoded stream when the same pointer comes back through Reset.
func TestInvalidateForcesReinit(t *testing.T) {
	const n = 512
	f := buildSum(n)
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	initRamp(0, n)(m)
	if _, err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	m.Invalidate()
	m.Reset(f)
	if m.fn != f || len(m.dec) == 0 {
		t.Fatal("Reset after Invalidate did not re-initialise")
	}
	initRamp(0, n)(m)
	got := observe(t, m)
	fresh, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	initRamp(0, n)(fresh)
	diffOutcomes(t, got, observe(t, fresh))
}
