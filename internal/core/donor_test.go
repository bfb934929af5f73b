package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/hlir"
	"repro/internal/verify"
)

// donorRun compiles p's sharedPrefixCfgs[0], the block-scheduled sibling
// of traceSiblingCfgs, under opt and returns it with its timed run's edge
// counts.
func donorRun(t *testing.T, p *hlir.Program, d *Data, opt Options) (*Compiled, []int64) {
	t.Helper()
	c, err := Compile(p, sharedPrefixCfgs[0], d, opt)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2*len(c.Fn.Blocks))
	if _, _, _, err := ExecutePooled(c, d, 1, nil, counts); err != nil {
		t.Fatal(err)
	}
	return c, counts
}

// TestDonorsPickFirstBlockScheduledSibling checks which configurations
// Donors names: a prefix's first configuration, only when it is not
// trace-scheduled and a trace configuration shares the prefix, and only
// while the prefix's flight is free.
func TestDonorsPickFirstBlockScheduledSibling(t *testing.T) {
	trace, block := traceSiblingCfgs[0], sharedPrefixCfgs[0]
	cases := []struct {
		cfgs []Config
		want []bool
	}{
		{sharedPrefixCfgs, []bool{true, false, false, false}},
		{[]Config{trace, block}, []bool{false, false}},
		{[]Config{block, sharedPrefixCfgs[1]}, []bool{false, false}},
		{append(slices.Clone(traceSiblingCfgs[:1]), Config{Policy: block.Policy}, Config{Policy: trace.Policy, Trace: true}),
			[]bool{false, true, false}},
	}
	for _, tc := range cases {
		dons := (&ProfileCache{}).Donors(tc.cfgs)
		for i, don := range dons {
			if (don != nil) != tc.want[i] {
				t.Errorf("Donors(%v)[%d] = %v, want a donation: %v", tc.cfgs, i, don, tc.want[i])
			}
		}
	}
	pc := &ProfileCache{}
	pc.flight(prefixKey(block))
	if dons := pc.Donors(sharedPrefixCfgs); dons[0] != nil {
		t.Error("Donors reserved a flight another caller holds")
	}
}

// TestDonation reserves a profile flight, starts the prefix's trace
// compilations, which wait on it, and then donates a timed run's counts.
// Verified counts complete the flight and every waiter takes them;
// counts for another CFG, or a miscounted edge under Verify (a
// *verify.Error), fail it and the waiters walk the prefix code. Every
// waiter's code must match a compile with no cache, and a Fail after the
// donation changes nothing.
func TestDonation(t *testing.T) {
	p, d := smallProgram()
	miscount := func(c []int64) []int64 {
		c = slices.Clone(c)
		for i := range c {
			if c[i] != 0 {
				c[i]++
				break
			}
		}
		return c
	}
	cases := []struct {
		name      string
		counts    func([]int64) []int64
		verify    bool
		donated   bool
		verifyErr bool
	}{
		{"verified counts", func(c []int64) []int64 { return c }, true, true, false},
		{"unverified counts", func(c []int64) []int64 { return c }, false, true, false},
		{"counts for another CFG", func(c []int64) []int64 { return c[:len(c)-2] }, true, false, false},
		{"a miscounted edge under Verify", miscount, true, false, true},
	}
	for _, tc := range cases {
		pc, pm := &ProfileCache{}, &PrefixMemo{}
		don := pc.Donors(sharedPrefixCfgs)[0]
		waiters := startWaiters(t, p, d, traceSiblingCfgs, Options{Verify: true, Profiles: pc, Prefixes: pm})
		c, counts := donorRun(t, p, d, Options{Verify: true, Prefixes: pm})
		err := don.Donate(c, tc.counts(counts), d, Options{Verify: tc.verify})
		if verify.IsVerification(err) != tc.verifyErr || err != nil && !tc.verifyErr {
			t.Errorf("%s: Donate = %v, want a verification error: %v", tc.name, err, tc.verifyErr)
		}
		don.Fail()
		awaitWaiters(t, waiters, len(traceSiblingCfgs))
		if don.fl.ok != tc.donated || tc.donated && !slices.Equal(don.fl.v, counts) {
			t.Errorf("%s: flight ok=%v with %v, want donated=%v", tc.name, don.fl.ok, don.fl.v, tc.donated)
		}
		if !tc.donated && !replaced(&pc.memo, prefixKey(sharedPrefixCfgs[0]), don.fl) {
			t.Errorf("%s: the failed flight was not replaced by a waiter's walk", tc.name)
		}
	}
}

// TestDonationCompletesOnce races Donate against Fail from several
// goroutines while the trace compilations wait: exactly one completes
// the flight, whichever it is, and every waiter finishes.
func TestDonationCompletesOnce(t *testing.T) {
	p, d := smallProgram()
	pc, pm := &ProfileCache{}, &PrefixMemo{}
	don := pc.Donors(sharedPrefixCfgs)[0]
	waiters := startWaiters(t, p, d, traceSiblingCfgs, Options{Profiles: pc, Prefixes: pm})
	c, counts := donorRun(t, p, d, Options{Prefixes: pm})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				don.Fail()
			} else if err := don.Donate(c, counts, d, Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	awaitWaiters(t, waiters, len(traceSiblingCfgs))
}
