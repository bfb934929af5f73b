package core

import (
	"slices"
	"testing"

	"repro/internal/hlir"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/verify"
)

// donorRun compiles p under cfg and opt and returns the compilation with
// its timed run's edge counts.
func donorRun(t *testing.T, p *hlir.Program, cfg Config, d *Data, opt Options) (*Compiled, []int64) {
	t.Helper()
	c, err := Compile(p, cfg, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2*len(c.Fn.Blocks))
	if _, _, _, err := ExecutePooled(c, d, 1, nil, counts); err != nil {
		t.Fatal(err)
	}
	return c, counts
}

// entry returns the flight pc holds for key, or nil.
func entry(pc *ProfileCache, key Config) *flight[profile.Edges] {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.m[key]
}

// TestOffer offers the timed run of sharedPrefixCfgs[0], the
// block-scheduled sibling of traceSiblingCfgs, to an empty cache.
// Verified counts are stored, and a later trace compilation of the
// prefix takes them as a cache hit and matches a compile with no cache.
// Counts for another CFG, or a miscounted edge under Verify (a
// *verify.Error), store nothing.
func TestOffer(t *testing.T) {
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
		stored    bool
		verifyErr bool
	}{
		{"verified counts", func(c []int64) []int64 { return c }, true, true, false},
		{"unverified counts", func(c []int64) []int64 { return c }, false, true, false},
		{"counts for another CFG", func(c []int64) []int64 { return c[:len(c)-2] }, true, false, false},
		{"a miscounted edge under Verify", miscount, true, false, true},
	}
	key := prefixKey(sharedPrefixCfgs[0])
	for _, tc := range cases {
		pc, pm := &ProfileCache{}, &PrefixMemo{}
		c, counts := donorRun(t, p, sharedPrefixCfgs[0], d, Options{Verify: true, Prefixes: pm})
		offered := tc.counts(counts)
		err := pc.Offer(c, offered, d, Options{Verify: tc.verify})
		if verify.IsVerification(err) != tc.verifyErr || err != nil && !tc.verifyErr {
			t.Errorf("%s: Offer = %v, want a verification error: %v", tc.name, err, tc.verifyErr)
		}
		fl := entry(pc, key)
		if (fl != nil) != tc.stored || tc.stored && (!fl.ok || !slices.Equal(fl.v, offered)) {
			t.Errorf("%s: cache entry %+v, want stored=%v", tc.name, fl, tc.stored)
			continue
		}
		if !tc.stored {
			continue
		}
		cfg := traceSiblingCfgs[0]
		got, snap, err := observedCompile(p, cfg, d, Options{Verify: true, Profiles: pc, Prefixes: pm})
		if err != nil {
			t.Fatal(err)
		}
		if hits := snap.Counters["core/profile_cache_hits"]; hits != 1 {
			t.Errorf("%s: %s counted %d profile cache hits, want 1", tc.name, cfg.Name(), hits)
		}
		fresh, err := Compile(p, cfg, d, Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if !SameExecution(got, fresh) {
			t.Errorf("%s: %s code differs from a compile with no cache", tc.name, cfg.Name())
		}
	}
}

// TestOfferLeavesTakenKeysAlone checks the offers that change nothing:
// one while a walk holds the key's flight, one for a key that already
// has a profile, and one from a trace-scheduled compilation.
func TestOfferLeavesTakenKeysAlone(t *testing.T) {
	p, d := smallProgram()
	key := prefixKey(sharedPrefixCfgs[0])
	pm := &PrefixMemo{}
	c, counts := donorRun(t, p, sharedPrefixCfgs[0], d, Options{Prefixes: pm})

	pc := &ProfileCache{}
	walk, _ := pc.flight(key)
	if err := pc.Offer(c, counts, d, Options{Verify: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-walk.done:
		t.Error("an offer completed the flight a walk holds")
	default:
	}
	if entry(pc, key) != walk {
		t.Error("an offer replaced the flight a walk holds")
	}
	pc.build(key, walk, func() (profile.Edges, error) { return counts, nil })
	if err := pc.Offer(c, make([]int64, len(counts)), d, Options{}); err != nil || entry(pc, key) != walk {
		t.Errorf("an offer for a key with a profile returned %v and replaced the profile: %v", err, entry(pc, key) != walk)
	}

	// Trace scheduling keeps this program's CFG at BS+TrS, so only the
	// configuration stops the offer.
	pc = &ProfileCache{}
	traced := Config{Policy: sched.Balanced, Trace: true}
	tc, tcounts := donorRun(t, p, traced, d, Options{Prefixes: pm})
	if !sameCFG(tc.Fn, tc.prefix) {
		t.Fatalf("%s changed the prefix code's CFG", traced.Name())
	}
	if err := pc.Offer(tc, tcounts, d, Options{}); err != nil || entry(pc, prefixKey(traced)) != nil {
		t.Errorf("an offer from %s returned %v and stored counts: %v", traced.Name(), err, entry(pc, prefixKey(traced)) != nil)
	}
}
