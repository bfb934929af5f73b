package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// TestPrefixSharingPaperConfigs compiles tomcatv's sixteen paper
// configurations concurrently through one PrefixMemo and one
// ProfileCache, so policy siblings share their prefix's build and trace
// siblings their profile while others wait on them. Every compilation's
// code must equal a compile's with neither, and no two compilations may
// share a block, an instruction or a memory reference: each schedules
// and allocates its own copy.
func TestPrefixSharingPaperConfigs(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	p, d := b.Build()
	cfgs := exp.Cells()
	shared := core.Options{Verify: true, Prefixes: &core.PrefixMemo{}, Profiles: &core.ProfileCache{}}
	got := make([]*core.Compiled, len(cfgs))
	errs := make(chan error, len(cfgs))
	for i, cfg := range cfgs {
		go func() {
			var err error
			got[i], err = core.Compile(p, cfg, d, shared)
			errs <- err
		}()
	}
	for range cfgs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	owner := map[any]string{}
	claim := func(ptr any, cfg string) {
		if prev, ok := owner[ptr]; ok {
			t.Fatalf("%s and %s share code", prev, cfg)
		}
		owner[ptr] = cfg
	}
	for i, cfg := range cfgs {
		fresh, err := core.Compile(p, cfg, d, core.Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if c := got[i]; !reflect.DeepEqual(c.Fn, fresh.Fn) || !core.SameExecution(c, fresh) {
			t.Errorf("%s: code differs from a fresh compile's", cfg.Name())
		}
		for _, blk := range got[i].Fn.Blocks {
			claim(blk, cfg.Name())
			for _, in := range blk.Instrs {
				claim(in, cfg.Name())
				if in.Mem != nil {
					claim(in.Mem, cfg.Name())
				}
			}
		}
	}
}
