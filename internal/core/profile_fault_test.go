package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFaultPlanFiresOnProfileRun keeps the profile run inside fault
// plans: a sim/run error rule keyed on tomcatv must fail a trace
// configuration's compile in the profile phase, with the injected error
// recognisable, while a rule keyed on another benchmark leaves it alone.
func TestFaultPlanFiresOnProfileRun(t *testing.T) {
	b, err := workload.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	p, d := b.Build()
	cfg := core.Config{Policy: sched.Balanced, Trace: true}
	for _, opt := range []core.Options{{}, {Pool: sim.NewPool(nil)}} {
		faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
			Site: "sim/run", Key: "tomcatv", Mode: faultinject.ModeError,
		}))
		_, err := core.Compile(p, cfg, d, opt)
		faultinject.Disable()
		if err == nil || !faultinject.IsInjected(err) || !strings.Contains(err.Error(), "profiling tomcatv") {
			t.Fatalf("pool=%v: want the injected error from the profile phase, got %v", opt.Pool != nil, err)
		}

		faultinject.Enable(faultinject.NewPlan(1, faultinject.Rule{
			Site: "sim/run", Key: "TRFD", Mode: faultinject.ModeError,
		}))
		_, err = core.Compile(p, cfg, d, opt)
		faultinject.Disable()
		if err != nil {
			t.Fatalf("pool=%v: a rule keyed on TRFD failed tomcatv: %v", opt.Pool != nil, err)
		}
	}
}
