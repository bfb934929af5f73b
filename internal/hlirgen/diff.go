package hlirgen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Diff is the differential oracle the fuzz harness and corpus tests run
// on generated programs: compile under each configuration with pipeline
// invariant verification on, simulate on both the predecoded fast core
// and the instruction-walking reference stepper, and demand that every
// checksum equals the HLIR interpreter's and that the two cores agree on
// every metric. A nil error means the whole pipeline — compiler,
// schedulers, both simulator cores — agrees about the program.

// DiffConfigs is the default configuration pair: plain list (traditional)
// and balanced scheduling, the paper's two protagonists.
func DiffConfigs() []core.Config {
	return []core.Config{
		{Policy: sched.Traditional},
		{Policy: sched.Balanced},
	}
}

// DiffConfigsWide adds the transformed variants (unroll + locality) used
// by the heavier harness runs.
func DiffConfigsWide() []core.Config {
	return append(DiffConfigs(),
		core.Config{Policy: sched.Traditional, Unroll: 4},
		core.Config{Policy: sched.Balanced, Unroll: 4},
		core.Config{Policy: sched.Balanced, Unroll: 4, Locality: true},
	)
}

// Diff runs the differential over p and d. cfgs defaults to
// DiffConfigs(). The returned error pinpoints the first disagreement.
func Diff(p *hlir.Program, d *core.Data, cfgs ...core.Config) error {
	if len(cfgs) == 0 {
		cfgs = DiffConfigs()
	}
	want, err := core.Reference(p, d)
	if err != nil {
		return fmt.Errorf("%s: interpreter: %w", p.Name, err)
	}
	for _, cfg := range cfgs {
		c, err := core.Compile(p, cfg, d, core.Options{Verify: true})
		if err != nil {
			return fmt.Errorf("%s [%s]: compile: %w", p.Name, cfg.Name(), err)
		}
		if err := diffCompiled(p, d, c, cfg, want); err != nil {
			return err
		}
	}
	return nil
}

// diffCompiled checks one compiled configuration against the interpreter
// checksum and the reference stepper.
func diffCompiled(p *hlir.Program, d *core.Data, c *core.Compiled, cfg core.Config, want uint64) error {
	fastMet, fastSum, err := simulate(c, d, false)
	if err != nil {
		return fmt.Errorf("%s [%s]: fast core: %w", p.Name, cfg.Name(), err)
	}
	refMet, refSum, err := simulate(c, d, true)
	if err != nil {
		return fmt.Errorf("%s [%s]: reference core: %w", p.Name, cfg.Name(), err)
	}
	if fastSum != want {
		return fmt.Errorf("%s [%s]: fast core checksum %#x, interpreter %#x", p.Name, cfg.Name(), fastSum, want)
	}
	if refSum != want {
		return fmt.Errorf("%s [%s]: reference core checksum %#x, interpreter %#x", p.Name, cfg.Name(), refSum, want)
	}
	ref := map[string]int64{}
	refMet.Each(func(name string, v int64) { ref[name] = v })
	var mismatch error
	fastMet.Each(func(name string, v int64) {
		if mismatch == nil && ref[name] != v {
			mismatch = fmt.Errorf("%s [%s]: metric %s fast %d, reference %d", p.Name, cfg.Name(), name, v, ref[name])
		}
	})
	return mismatch
}

// simulate runs compiled code on one core variant.
func simulate(c *core.Compiled, d *core.Data, reference bool) (*sim.Metrics, uint64, error) {
	m, err := sim.New(c.Fn)
	if err != nil {
		return nil, 0, err
	}
	m.Reference = reference
	core.InitMachine(m, c.ArrayID, d)
	met, err := m.Run(nil)
	if err != nil {
		return nil, 0, err
	}
	return met, core.Checksum(m, c), nil
}
