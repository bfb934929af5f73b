package hlirgen

import (
	"fmt"
	"math"
	"slices"

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
// every metric. The functional-only profile walk runs too: its checksum
// and edge counts must agree. A nil error means the whole pipeline —
// compiler, schedulers, both simulator cores, the profile walk — agrees
// about the program.

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

// DiffEvaluators runs p on d under both HLIR evaluators, the
// tree-walking oracle hlir.Interp and the closure-compiled hlir.Exec
// that core.Reference runs, and demands the same error, the same bits in
// every element of every array and the same checksum. d may be nil.
func DiffEvaluators(p *hlir.Program, d *core.Data) error {
	it, x := hlir.NewInterp(p), hlir.Compile(p)
	if d != nil {
		for a, vals := range d.F {
			copy(it.F[a], vals)
			copy(x.F[a], vals)
		}
		for a, vals := range d.I {
			copy(it.I[a], vals)
			copy(x.I[a], vals)
		}
	}
	walked, compiled := it.Run(p), x.Run()
	if fmt.Sprint(walked) != fmt.Sprint(compiled) {
		return fmt.Errorf("%s: tree walker returned %v, compiled code %v", p.Name, walked, compiled)
	}
	for _, a := range p.Arrays {
		if a.Elem == hlir.KFloat {
			for i, v := range it.F[a] {
				if w := x.F[a][i]; math.Float64bits(v) != math.Float64bits(w) {
					return fmt.Errorf("%s: %s[%d] is %v walked, %v compiled", p.Name, a.Name, i, v, w)
				}
			}
		} else if !slices.Equal(it.I[a], x.I[a]) {
			return fmt.Errorf("%s: int array %s differs between the evaluators", p.Name, a.Name)
		}
	}
	if h, g := it.Checksum(p), x.Checksum(); h != g {
		return fmt.Errorf("%s: checksum %#x walked, %#x compiled", p.Name, h, g)
	}
	return nil
}

// diffCompiled checks one compiled configuration against the interpreter
// checksum and the reference stepper, checks the single-issue cycle
// identity on both cores, and runs the functional-only profile walk,
// whose edge counts must equal the fast core's edge stream and whose
// output checksum must equal the interpreter's.
func diffCompiled(p *hlir.Program, d *core.Data, c *core.Compiled, cfg core.Config, want uint64) error {
	fastMet, fastSum, fastEdges, err := simulate(c, d, false)
	if err != nil {
		return fmt.Errorf("%s [%s]: fast core: %w", p.Name, cfg.Name(), err)
	}
	refMet, refSum, _, err := simulate(c, d, true)
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
	if mismatch != nil {
		return mismatch
	}
	for _, met := range []*sim.Metrics{fastMet, refMet} {
		if sum := met.Instrs + met.LoadInterlock + met.FixedInterlock + met.FetchStall + met.BranchStall + met.StoreStall; sum != met.Cycles {
			return fmt.Errorf("%s [%s]: %d cycles, but instructions and stall buckets sum to %d", p.Name, cfg.Name(), met.Cycles, sum)
		}
	}

	m, err := sim.New(c.Fn)
	if err != nil {
		return err
	}
	core.InitMachine(m, c.ArrayID, d)
	counts, err := m.CountEdges()
	if err != nil {
		return fmt.Errorf("%s [%s]: profile walk: %w", p.Name, cfg.Name(), err)
	}
	if sum := core.Checksum(m, c); sum != want {
		return fmt.Errorf("%s [%s]: profile walk checksum %#x, interpreter %#x", p.Name, cfg.Name(), sum, want)
	}
	if !slices.Equal(counts, fastEdges) {
		return fmt.Errorf("%s [%s]: profile walk edge counts differ from the fast core's", p.Name, cfg.Name())
	}
	return nil
}

// simulate runs compiled code on one core variant, counting its edges
// indexed 2·block+successor as sim.Machine.CountEdges does.
func simulate(c *core.Compiled, d *core.Data, reference bool) (*sim.Metrics, uint64, []int64, error) {
	m, err := sim.New(c.Fn)
	if err != nil {
		return nil, 0, nil, err
	}
	m.Reference = reference
	core.InitMachine(m, c.ArrayID, d)
	edges := make([]int64, 2*len(c.Fn.Blocks))
	met, err := m.Run(edges)
	if err != nil {
		return nil, 0, nil, err
	}
	return met, core.Checksum(m, c), edges, nil
}
