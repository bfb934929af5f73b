package core

import (
	"math/rand"
	"testing"

	"repro/internal/hlir"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestPipelineFuzz is the repository's strongest correctness net: random
// loop/branch/array programs are compiled under every experiment
// configuration (plus the extension policies) and must reproduce the
// reference interpreter's output bit for bit. It exercises unrolling
// remainders, peeling, predication, trace compensation, speculation and
// spilling together on program shapes nobody hand-picked.
func TestPipelineFuzz(t *testing.T) {
	configs := []Config{
		{Policy: sched.Traditional},
		{Policy: sched.Balanced},
		{Policy: sched.BalancedFixed},
		{Policy: sched.Auto},
		{Policy: sched.Balanced, Unroll: 4},
		{Policy: sched.Balanced, Unroll: 8},
		{Policy: sched.Traditional, Unroll: 8},
		{Policy: sched.Balanced, Locality: true},
		{Policy: sched.Balanced, Locality: true, Unroll: 8},
		{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4},
		{Policy: sched.Balanced, LICM: true, Unroll: 4},
		{Policy: sched.Balanced, LICM: true, Trace: true, Unroll: 8, Locality: true},
		{Policy: sched.Balanced, Trace: true},
		{Policy: sched.Balanced, Trace: true, Unroll: 4},
		{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 8},
		{Policy: sched.Traditional, Trace: true, Unroll: 4},
		// Grid cells the list above was missing, so the corpus covers
		// every one of exp.Cells()'s 16 configurations.
		{Policy: sched.Traditional, Unroll: 4},
		{Policy: sched.Traditional, Trace: true, Unroll: 8},
		{Policy: sched.Balanced, Locality: true, Unroll: 4},
		{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 4},
	}
	const trials = 25
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < trials; trial++ {
		p, d := randomProgram(rng)
		want, err := Reference(p, d)
		if err != nil {
			t.Fatalf("trial %d: reference: %v\n%s", trial, err, p)
		}
		for _, cfg := range configs {
			c, err := Compile(p, cfg, d, Options{})
			if err != nil {
				t.Fatalf("trial %d %s: compile: %v\n%s", trial, cfg.Name(), err, p)
			}
			_, got, err := Execute(c, d)
			if err != nil {
				t.Fatalf("trial %d %s: execute: %v\n%s", trial, cfg.Name(), err, p)
			}
			if got != want {
				t.Fatalf("trial %d %s: wrong output\n%s", trial, cfg.Name(), p)
			}
			// Wider issue must not change semantics either.
			if cfg.Trace {
				if _, got4, _, err := ExecutePooled(c, d, 4, nil, nil); err != nil || got4 != want {
					t.Fatalf("trial %d %s width 4: err=%v mismatch=%v", trial, cfg.Name(), err, got4 != want)
				}
			}
			// Differential check of the predecoded fast core against the
			// original instruction-walking stepper on a rotating subset, so
			// the whole corpus covers it without doubling every simulation.
			if (trial+trialHash(cfg))%5 == 0 {
				diffCores(t, trial, cfg, c, d)
			}
		}
	}
}

// trialHash spreads configurations across the rotation classes of the
// fast-vs-reference differential subset.
func trialHash(cfg Config) int {
	h := int(cfg.Policy)*7 + cfg.Unroll*3
	if cfg.Trace {
		h += 11
	}
	if cfg.Locality {
		h += 5
	}
	if cfg.Prefetch {
		h += 13
	}
	if cfg.LICM {
		h += 17
	}
	return h
}

// diffCores simulates c on both the fast core and the reference stepper
// and requires bit-identical metrics (every Metrics field, via Each) and
// checksums.
func diffCores(t *testing.T, trial int, cfg Config, c *Compiled, d *Data) {
	t.Helper()
	type outcome struct {
		mets map[string]int64
		sum  uint64
	}
	run := func(reference bool) outcome {
		m, err := sim.New(c.Fn)
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, cfg.Name(), err)
		}
		m.Reference = reference
		InitMachine(m, c.ArrayID, d)
		met, err := m.Run(nil)
		if err != nil {
			t.Fatalf("trial %d %s (reference=%v): %v", trial, cfg.Name(), reference, err)
		}
		o := outcome{mets: map[string]int64{}, sum: Checksum(m, c)}
		met.Each(func(name string, v int64) { o.mets[name] = v })
		return o
	}
	fast, ref := run(false), run(true)
	if fast.sum != ref.sum {
		t.Fatalf("trial %d %s: fast checksum %#x, reference %#x", trial, cfg.Name(), fast.sum, ref.sum)
	}
	for name, v := range ref.mets {
		if fast.mets[name] != v {
			t.Errorf("trial %d %s: metric %s fast %d, reference %d",
				trial, cfg.Name(), name, fast.mets[name], v)
		}
	}
}

// randomProgram generates a small program mixing 1-D and 2-D arrays,
// nested loops, conditionals (predicable and not), reductions and a
// little indirection.
func randomProgram(rng *rand.Rand) (*hlir.Program, *Data) {
	p := &hlir.Program{Name: "fuzz"}
	n := 16 + 4*rng.Intn(6) // 16..36
	a := p.NewArray("A", hlir.KFloat, n, n)
	v := p.NewArray("V", hlir.KFloat, n*n)
	idx := p.NewArray("idx", hlir.KInt, n)
	p.Outputs = []*hlir.Array{a, v}
	i, j := hlir.IV("i"), hlir.IV("j")

	fexpr := func(depth int) hlir.Expr {
		var gen func(d int) hlir.Expr
		gen = func(d int) hlir.Expr {
			if d <= 0 {
				switch rng.Intn(4) {
				case 0:
					return hlir.F(rng.Float64()*4 - 2)
				case 1:
					return hlir.At(v, hlir.Add(hlir.Mul(i, hlir.I(int64(n))), j))
				case 2:
					return hlir.At(a, i, j)
				default:
					return hlir.FV("s")
				}
			}
			x, y := gen(d-1), gen(d-1)
			switch rng.Intn(4) {
			case 0:
				return hlir.Add(x, y)
			case 1:
				return hlir.Sub(x, y)
			case 2:
				return hlir.Mul(x, y)
			default:
				return hlir.Add(x, hlir.Mul(y, hlir.F(0.5)))
			}
		}
		return gen(depth)
	}

	var inner []hlir.Stmt
	inner = append(inner, hlir.Set(hlir.FV("s"), fexpr(1)))
	nStmts := 1 + rng.Intn(3)
	for k := 0; k < nStmts; k++ {
		switch rng.Intn(4) {
		case 0:
			inner = append(inner, hlir.Set(hlir.At(a, i, j), fexpr(2)))
		case 1:
			inner = append(inner, hlir.Set(hlir.At(v, hlir.Add(hlir.Mul(i, hlir.I(int64(n))), j)), fexpr(1)))
		case 2: // predicable conditional
			inner = append(inner, hlir.When(hlir.Lt(hlir.FV("s"), hlir.F(0)),
				hlir.Set(hlir.FV("s"), hlir.Neg(hlir.FV("s")))))
		default: // unpredicable conditional (array store)
			inner = append(inner, hlir.WhenElse(hlir.Lt(fexpr(0), hlir.F(0.5)),
				[]hlir.Stmt{hlir.Set(hlir.At(a, i, j), hlir.FV("s"))},
				[]hlir.Stmt{hlir.Set(hlir.At(v, hlir.Add(hlir.Mul(i, hlir.I(int64(n))), j)), hlir.F(1))}))
		}
	}
	inner = append(inner, hlir.Set(hlir.At(a, i, j), hlir.Add(hlir.At(a, i, j), hlir.FV("s"))))

	body := []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.For("j", hlir.I(0), hlir.I(int64(n-1)), inner...)),
	}
	// Occasionally add a gather over the index vector.
	if rng.Intn(2) == 0 {
		body = append(body,
			hlir.For("i", hlir.I(0), hlir.I(int64(n)),
				hlir.Set(hlir.At(v, i), hlir.Add(hlir.At(v, hlir.At(idx, i)), hlir.F(1)))))
	}
	p.Body = body

	d := NewData()
	av := make([]float64, n*n)
	vv := make([]float64, n*n)
	iv := make([]int64, n)
	for k := range av {
		av[k] = rng.Float64()*2 - 1
		vv[k] = rng.Float64()*2 - 1
	}
	for k := range iv {
		iv[k] = rng.Int63n(int64(n * n))
	}
	d.F[a] = av
	d.F[v] = vv
	d.I[idx] = iv
	return p, d
}
