package exp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/workload"
)

// TestFuzzGridParallel extends the differential fuzz corpus to the
// cell-parallel engine: randomized small HLIR programs, wrapped as
// ad-hoc benchmarks, run through every one of the 16 grid configurations
// with many concurrent workers. The engine's per-cell oracle asserts each
// configuration reproduces the reference interpreter's checksum, so this
// is simultaneously a miscompilation net and — under -race — a proof
// that sharing one front-end across concurrent cells is sound.
func TestFuzzGridParallel(t *testing.T) {
	const programs = 5
	rng := rand.New(rand.NewSource(20260805))
	var benches []workload.Benchmark
	for i := 0; i < programs; i++ {
		p, d := randomGridProgram(rng, i)
		benches = append(benches, workload.Benchmark{
			Name:        p.Name,
			Lang:        "fuzz",
			Description: "randomized differential-fuzz program",
			Build:       func() (*hlir.Program, *core.Data) { return p, d },
		})
	}
	// More workers than cells-per-benchmark so cells of one benchmark
	// race to share its front-end.
	s, err := RunBenchmarksConfigs(benches, Cells(), Options{Jobs: 24, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		for _, cfg := range Cells() {
			r := s.Get(b.Name, cfg)
			if r == nil {
				t.Fatalf("missing cell %s/%s", b.Name, cfg.Name())
			}
			if r.Metrics.Cycles == 0 {
				t.Errorf("%s/%s: empty metrics", b.Name, cfg.Name())
			}
		}
	}
}

// randomGridProgram generates a small program mixing 2-D stencils, flat
// vectors, predicable and unpredicable conditionals and a reduction —
// the shapes the pipeline supports — with deterministic random inputs.
func randomGridProgram(rng *rand.Rand, id int) (*hlir.Program, *core.Data) {
	p := &hlir.Program{Name: fmt.Sprintf("fuzz%d", id)}
	n := 12 + 4*rng.Intn(4) // 12..24
	a := p.NewArray("A", hlir.KFloat, n, n)
	v := p.NewArray("V", hlir.KFloat, n*n)
	p.Outputs = []*hlir.Array{a, v}
	i, j := hlir.IV("i"), hlir.IV("j")
	s := hlir.FV("s")

	flat := func() hlir.Expr { return hlir.Add(hlir.Mul(i, hlir.I(int64(n))), j) }
	leaf := func() hlir.Expr {
		switch rng.Intn(4) {
		case 0:
			return hlir.F(rng.Float64()*4 - 2)
		case 1:
			return hlir.At(v, flat())
		case 2:
			return hlir.At(a, i, j)
		default:
			return s
		}
	}
	expr := func() hlir.Expr {
		x, y := leaf(), leaf()
		switch rng.Intn(3) {
		case 0:
			return hlir.Add(x, y)
		case 1:
			return hlir.Sub(x, y)
		default:
			return hlir.Mul(x, hlir.Add(y, hlir.F(0.25)))
		}
	}

	inner := []hlir.Stmt{hlir.Set(s, expr())}
	for k, stmts := 0, 1+rng.Intn(3); k < stmts; k++ {
		switch rng.Intn(4) {
		case 0:
			inner = append(inner, hlir.Set(hlir.At(a, i, j), expr()))
		case 1:
			inner = append(inner, hlir.Set(hlir.At(v, flat()), expr()))
		case 2: // predicable conditional
			inner = append(inner, hlir.When(hlir.Lt(s, hlir.F(0)),
				hlir.Set(s, hlir.Neg(s))))
		default: // unpredicable conditional (array store on both arms)
			inner = append(inner, hlir.WhenElse(hlir.Lt(leaf(), hlir.F(0.5)),
				[]hlir.Stmt{hlir.Set(hlir.At(a, i, j), s)},
				[]hlir.Stmt{hlir.Set(hlir.At(v, flat()), hlir.F(1))}))
		}
	}
	inner = append(inner, hlir.Set(hlir.At(a, i, j), hlir.Add(hlir.At(a, i, j), s)))

	// Initialize s before the loop nest: leaf() may read it before the
	// first inner Set, and the IR verifier (rightly) rejects a register
	// that is live into the entry block.
	p.Body = []hlir.Stmt{
		hlir.Set(s, hlir.F(0)),
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.For("j", hlir.I(0), hlir.I(int64(n-1)), inner...)),
	}

	d := core.NewData()
	av := make([]float64, n*n)
	vv := make([]float64, n*n)
	for k := range av {
		av[k] = rng.Float64()*2 - 1
		vv[k] = rng.Float64()*2 - 1
	}
	d.F[a] = av
	d.F[v] = vv
	return p, d
}
