// Package workload provides synthetic analogs of the paper's seventeen
// benchmarks (Table 1: Perfect Club and SPEC92 numeric programs). The
// original Fortran/C sources and inputs are not available, so each analog
// is an HLIR program engineered to preserve the traits the paper reports
// as driving that benchmark's scheduling behaviour: loop/straight-line
// mix, basic-block size, internal conditionals (which gate unrolling),
// dominant-path structure (which gates trace scheduling), array access
// regularity (which gates locality analysis), and working-set size
// relative to the simulated cache hierarchy. DESIGN.md §4 documents the
// mapping benchmark by benchmark.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hlir"
)

// Benchmark is one workload program.
type Benchmark struct {
	// Name matches the paper's Table 1.
	Name string
	// Lang is the original source language (Fortran or C), as in Table 1.
	Lang string
	// Description is the paper's one-line description.
	Description string
	// Traits summarises the scheduling-relevant behaviour the analog
	// preserves.
	Traits string
	// Build constructs a fresh program and its input data. Every call
	// returns an equivalent program; the data is deterministic.
	Build func() (*hlir.Program, *core.Data)
}

// All returns the seventeen benchmarks in the paper's table order.
func All() []Benchmark {
	return []Benchmark{
		arc2d(), bdna(), dyfesm(), mdg(), qcd2(), trfd(),
		alvinn(), dnasa7(), doduc(), ear(), hydro2d(), mdljdp2(),
		ora(), spice2g6(), su2cor(), swm256(), tomcatv(),
	}
}

// ByName looks a benchmark up by its Table 1 name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// rng is a small deterministic generator (SplitMix64) so input data is
// stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a value in [lo, hi).
func (r *rng) f64(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/(1<<53)
}

// i64 returns a value in [0, n).
func (r *rng) i64(n int64) int64 { return int64(r.next() % uint64(n)) }

// fillF populates a float array with values in [lo, hi).
func fillF(d *core.Data, a *hlir.Array, r *rng, lo, hi float64) {
	vals := make([]float64, a.Len())
	for i := range vals {
		vals[i] = r.f64(lo, hi)
	}
	d.F[a] = vals
}

// Shorthand constructors shared by the benchmark builders.
var (
	iv = hlir.IV
	fv = hlir.FV
	ii = hlir.I
	ff = hlir.F
	at = hlir.At
)

func add(x, y hlir.Expr) hlir.Expr { return hlir.Add(x, y) }
func sub(x, y hlir.Expr) hlir.Expr { return hlir.Sub(x, y) }
func mul(x, y hlir.Expr) hlir.Expr { return hlir.Mul(x, y) }
func div(x, y hlir.Expr) hlir.Expr { return hlir.Div(x, y) }
