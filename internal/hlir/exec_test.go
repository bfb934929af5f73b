package hlir

import (
	"math"
	"testing"
)

// runBoth runs p under the tree walker and the compiled evaluator, each
// on fresh zeroed storage, failing t if either panics.
func runBoth(t *testing.T, p *Program) (it *Interp, x *Exec, walked, compiled error) {
	t.Helper()
	guard := func(name string, run func() error) error {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s panicked: %v", name, r)
			}
		}()
		return run()
	}
	it, x = NewInterp(p), Compile(p)
	walked = guard("Interp", func() error { return it.Run(p) })
	compiled = guard("Exec", x.Run)
	return it, x, walked, compiled
}

// sameState fails t unless both evaluators hold the same bits in every
// array element and the same checksum.
func sameState(t *testing.T, p *Program, it *Interp, x *Exec) {
	t.Helper()
	for _, a := range p.Arrays {
		for i, v := range it.F[a] {
			if w := x.F[a][i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Errorf("%s[%d] = %v walked, %v compiled", a.Name, i, v, w)
			}
		}
		for i, v := range it.I[a] {
			if w := x.I[a][i]; v != w {
				t.Errorf("%s[%d] = %d walked, %d compiled", a.Name, i, v, w)
			}
		}
	}
	if h, g := it.Checksum(p), x.Checksum(); h != g {
		t.Errorf("checksum %#x walked, %#x compiled", h, g)
	}
}

// oddStmt is a statement neither evaluator knows.
type oddStmt struct{}

func (*oddStmt) stmtNode() {}

// TestExecErrorParity: each ill-formed body must give the same error text,
// or no error, from both evaluators, and neither may panic.
func TestExecErrorParity(t *testing.T) {
	p := &Program{Name: "e"}
	a := p.NewArray("A", KFloat, 4, 8)
	b := p.NewArray("B", KInt, 4)
	c := p.NewArray("C", KFloat, 2, 2, 2)
	ghost := &Array{Name: "ghost", Elem: KFloat, Dims: []int{4}}
	sink, m := FV("s"), IV("m")
	load := func(idx ...Expr) Stmt { return Set(sink, At(a, idx...)) }
	badF, badI := FV("f"), IV("i") // kind errors in int and float context
	tests := []struct {
		name string
		body []Stmt
		want string // "" for no error
	}{
		{"dim 0 below", []Stmt{load(I(-1), I(0))}, "interp: A index -1 out of range [0,4) in dim 0"},
		{"dim 0 past", []Stmt{load(I(4), I(0))}, "interp: A index 4 out of range [0,4) in dim 0"},
		{"dim 1 below", []Stmt{load(I(0), I(-1))}, "interp: A index -1 out of range [0,8) in dim 1"},
		{"dim 1 past", []Stmt{load(I(0), I(8))}, "interp: A index 8 out of range [0,8) in dim 1"},
		{"dim 0 past in a loop", []Stmt{For("i", I(0), I(9), load(Add(IV("i"), I(1)), I(0)))},
			"interp: A index 4 out of range [0,4) in dim 0"},
		{"computed dim 1 past", []Stmt{load(I(0), Mul(I(2), I(4)))}, "interp: A index 8 out of range [0,8) in dim 1"},
		{"dim 2 past", []Stmt{Set(sink, At(c, I(0), I(1), I(2)))}, "interp: C index 2 out of range [0,2) in dim 2"},
		{"1-d below", []Stmt{Set(m, At(b, Sub(IV("i"), I(1))))}, "interp: B index -1 out of range [0,4) in dim 0"},
		{"store dim 1 past", []Stmt{Set(At(a, I(0), I(8)), F(1))}, "interp: A index 8 out of range [0,8) in dim 1"},
		{"store dim 0 below", []Stmt{Set(At(b, I(-2)), I(1))}, "interp: B index -2 out of range [0,4) in dim 0"},
		{"store dim 2 below", []Stmt{Set(At(c, I(0), I(0), I(-1)), F(1))}, "interp: C index -1 out of range [0,2) in dim 2"},
		{"too few indices", []Stmt{load(I(0))}, "interp: A referenced with 1 indices, has 2 dims"},
		{"too many indices", []Stmt{Set(At(b, I(0), I(0)), I(1))}, "interp: B referenced with 2 indices, has 1 dims"},
		{"% by 0", []Stmt{Set(m, Mod(I(5), I(0)))}, "interp: % by 0"},
		{"% by -4", []Stmt{Set(m, Mod(I(5), I(-4)))}, "interp: % by -4"},
		{"% by 3", []Stmt{Set(m, Mod(I(5), I(3)))}, "interp: % by 3"},
		{"% by a scalar 6", []Stmt{Set(IV("k"), I(6)), Set(m, Mod(I(5), IV("k")))}, "interp: % by 6"},
		{"% by a scalar 8", []Stmt{Set(IV("k"), I(8)), Set(m, Mod(I(13), IV("k")))}, ""},
		{"loop step 0", []Stmt{&Loop{Var: "i", Lo: I(0), Hi: I(4), Step: 0}}, "interp: loop i step 0"},
		{"loop step -1 never runs", []Stmt{&Loop{Var: "i", Lo: I(4), Hi: I(0), Step: -1}}, "interp: loop i step -1"},
		{"loop bound error before step", []Stmt{&Loop{Var: "i", Lo: I(0), Hi: badF, Step: 0}},
			"interp: float scalar f in int context"},
		{"float scalar in int context", []Stmt{Set(m, badF)}, "interp: float scalar f in int context"},
		{"int scalar in float context", []Stmt{Set(sink, badI)}, "interp: int scalar i in float context"},
		{"float array in int context", []Stmt{Set(m, At(a, I(0), I(0)))}, "interp: float array A in int context"},
		{"int array in float context", []Stmt{Set(sink, At(b, I(0)))}, "interp: int array B in float context"},
		{"float subscript", []Stmt{load(badF, I(0))}, "interp: float scalar f in int context"},
		{"int literal in float context", []Stmt{Set(sink, I(1))}, "interp: unknown float expression *hlir.ConstI"},
		{"float literal in int context", []Stmt{Set(m, F(1))}, "interp: unknown int expression *hlir.ConstF"},
		{"missing expression", []Stmt{Set(m, nil)}, "interp: unknown int expression <nil>"},
		{"/ on ints", []Stmt{Set(m, Div(I(1), I(2)))}, "interp: operator / not valid on ints"},
		{"% on floats", []Stmt{Set(sink, Mod(F(1), F(2)))}, "interp: operator % not valid on floats"},
		{"< in float context", []Stmt{Set(sink, Lt(F(1), F(2)))}, "interp: operator < not valid on floats"},
		{"sqrt on ints", []Stmt{Set(m, Sqrt(I(4)))}, "interp: unary 1 not valid on ints"},
		{"float-to-int in float context", []Stmt{Set(sink, FToI(F(1)))}, "interp: unary 4 not valid on floats"},
		{"float compare of an int", []Stmt{When(Lt(F(1), I(2)), Set(m, I(1)))}, "interp: unknown float expression *hlir.ConstI"},
		{"unknown comparison", []Stmt{Set(m, &Bin{Op: OpLe + 1, X: I(1), Y: I(2)})}, "interp: bad int comparison BinOp(9)"},
		{"unknown float comparison", []Stmt{When(&Bin{Op: OpLe + 1, X: F(1), Y: F(2)}, Set(m, I(1)))},
			"interp: bad float comparison BinOp(9)"},
		{"X's error before Y's, floats", []Stmt{Set(sink, Add(At(a, I(9), I(0)), badI))},
			"interp: A index 9 out of range [0,4) in dim 0"},
		{"X's error before Y's, ints", []Stmt{Set(m, Sub(badF, Mod(I(1), I(0))))}, "interp: float scalar f in int context"},
		{"Y's error before the operator's", []Stmt{Set(m, Div(I(1), badF))}, "interp: float scalar f in int context"},
		{"X's error before Y's, comparison", []Stmt{When(Lt(At(a, I(0), I(-3)), badI), Set(m, I(1)))},
			"interp: A index -3 out of range [0,8) in dim 1"},
		{"store index before RHS", []Stmt{Set(At(a, I(0), I(9)), badI)}, "interp: A index 9 out of range [0,8) in dim 1"},
		{"RHS after a good store index", []Stmt{Set(At(a, I(0), I(7)), badI)}, "interp: int scalar i in float context"},
		{"condition kind", []Stmt{When(badF, Set(m, I(1)))}, "interp: float scalar f in int context"},
		{"zero-trip loop", []Stmt{For("i", I(3), I(3), Set(m, badF), load(I(9), I(9)))}, ""},
		{"untaken branch", []Stmt{WhenElse(Lt(I(1), I(0)), []Stmt{Set(sink, badI)}, []Stmt{Set(m, I(2))})}, ""},
		{"undeclared load", []Stmt{Set(sink, At(ghost, I(0)))}, "interp: array ghost is not declared"},
		{"undeclared store", []Stmt{Set(At(ghost, I(9)), badI)}, "interp: array ghost is not declared"},
		{"bad assignment target", []Stmt{&Assign{LHS: I(1), RHS: I(2)}}, "interp: bad assignment target *hlir.ConstI"},
		{"unknown statement", []Stmt{&oddStmt{}}, "interp: unknown statement *hlir.oddStmt"},
		{"prefetch past the array", []Stmt{&Prefetch{Ref: At(a, I(99), I(99))}}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p.Body = tt.body
			_, _, walked, compiled := runBoth(t, p)
			w, c := errText(walked), errText(compiled)
			if w != c {
				t.Fatalf("tree walker %q, compiled %q", w, c)
			}
			if w != tt.want {
				t.Fatalf("error %q, want %q", w, tt.want)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestExecMatchesInterp runs a body that touches every operator, both
// scalar kinds under one name, stepped and empty loops and both branches
// of a conditional, and compares the evaluators' arrays bit for bit.
func TestExecMatchesInterp(t *testing.T) {
	p := &Program{Name: "ops"}
	f := p.NewArray("F", KFloat, 6, 5)
	n := p.NewArray("N", KInt, 12)
	g := p.NewArray("G", KFloat, 2, 3, 4)
	p.Outputs = []*Array{f, n, g}
	p.Body = []Stmt{
		Set(FV("x"), F(1.5)),
		Set(IV("x"), I(-7)),
		&Loop{Var: "i", Lo: I(0), Hi: I(5), Step: 2, Body: []Stmt{
			For("j", I(0), I(5),
				Set(At(f, IV("i"), IV("j")), Div(Add(IToF(Mul(IV("i"), IV("j"))), FV("x")), Sub(F(3), IToF(IV("j"))))),
				Set(At(f, Add(I(1), IV("i")), Sub(I(4), IV("j"))), Sqrt(Abs(Neg(At(f, IV("i"), IV("j")))))),
			),
		}},
		Set(At(n, I(0)), IV("i")), // 6: the first step past the bound
		Set(At(n, I(1)), IV("j")), // 5
		For("k", I(9), I(2), Set(IV("x"), I(0))),
		Set(At(n, I(2)), IV("k")), // 9: the loop never ran
		Set(At(n, I(3)), Mod(IV("x"), I(4))),
		Set(IV("q"), I(8)),
		Set(At(n, I(4)), Mod(I(-13), IV("q"))),
		Set(At(n, I(5)), Neg(Sub(IV("x"), I(1)))),
		Set(At(n, I(6)), FToI(Mul(FV("x"), F(-3.7)))),
		Set(At(n, I(7)), Add(Eq(IV("x"), I(-7)), Mul(Ne(F(1), F(1)), I(2)))),
		Set(At(n, I(8)), Add(Lt(FV("x"), F(2)), Le(IV("q"), I(7)))),
		WhenElse(Lt(At(f, I(1), I(2)), F(0)),
			[]Stmt{Set(At(n, I(9)), I(1))},
			[]Stmt{Set(At(n, I(9)), I(2))}),
		When(IV("q"), Set(At(n, Add(IV("q"), I(2))), At(n, Sub(IV("q"), I(8))))),
		For("a", I(0), I(2), For("b", I(0), I(3), For("c", I(0), I(4),
			Set(At(g, IV("a"), IV("b"), IV("c")),
				Div(IToF(Add(Mul(IV("a"), I(12)), At(n, Mod(Add(IV("b"), IV("c")), I(8))))), F(0)))))),
		Set(At(n, I(11)), FToI(Div(F(0), F(0)))),
	}
	it, x, walked, compiled := runBoth(t, p)
	if walked != nil || compiled != nil {
		t.Fatalf("errors: walked %v, compiled %v", walked, compiled)
	}
	sameState(t, p, it, x)
	if got := x.I[n][:3]; got[0] != 6 || got[1] != 5 || got[2] != 9 {
		t.Errorf("induction variables after their loops = %v, want [6 5 9]", got)
	}
}

// TestExecUndeclaredArray: a body that reads or writes an array missing
// from p.Arrays is an error under both evaluators, not a Go panic.
func TestExecUndeclaredArray(t *testing.T) {
	p := &Program{Name: "ghostly"}
	out := p.NewArray("out", KFloat, 4)
	ghost := &Array{Name: "ghost", Elem: KFloat, Dims: []int{4}}
	p.Outputs = []*Array{out}
	p.Body = []Stmt{For("i", I(0), I(4), Set(At(out, IV("i")), At(ghost, IV("i"))))}
	for _, body := range [][]Stmt{p.Body, {For("i", I(0), I(4), Set(At(ghost, IV("i")), F(1)))}} {
		p.Body = body
		_, _, walked, compiled := runBoth(t, p)
		for _, err := range []error{walked, compiled} {
			if err == nil || err.Error() != "interp: array ghost is not declared" {
				t.Errorf("error %v, want the undeclared array named", err)
			}
		}
	}
}

// TestExecPassesForeignPanics: Run turns only the evaluator's own
// failures into errors; any other panic is not swallowed.
func TestExecPassesForeignPanics(t *testing.T) {
	x := &Exec{body: func() { panic("not an evaluation error") }}
	defer func() {
		if r := recover(); r != "not an evaluation error" {
			t.Errorf("recovered %v, want the original panic", r)
		}
	}()
	err := x.Run()
	t.Fatalf("Run returned %v instead of panicking", err)
}
