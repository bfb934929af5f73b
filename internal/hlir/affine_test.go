package hlir

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAffineOfBasics(t *testing.T) {
	i, j := IV("i"), IV("j")
	tests := []struct {
		e     Expr
		c     int64
		terms map[string]int64
		ok    bool
	}{
		{I(5), 5, nil, true},
		{i, 0, map[string]int64{"i": 1}, true},
		{Add(i, I(3)), 3, map[string]int64{"i": 1}, true},
		{Sub(Mul(I(4), i), j), 0, map[string]int64{"i": 4, "j": -1}, true},
		{Mul(i, I(0)), 0, nil, true},           // zero term dropped
		{Sub(i, i), 0, nil, true},              // cancellation
		{Mul(i, j), 0, nil, false},             // nonlinear
		{Mod(i, I(4)), 0, nil, false},          // mod is not affine
		{Add(FV("x"), FV("y")), 0, nil, false}, // floats are not affine
	}
	for k, tt := range tests {
		a := AffineOf(tt.e)
		if a.OK != tt.ok {
			t.Errorf("case %d: OK = %v, want %v", k, a.OK, tt.ok)
			continue
		}
		if !tt.ok {
			continue
		}
		if a.C != tt.c {
			t.Errorf("case %d: C = %d, want %d", k, a.C, tt.c)
		}
		if len(a.Terms) != len(tt.terms) {
			t.Errorf("case %d: terms = %v, want %v", k, a.Terms, tt.terms)
			continue
		}
		for v, co := range tt.terms {
			if a.Coeff(v) != co {
				t.Errorf("case %d: coeff(%s) = %d, want %d", k, v, a.Coeff(v), co)
			}
		}
	}
}

// randomAffineExpr builds a random integer expression from +,-,*const over
// two variables; it is affine by construction.
func randomAffineExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return I(int64(rng.Intn(21) - 10))
		case 1:
			return IV("i")
		default:
			return IV("j")
		}
	}
	x := randomAffineExpr(rng, depth-1)
	y := randomAffineExpr(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	default:
		return Mul(x, I(int64(rng.Intn(7)-3)))
	}
}

// TestAffineMatchesEvaluation is the semantic property: for random affine
// expressions and random variable values, the affine form evaluates to the
// same number as the interpreter.
func TestAffineMatchesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := &Program{Name: "aff"}
	for trial := 0; trial < 300; trial++ {
		e := randomAffineExpr(rng, 1+rng.Intn(3))
		a := AffineOf(e)
		if !a.OK {
			t.Fatalf("trial %d: affine-by-construction expr rejected: %s", trial, ExprString(e))
		}
		it := NewInterp(p)
		iv := int64(rng.Intn(41) - 20)
		jv := int64(rng.Intn(41) - 20)
		it.ivars["i"] = iv
		it.ivars["j"] = jv
		got, err := it.evalI(e)
		if err != nil {
			t.Fatal(err)
		}
		want := a.C + a.Coeff("i")*iv + a.Coeff("j")*jv
		if got != want {
			t.Fatalf("trial %d: interp %d, affine %d for %s", trial, got, want, ExprString(e))
		}
	}
}

func TestAffineKeyIgnoresConstant(t *testing.T) {
	property := func(c1, c2 int16) bool {
		a := AffineOf(Add(IV("i"), I(int64(c1))))
		b := AffineOf(Add(IV("i"), I(int64(c2))))
		return a.Key() == b.Key()
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}
}

func TestAffineDropVar(t *testing.T) {
	a := AffineOf(Add(Mul(I(3), IV("i")), Add(IV("j"), I(7))))
	d := a.DropVar("i")
	if d.Coeff("i") != 0 || d.Coeff("j") != 1 || d.C != 7 {
		t.Errorf("DropVar result: %+v", d)
	}
	if a.Coeff("i") != 3 {
		t.Error("DropVar mutated the original")
	}
}

func TestLinearAffineRowMajor(t *testing.T) {
	p := &Program{}
	a := p.NewArray("A", KFloat, 10, 20)
	r := At(a, Add(IV("i"), I(1)), Mul(I(2), IV("j")))
	lin := r.LinearAffine()
	if !lin.OK || lin.C != 20 || lin.Coeff("i") != 20 || lin.Coeff("j") != 2 {
		t.Errorf("linear form: %+v", lin)
	}
}

// refAffine is the map-based affine form this package used before terms
// became a sorted slice; the functions below keep that implementation as
// the oracle for TestAffineMatchesMapReference.
type refAffine struct {
	C     int64
	Terms map[string]int64
	OK    bool
}

func refAffineOf(e Expr) refAffine {
	bad := refAffine{}
	switch e := e.(type) {
	case *ConstI:
		return refAffine{C: e.V, OK: true}
	case *Var:
		if e.K != KInt {
			return bad
		}
		return refAffine{Terms: map[string]int64{e.Name: 1}, OK: true}
	case *Bin:
		x := refAffineOf(e.X)
		y := refAffineOf(e.Y)
		switch e.Op {
		case OpAdd, OpSub:
			if !x.OK || !y.OK {
				return bad
			}
			sign := int64(1)
			if e.Op == OpSub {
				sign = -1
			}
			out := refAffine{C: x.C + sign*y.C, OK: true, Terms: map[string]int64{}}
			for v, co := range x.Terms {
				out.Terms[v] += co
			}
			for v, co := range y.Terms {
				out.Terms[v] += sign * co
			}
			return out.norm()
		case OpMul:
			if x.OK && len(x.Terms) == 0 {
				x, y = y, x
			}
			if !x.OK || !y.OK || len(y.Terms) != 0 {
				return bad
			}
			out := refAffine{C: x.C * y.C, OK: true, Terms: map[string]int64{}}
			for v, co := range x.Terms {
				out.Terms[v] = co * y.C
			}
			return out.norm()
		}
		return bad
	default:
		return bad
	}
}

func (a refAffine) norm() refAffine {
	for v, co := range a.Terms {
		if co == 0 {
			delete(a.Terms, v)
		}
	}
	return a
}

func (a refAffine) Key() string {
	var b strings.Builder
	for _, v := range a.Vars() {
		fmt.Fprintf(&b, "%s*%d;", v, a.Terms[v])
	}
	return b.String()
}

func (a refAffine) Vars() []string {
	vs := make([]string, 0, len(a.Terms))
	for v := range a.Terms {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

func (a refAffine) DropVar(v string) refAffine {
	out := refAffine{C: a.C, OK: a.OK, Terms: map[string]int64{}}
	for k, co := range a.Terms {
		if k != v {
			out.Terms[k] = co
		}
	}
	return out
}

func refLinearAffine(r *Ref) refAffine {
	lin := refAffine{OK: true, Terms: map[string]int64{}}
	stride := int64(1)
	for d := len(r.Idx) - 1; d >= 0; d-- {
		ia := refAffineOf(r.Idx[d])
		if !ia.OK {
			return refAffine{}
		}
		lin.C += ia.C * stride
		for v, co := range ia.Terms {
			lin.Terms[v] += co * stride
		}
		stride *= int64(r.A.Dims[d])
	}
	return lin.norm()
}

// diffVars are the differential test's variables, listed in an order that
// differs from their sorted one (a, i, j, k10, k2), plus one name no form
// holds.
var diffVars = []string{"j", "i", "k10", "k2", "a", "zz"}

// randomIntExpr builds a random integer expression over diffVars' first
// five names: sums, differences, products with a constant on either side,
// products of two subexpressions (affine when one side cancels to a
// constant), forced cancellations, and occasional non-affine leaves (Mod,
// a float scalar, an array load, a negation).
func randomIntExpr(rng *rand.Rand, depth int, arr *Array) Expr {
	v := func() Expr { return IV(diffVars[rng.Intn(5)]) }
	c := func() Expr { return I(int64(rng.Intn(21) - 10)) }
	if depth <= 0 {
		switch r := rng.Intn(40); {
		case r < 12:
			return c()
		case r < 36:
			return v()
		case r == 36:
			return Mod(v(), I(4))
		case r == 37:
			return FV("x")
		case r == 38:
			return At(arr, v())
		default:
			return Neg(v())
		}
	}
	x := randomIntExpr(rng, depth-1, arr)
	switch rng.Intn(9) {
	case 0, 1:
		return Add(x, randomIntExpr(rng, depth-1, arr))
	case 2, 3:
		return Sub(x, randomIntExpr(rng, depth-1, arr))
	case 4:
		return Mul(x, c())
	case 5:
		return Mul(c(), x)
	case 6:
		return Mul(x, randomIntExpr(rng, depth-1, arr))
	case 7:
		w := v()
		switch rng.Intn(3) {
		case 0:
			return Add(x, Mul(Sub(w, w), v())) // (w-w)*v
		case 1:
			return Add(x, Mul(w, I(0))) // w*0
		default:
			return Add(x, Add(w, Mul(I(-1), w))) // w + (-1)*w
		}
	default:
		return Add(c(), x)
	}
}

// checkAgainstRef compares a form with the map-based oracle's on every
// observable: OK, C, IsConst, Coeff of each variable, Vars and Key, and
// requires the terms to be strictly ascending by name with no zero
// coefficient.
func checkAgainstRef(t *testing.T, what string, got Affine, want refAffine) {
	t.Helper()
	if got.OK != want.OK || got.C != want.C {
		t.Fatalf("%s: OK, C = %v, %d; want %v, %d", what, got.OK, got.C, want.OK, want.C)
	}
	if got.IsConst() != (want.OK && len(want.Terms) == 0) {
		t.Fatalf("%s: IsConst = %v with terms %v, want terms %v", what, got.IsConst(), got.Terms, want.Terms)
	}
	for _, v := range diffVars {
		if got.Coeff(v) != want.Terms[v] {
			t.Fatalf("%s: Coeff(%s) = %d, want %d", what, v, got.Coeff(v), want.Terms[v])
		}
	}
	if gv, wv := got.Vars(), want.Vars(); !slices.Equal(gv, wv) {
		t.Fatalf("%s: Vars = %v, want %v", what, gv, wv)
	}
	if gk, wk := got.Key(), want.Key(); gk != wk {
		t.Fatalf("%s: Key = %q, want %q", what, gk, wk)
	}
	for k, term := range got.Terms {
		if term.Co == 0 || k > 0 && got.Terms[k-1].Var >= term.Var {
			t.Fatalf("%s: terms %v are not strictly ascending and zero-free", what, got.Terms)
		}
	}
}

// checkForm runs checkAgainstRef on a form and on each DropVar of it, and
// checks that dropping a variable leaves the form itself unchanged.
func checkForm(t *testing.T, what string, got Affine, want refAffine) {
	t.Helper()
	checkAgainstRef(t, what, got, want)
	key := got.Key()
	for _, v := range diffVars {
		checkAgainstRef(t, what+" DropVar("+v+")", got.DropVar(v), want.DropVar(v))
	}
	if got.Key() != key {
		t.Fatalf("%s: DropVar changed the form's key from %q to %q", what, key, got.Key())
	}
}

// TestAffineMatchesMapReference is the differential test of the sorted-
// slice affine form against the map-based one it replaced: random integer
// expressions through AffineOf, and random 1-3-dimensional references
// through LinearAffine, must agree on every observable.
func TestAffineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := &Program{Name: "affdiff"}
	idx := p.NewArray("IX", KInt, 16)
	const trials = 3000
	var affine, many, cancelled int
	for trial := 0; trial < trials; trial++ {
		e := randomIntExpr(rng, 1+rng.Intn(4), idx)
		got, want := AffineOf(e), refAffineOf(e)
		checkForm(t, fmt.Sprintf("trial %d AffineOf(%s)", trial, ExprString(e)), got, want)
		if got.OK {
			affine++
			if len(got.Terms) >= 3 {
				many++
			}
		}

		dims := make([]int, 1+rng.Intn(3))
		for d := range dims {
			dims[d] = 1 + rng.Intn(12)
		}
		a := p.NewArray(fmt.Sprintf("A%d", trial), KFloat, dims...)
		ix := make([]Expr, len(dims))
		for d := range ix {
			ix[d] = randomIntExpr(rng, rng.Intn(3), idx)
		}
		r := At(a, ix...)
		lin, wantLin := r.LinearAffine(), refLinearAffine(r)
		checkForm(t, fmt.Sprintf("trial %d LinearAffine(%s)", trial, ExprString(r)), lin, wantLin)
		if lin.OK && len(lin.Terms) == 0 && len(ix) > 1 {
			cancelled++
		}
	}
	// The generator must reach both verdicts, multi-term merges and
	// references whose variables all cancel or are absent.
	if affine < trials/4 || affine > trials*3/4 || many < trials/20 || cancelled == 0 {
		t.Fatalf("weak generator: %d of %d affine, %d with >= 3 terms, %d constant multi-dim refs", affine, trials, many, cancelled)
	}
}
