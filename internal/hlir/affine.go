package hlir

import (
	"slices"
	"strconv"
)

// Term is one variable term of an affine form: Co·Var.
type Term struct {
	Var string
	Co  int64
}

// Affine is a linear form over integer scalar variables: C + Σ Co·Var.
// It is the analysis currency shared by address lowering (base/displacement
// splitting) and locality analysis (stride and alignment reasoning).
type Affine struct {
	// C is the constant term.
	C int64
	// Terms holds the variable terms in ascending order of name, with no
	// zero coefficients. Forms built from one another may share a term
	// slice, so treat it as immutable: never append to it or assign its
	// elements.
	Terms []Term
	// OK reports whether the analysed expression was affine at all.
	OK bool
}

// AffineOf analyses an integer expression. Multiplication is admitted when
// one side is constant; Mod, loads and floats make the form non-affine.
func AffineOf(e Expr) Affine {
	bad := Affine{}
	switch e := e.(type) {
	case *ConstI:
		return Affine{C: e.V, OK: true}
	case *Var:
		if e.K != KInt {
			return bad
		}
		return Affine{Terms: []Term{{Var: e.Name, Co: 1}}, OK: true}
	case *Bin:
		x := AffineOf(e.X)
		y := AffineOf(e.Y)
		switch e.Op {
		case OpAdd, OpSub:
			if !x.OK || !y.OK {
				return bad
			}
			sign := int64(1)
			if e.Op == OpSub {
				sign = -1
			}
			return Affine{C: x.C + sign*y.C, Terms: addTerms(x.Terms, y.Terms, sign), OK: true}
		case OpMul:
			if x.OK && len(x.Terms) == 0 {
				x, y = y, x
			}
			if !x.OK || !y.OK || len(y.Terms) != 0 {
				return bad
			}
			return Affine{C: x.C * y.C, Terms: addTerms(nil, x.Terms, y.C), OK: true}
		}
		return bad
	default:
		return bad
	}
}

// addTerms returns the sorted, zero-free terms of x + k·y. It returns x or
// y itself when the other side contributes nothing, so the result may
// share either input's backing array.
func addTerms(x, y []Term, k int64) []Term {
	switch {
	case len(y) == 0 || k == 0:
		return x
	case len(x) == 0 && k == 1:
		return y
	}
	out := make([]Term, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		var t Term
		switch {
		case j == len(y) || i < len(x) && x[i].Var < y[j].Var:
			t = x[i]
			i++
		case i == len(x) || y[j].Var < x[i].Var:
			t = Term{Var: y[j].Var, Co: k * y[j].Co}
			j++
		default:
			t = Term{Var: x[i].Var, Co: x[i].Co + k*y[j].Co}
			i++
			j++
		}
		if t.Co != 0 {
			out = append(out, t)
		}
	}
	return out
}

// Coeff returns the coefficient of variable v (zero if absent).
func (a Affine) Coeff(v string) int64 {
	for _, t := range a.Terms {
		if t.Var == v {
			return t.Co
		}
	}
	return 0
}

// IsConst reports whether the form has no variable terms.
func (a Affine) IsConst() bool { return a.OK && len(a.Terms) == 0 }

// Key canonicalises the variable part of the form as "v*co;" per term in
// name order; two forms with equal Key differ only by their constant.
func (a Affine) Key() string {
	b := make([]byte, 0, 16*len(a.Terms))
	for _, t := range a.Terms {
		b = append(b, t.Var...)
		b = append(b, '*')
		b = strconv.AppendInt(b, t.Co, 10)
		b = append(b, ';')
	}
	return string(b)
}

// Vars returns the form's variables in sorted order.
func (a Affine) Vars() []string {
	vs := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		vs[i] = t.Var
	}
	return vs
}

// DropVar returns the form with variable v removed (its term deleted).
func (a Affine) DropVar(v string) Affine {
	out := Affine{C: a.C, Terms: a.Terms, OK: a.OK}
	for i, t := range a.Terms {
		if t.Var == v {
			out.Terms = slices.Concat(a.Terms[:i], a.Terms[i+1:])
			break
		}
	}
	return out
}

// LinearAffine computes the affine form of the reference's linear element
// index (row-major). It reports !OK when any index expression is
// non-affine.
func (r *Ref) LinearAffine() Affine {
	lin := Affine{OK: true}
	stride := int64(1)
	for d := len(r.Idx) - 1; d >= 0; d-- {
		ia := AffineOf(r.Idx[d])
		if !ia.OK {
			return Affine{}
		}
		lin.C += ia.C * stride
		lin.Terms = addTerms(lin.Terms, ia.Terms, stride)
		stride *= int64(r.A.Dims[d])
	}
	return lin
}
