package verify

import (
	"fmt"
	"math"
	"unicode"

	"repro/internal/hlir"
)

// This file is the generator-facing HLIR validity checker: Program proves
// a source-level program is well-formed before it enters the pipeline.
// internal/hlirgen calls it as a post-condition on every generated
// program and the shrinker calls it to gate every minimization candidate,
// so the rest of the toolchain only ever sees programs that satisfy the
// front end's implicit contract:
//
//   - declarations are hygienic: identifier names, unique arrays,
//     positive dimensions, declared outputs, scalars disjoint from
//     arrays, one kind per scalar;
//   - every scalar is defined on all paths before it is read
//     (defs-before-use, the HLIR analog of the IR verifier's
//     live-into-entry check);
//   - expressions are kind-correct under the interpreter's rules (no
//     float division of integers, % only by positive power-of-two
//     integer constants, sqrt/abs only on floats);
//   - every array reference is provably in bounds: index expressions are
//     bounded by interval analysis over constant loop ranges, %-masks
//     and — for gather subscripts — the contents of read-only integer
//     arrays supplied by the caller.
//
// The checker is conservative: an index it cannot bound is an error even
// if every run would stay in range. That strictness is the point — the
// generator constructs programs that are in bounds by construction, and
// Program double-checks the construction.

// Program verifies the source-level validity of p. ints optionally
// supplies the initial contents of integer arrays (core.Data.I), which
// bound gather subscripts through read-only index arrays; integer arrays
// that are written inside the program are never trusted as subscripts.
// Prefetch address expressions are exempt from the bounds check, matching
// their may-run-past-the-array semantics.
func Program(p *hlir.Program, ints map[*hlir.Array][]int64) error {
	c := &progChecker{
		p:     p,
		arrs:  map[string]*hlir.Array{},
		bound: map[*hlir.Array]ival{},
		kind:  map[string]hlir.Kind{},
	}
	if err := c.decls(ints); err != nil {
		return &Error{Check: "hlir", Fn: p.Name, Err: err}
	}
	e := &env{ints: map[string]ival{}, fls: map[string]bool{}}
	if err := c.stmts(e, p.Body); err != nil {
		return &Error{Check: "hlir", Fn: p.Name, Err: err}
	}
	return nil
}

// ----- interval domain -----

// ival is an inclusive integer interval; ok=false means unbounded.
type ival struct {
	lo, hi int64
	ok     bool
}

func exactIval(v int64) ival { return ival{v, v, true} }

var unknownIval = ival{}

func (a ival) join(b ival) ival {
	if !a.ok || !b.ok {
		return unknownIval
	}
	return ival{min(a.lo, b.lo), max(a.hi, b.hi), true}
}

func (a ival) add(b ival) ival {
	if !a.ok || !b.ok {
		return unknownIval
	}
	return ival{a.lo + b.lo, a.hi + b.hi, true}
}

func (a ival) sub(b ival) ival {
	if !a.ok || !b.ok {
		return unknownIval
	}
	return ival{a.lo - b.hi, a.hi - b.lo, true}
}

func (a ival) mul(b ival) ival {
	if !a.ok || !b.ok {
		return unknownIval
	}
	p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
	return ival{min(min(p1, p2), min(p3, p4)), max(max(p1, p2), max(p3, p4)), true}
}

func (a ival) neg() ival {
	if !a.ok {
		return unknownIval
	}
	return ival{-a.hi, -a.lo, true}
}

// ----- scalar environment -----

// env tracks which scalars are defined on every path to the current
// program point, with interval bounds for the integer ones.
type env struct {
	ints map[string]ival
	fls  map[string]bool
}

func (e *env) clone() *env {
	c := &env{ints: make(map[string]ival, len(e.ints)), fls: make(map[string]bool, len(e.fls))}
	for k, v := range e.ints {
		c.ints[k] = v
	}
	for k := range e.fls {
		c.fls[k] = true
	}
	return c
}

func (e *env) set(o *env) {
	e.ints = o.ints
	e.fls = o.fls
}

// joinEnv merges two path states: a scalar stays defined only when
// defined on both paths, and integer intervals take the hull.
func joinEnv(a, b *env) *env {
	out := &env{ints: map[string]ival{}, fls: map[string]bool{}}
	for k, av := range a.ints {
		if bv, ok := b.ints[k]; ok {
			out.ints[k] = av.join(bv)
		}
	}
	for k := range a.fls {
		if b.fls[k] {
			out.fls[k] = true
		}
	}
	return out
}

func envEqual(a, b *env) bool {
	if len(a.ints) != len(b.ints) || len(a.fls) != len(b.fls) {
		return false
	}
	for k, av := range a.ints {
		if bv, ok := b.ints[k]; !ok || av != bv {
			return false
		}
	}
	for k := range a.fls {
		if !b.fls[k] {
			return false
		}
	}
	return true
}

// ----- checker -----

type progChecker struct {
	p     *hlir.Program
	arrs  map[string]*hlir.Array
	bound map[*hlir.Array]ival // content bounds for read-only int arrays
	kind  map[string]hlir.Kind // one kind per scalar, flow-insensitive
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case i > 0 && (unicode.IsDigit(r) || r == '#'):
		default:
			return false
		}
	}
	return true
}

func (c *progChecker) decls(ints map[*hlir.Array][]int64) error {
	if !validIdent(c.p.Name) {
		return fmt.Errorf("program name %q is not an identifier", c.p.Name)
	}
	for _, a := range c.p.Arrays {
		if !validIdent(a.Name) {
			return fmt.Errorf("array name %q is not an identifier", a.Name)
		}
		if _, dup := c.arrs[a.Name]; dup {
			return fmt.Errorf("array %s declared twice", a.Name)
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("array %s has no dimensions", a.Name)
		}
		for d, n := range a.Dims {
			if n <= 0 {
				return fmt.Errorf("array %s dimension %d is %d", a.Name, d, n)
			}
		}
		c.arrs[a.Name] = a
	}
	if len(c.p.Outputs) == 0 {
		return fmt.Errorf("program has no output arrays")
	}
	for _, a := range c.p.Outputs {
		if c.arrs[a.Name] != a {
			return fmt.Errorf("output array %s is not declared", a.Name)
		}
	}
	// Content bounds are only sound for integer arrays the program never
	// stores to: a written array's contents are whatever the program
	// computes, so it cannot be trusted as a subscript source.
	written := map[*hlir.Array]bool{}
	hlir.Walk(c.p.Body, func(st hlir.Stmt) {
		if as, ok := st.(*hlir.Assign); ok {
			if ref, ok := as.LHS.(*hlir.Ref); ok {
				written[ref.A] = true
			}
		}
	})
	for _, a := range c.p.Arrays {
		if a.Elem != hlir.KInt || written[a] {
			continue
		}
		if vals, ok := ints[a]; ok && len(vals) > 0 {
			b := exactIval(vals[0])
			for _, v := range vals[1:] {
				b = b.join(exactIval(v))
			}
			c.bound[a] = b
		} else {
			// No initial data: the array reads as all zeros.
			c.bound[a] = exactIval(0)
		}
	}
	return nil
}

// scalarKind registers (or checks) a scalar's kind; every scalar must
// keep one kind program-wide, and scalar names must not shadow arrays.
func (c *progChecker) scalarKind(name string, k hlir.Kind) error {
	if !validIdent(name) {
		return fmt.Errorf("scalar name %q is not an identifier", name)
	}
	if _, isArr := c.arrs[name]; isArr {
		return fmt.Errorf("scalar %s shadows an array of the same name", name)
	}
	if prev, ok := c.kind[name]; ok && prev != k {
		return fmt.Errorf("scalar %s used as both %s and %s", name, prev, k)
	}
	c.kind[name] = k
	return nil
}

func (c *progChecker) stmts(e *env, body []hlir.Stmt) error {
	for _, st := range body {
		if err := c.stmt(e, st); err != nil {
			return err
		}
	}
	return nil
}

func (c *progChecker) stmt(e *env, st hlir.Stmt) error {
	switch st := st.(type) {
	case *hlir.Assign:
		rk, rv, err := c.expr(e, st.RHS)
		if err != nil {
			return err
		}
		switch lhs := st.LHS.(type) {
		case *hlir.Var:
			if lhs.K != rk {
				return fmt.Errorf("assigning %s expression to %s scalar %s", rk, lhs.K, lhs.Name)
			}
			if err := c.scalarKind(lhs.Name, lhs.K); err != nil {
				return err
			}
			if lhs.K == hlir.KInt {
				e.ints[lhs.Name] = rv
			} else {
				e.fls[lhs.Name] = true
			}
		case *hlir.Ref:
			ek, _, err := c.ref(e, lhs, true)
			if err != nil {
				return err
			}
			if ek != rk {
				return fmt.Errorf("storing %s expression into %s array %s", rk, ek, lhs.A.Name)
			}
		default:
			return fmt.Errorf("assignment target must be a scalar or array reference, got %T", st.LHS)
		}
		return nil
	case *hlir.Loop:
		return c.loop(e, st)
	case *hlir.If:
		ck, _, err := c.expr(e, st.Cond)
		if err != nil {
			return err
		}
		if ck != hlir.KInt {
			return fmt.Errorf("if condition must be an integer expression")
		}
		if len(st.Then) == 0 && len(st.Else) == 0 {
			return fmt.Errorf("if with two empty branches")
		}
		then := e.clone()
		if err := c.stmts(then, st.Then); err != nil {
			return err
		}
		els := e.clone()
		if err := c.stmts(els, st.Else); err != nil {
			return err
		}
		e.set(joinEnv(then, els))
		return nil
	case *hlir.Prefetch:
		if st.Ref == nil {
			return fmt.Errorf("prefetch with nil reference")
		}
		// Prefetch addresses may run past the array; kinds and scalar
		// definedness are still checked.
		_, _, err := c.ref(e, st.Ref, false)
		return err
	default:
		return fmt.Errorf("unknown statement %T", st)
	}
}

func (c *progChecker) loop(e *env, st *hlir.Loop) error {
	if st.Step < 1 {
		return fmt.Errorf("loop %s has step %d", st.Var, st.Step)
	}
	if len(st.Body) == 0 {
		return fmt.Errorf("loop %s has an empty body", st.Var)
	}
	if err := c.scalarKind(st.Var, hlir.KInt); err != nil {
		return err
	}
	lk, lov, err := c.expr(e, st.Lo)
	if err != nil {
		return err
	}
	hk, hiv, err := c.expr(e, st.Hi)
	if err != nil {
		return err
	}
	if lk != hlir.KInt || hk != hlir.KInt {
		return fmt.Errorf("loop %s bounds must be integer expressions", st.Var)
	}
	varRange := unknownIval
	if lov.ok && hiv.ok {
		varRange = ival{lov.lo, max(lov.lo, hiv.hi-1), true}
	}

	pre := e.clone()
	entry := e.clone()
	entry.ints[st.Var] = varRange
	var exit *env
	for iter := 0; ; iter++ {
		body := entry.clone()
		if err := c.stmts(body, st.Body); err != nil {
			return fmt.Errorf("loop %s: %w", st.Var, err)
		}
		exit = body
		widened := joinEnv(entry, body)
		widened.ints[st.Var] = varRange
		if envEqual(widened, entry) {
			break
		}
		if iter >= 3 {
			// The loop-carried intervals did not stabilize in a few
			// widening rounds; force stability by dropping the bounds of
			// every still-moving integer and verify once more.
			for name, v := range widened.ints {
				if name == st.Var {
					continue
				}
				if ev, ok := entry.ints[name]; !ok || ev != v {
					widened.ints[name] = unknownIval
				}
			}
			widened.ints[st.Var] = varRange
			final := widened.clone()
			if err := c.stmts(final, st.Body); err != nil {
				return fmt.Errorf("loop %s: %w", st.Var, err)
			}
			exit = final
			break
		}
		entry = widened
	}

	// Post-state: the body's effects are guaranteed only when the loop
	// surely runs (lo < hi provable); otherwise join with the pre-state.
	runs := lov.ok && hiv.ok && lov.hi < hiv.lo
	if runs {
		e.set(exit)
	} else {
		e.set(joinEnv(pre, exit))
	}
	// The induction variable is always defined after the loop: the first
	// value >= hi, or lo when the loop never ran.
	post := unknownIval
	if lov.ok && hiv.ok {
		post = ival{min(lov.lo, hiv.lo), max(lov.lo, hiv.hi+int64(st.Step)-1), true}
	}
	e.ints[st.Var] = post
	return nil
}

// ref checks an array reference and returns the element kind plus, for
// read-only integer arrays, the loaded value's content bounds.
func (c *progChecker) ref(e *env, r *hlir.Ref, bounds bool) (hlir.Kind, ival, error) {
	if r.A == nil {
		return 0, unknownIval, fmt.Errorf("reference with nil array")
	}
	if c.arrs[r.A.Name] != r.A {
		return 0, unknownIval, fmt.Errorf("reference to undeclared array %s", r.A.Name)
	}
	if len(r.Idx) != len(r.A.Dims) {
		return 0, unknownIval, fmt.Errorf("array %s referenced with %d indices, has %d dims",
			r.A.Name, len(r.Idx), len(r.A.Dims))
	}
	for d, ix := range r.Idx {
		k, v, err := c.expr(e, ix)
		if err != nil {
			return 0, unknownIval, err
		}
		if k != hlir.KInt {
			return 0, unknownIval, fmt.Errorf("array %s dim %d indexed by a float expression", r.A.Name, d)
		}
		if !bounds {
			continue
		}
		if !v.ok {
			return 0, unknownIval, fmt.Errorf("array %s dim %d index cannot be bounded", r.A.Name, d)
		}
		if v.lo < 0 || v.hi >= int64(r.A.Dims[d]) {
			return 0, unknownIval, fmt.Errorf("array %s dim %d index range [%d,%d] outside [0,%d)",
				r.A.Name, d, v.lo, v.hi, r.A.Dims[d])
		}
	}
	load := unknownIval
	if r.A.Elem == hlir.KInt {
		if b, ok := c.bound[r.A]; ok {
			load = b
		}
	}
	return r.A.Elem, load, nil
}

// expr kind-checks e and returns its kind plus, for integer expressions,
// its interval bounds.
func (c *progChecker) expr(e *env, x hlir.Expr) (hlir.Kind, ival, error) {
	switch x := x.(type) {
	case *hlir.ConstI:
		return hlir.KInt, exactIval(x.V), nil
	case *hlir.ConstF:
		if math.IsNaN(x.V) || math.IsInf(x.V, 0) {
			return 0, unknownIval, fmt.Errorf("non-finite float literal %v", x.V)
		}
		return hlir.KFloat, unknownIval, nil
	case *hlir.Var:
		if err := c.scalarKind(x.Name, x.K); err != nil {
			return 0, unknownIval, err
		}
		if x.K == hlir.KInt {
			v, ok := e.ints[x.Name]
			if !ok {
				return 0, unknownIval, fmt.Errorf("scalar %s read before it is defined on every path", x.Name)
			}
			return hlir.KInt, v, nil
		}
		if !e.fls[x.Name] {
			return 0, unknownIval, fmt.Errorf("scalar %s read before it is defined on every path", x.Name)
		}
		return hlir.KFloat, unknownIval, nil
	case *hlir.Ref:
		return c.ref(e, x, true)
	case *hlir.Bin:
		return c.bin(e, x)
	case *hlir.Un:
		return c.un(e, x)
	default:
		return 0, unknownIval, fmt.Errorf("unknown expression %T", x)
	}
}

func (c *progChecker) bin(e *env, x *hlir.Bin) (hlir.Kind, ival, error) {
	xk, xv, err := c.expr(e, x.X)
	if err != nil {
		return 0, unknownIval, err
	}
	yk, yv, err := c.expr(e, x.Y)
	if err != nil {
		return 0, unknownIval, err
	}
	if xk != yk {
		return 0, unknownIval, fmt.Errorf("operator %s mixes %s and %s operands", x.Op, xk, yk)
	}
	if x.Op.IsCmp() {
		return hlir.KInt, ival{0, 1, true}, nil
	}
	switch x.Op {
	case hlir.OpAdd:
		if xk == hlir.KInt {
			return hlir.KInt, xv.add(yv), nil
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpSub:
		if xk == hlir.KInt {
			return hlir.KInt, xv.sub(yv), nil
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpMul:
		if xk == hlir.KInt {
			return hlir.KInt, xv.mul(yv), nil
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpDiv:
		if xk != hlir.KFloat {
			return 0, unknownIval, fmt.Errorf("/ is float-only")
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpMod:
		if xk != hlir.KInt {
			return 0, unknownIval, fmt.Errorf("%% is integer-only")
		}
		ci, isConst := x.Y.(*hlir.ConstI)
		if !isConst || ci.V <= 0 || ci.V&(ci.V-1) != 0 {
			return 0, unknownIval, fmt.Errorf("%% divisor must be a positive power-of-two constant")
		}
		return hlir.KInt, ival{0, ci.V - 1, true}, nil
	default:
		return 0, unknownIval, fmt.Errorf("unknown binary operator %d", x.Op)
	}
}

func (c *progChecker) un(e *env, x *hlir.Un) (hlir.Kind, ival, error) {
	xk, xv, err := c.expr(e, x.X)
	if err != nil {
		return 0, unknownIval, err
	}
	switch x.Op {
	case hlir.OpNeg:
		if xk == hlir.KInt {
			return hlir.KInt, xv.neg(), nil
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpSqrt, hlir.OpAbs:
		if xk != hlir.KFloat {
			return 0, unknownIval, fmt.Errorf("sqrt/abs operand must be float")
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpCvtIF:
		if xk != hlir.KInt {
			return 0, unknownIval, fmt.Errorf("float() operand must be int")
		}
		return hlir.KFloat, unknownIval, nil
	case hlir.OpCvtFI:
		if xk != hlir.KFloat {
			return 0, unknownIval, fmt.Errorf("int() operand must be float")
		}
		return hlir.KInt, unknownIval, nil
	default:
		return 0, unknownIval, fmt.Errorf("unknown unary operator %d", x.Op)
	}
}
