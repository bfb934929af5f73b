package hlir

import (
	"fmt"
	"math"
)

// Exec is a program compiled to a tree of Go closures over one frame:
// every scalar name resolves to an int or a float slot, and every array
// reference binds its backing slice and extents, so a run looks nothing
// up by name or by array. It computes what Interp computes and leaves
// bitwise-identical arrays. It makes every check Interp makes, with the
// same error text, raised only when the code holding the check runs and
// in Interp's evaluation order; so a kind error in code that never runs
// stays silent, as it does under Interp.
type Exec struct {
	// F holds float-array storage, I int-array storage, keyed as in
	// Interp. The compiled code is bound to these slices: copy inputs
	// into them, do not replace them.
	F map[*Array][]float64
	I map[*Array][]int64

	outputs []*Array
	body    func()
}

// Compile allocates zeroed storage for every array of p, as NewInterp
// does, and compiles p.Body against it. It cannot fail: an ill-formed
// program compiles to code that returns Interp's error when it runs.
func Compile(p *Program) *Exec {
	x := &Exec{outputs: p.Outputs}
	x.F, x.I = newStorage(p)
	c := &compiler{x: x, zero: new(int64), ints: map[string]*int64{}, floats: map[string]*float64{}}
	x.body = c.block(p.Body)
	return x
}

// Run executes the compiled body.
func (x *Exec) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(fault)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	x.body()
	return nil
}

// Checksum hashes the output arrays exactly as Interp.Checksum does.
func (x *Exec) Checksum() uint64 { return checksum(x.outputs, x.F, x.I) }

// fault carries an evaluation error from the closure that raises it up to
// Run. Any other panic is not the evaluator's and passes through Run.
type fault struct{ err error }

// outOfRange raises Interp's bounds error for subscript v of dim d.
func outOfRange(a *Array, v int64, d int) {
	panic(fault{errIndex(a, v, d)})
}

// fails compiles an expression that fails whenever it runs.
func fails[T any](err error) func() T {
	return func() T { panic(fault{err}) }
}

// raises compiles a statement that fails whenever it runs.
func raises(err error) func() {
	return func() { panic(fault{err}) }
}

type compiler struct {
	x *Exec
	// zero is a slot no name owns; constant subscripts read it.
	zero   *int64
	ints   map[string]*int64
	floats map[string]*float64
}

func (c *compiler) intSlot(name string) *int64 {
	p, ok := c.ints[name]
	if !ok {
		p = new(int64)
		c.ints[name] = p
	}
	return p
}

func (c *compiler) floatSlot(name string) *float64 {
	p, ok := c.floats[name]
	if !ok {
		p = new(float64)
		c.floats[name] = p
	}
	return p
}

// block compiles a statement list into one closure.
func (c *compiler) block(body []Stmt) func() {
	var ss []func()
	for _, st := range body {
		if s := c.stmt(st); s != nil {
			ss = append(ss, s)
		}
	}
	switch len(ss) {
	case 0:
		return func() {}
	case 1:
		return ss[0]
	case 2:
		s0, s1 := ss[0], ss[1]
		return func() { s0(); s1() }
	default:
		return func() {
			for _, s := range ss {
				s()
			}
		}
	}
}

// stmt compiles one statement; a prefetch, which has no semantics,
// compiles to nil.
func (c *compiler) stmt(st Stmt) func() {
	switch st := st.(type) {
	case *Assign:
		return c.assign(st)
	case *Loop:
		return c.loop(st)
	case *If:
		cond, then, els := c.cond(st.Cond), c.block(st.Then), c.block(st.Else)
		return func() {
			if cond() {
				then()
			} else {
				els()
			}
		}
	case *Prefetch:
		return nil
	default:
		return raises(fmt.Errorf("interp: unknown statement %T", st))
	}
}

func (c *compiler) assign(st *Assign) func() {
	switch lhs := st.LHS.(type) {
	case *Var:
		if lhs.K == KFloat {
			p, v := c.floatSlot(lhs.Name), c.float(st.RHS)
			return func() { *p = v() }
		}
		p, v := c.intSlot(lhs.Name), c.int(st.RHS)
		return func() { *p = v() }
	case *Ref:
		if lhs.A.Elem == KFloat {
			s, ok := c.x.F[lhs.A]
			if !ok {
				return raises(errUndeclared(lhs.A))
			}
			return store(c, s, lhs, c.float(st.RHS))
		}
		s, ok := c.x.I[lhs.A]
		if !ok {
			return raises(errUndeclared(lhs.A))
		}
		return store(c, s, lhs, c.int(st.RHS))
	default:
		return raises(fmt.Errorf("interp: bad assignment target %T", st.LHS))
	}
}

func (c *compiler) loop(st *Loop) func() {
	lo, hi := c.int(st.Lo), c.int(st.Hi)
	v, body := c.intSlot(st.Var), c.block(st.Body)
	if st.Step <= 0 {
		err := errStep(st)
		return func() {
			lo()
			hi()
			panic(fault{err})
		}
	}
	step := int64(st.Step)
	return func() {
		l, h := lo(), hi()
		for i := l; i < h; i += step {
			*v = i
			body()
		}
		if l < h {
			*v = l + (h-l+step-1)/step*step
		} else {
			*v = l
		}
	}
}

// cond compiles an if condition: a comparison straight to its truth, any
// other int expression to a test against zero.
func (c *compiler) cond(e Expr) func() bool {
	if b, ok := e.(*Bin); ok && b.Op.IsCmp() {
		return c.cmp(b)
	}
	f := c.int(e)
	return func() bool { return f() != 0 }
}

// offset reports whether e is an int scalar plus a constant (i, i+1, 2+i,
// i-1) or a constant alone, which reads *p + k with no call.
func (c *compiler) offset(e Expr) (p *int64, k int64, ok bool) {
	slot := func(e Expr) *int64 {
		if v, ok := e.(*Var); ok && v.K == KInt {
			return c.intSlot(v.Name)
		}
		return nil
	}
	switch e := e.(type) {
	case *ConstI:
		return c.zero, e.V, true
	case *Var:
		if p := slot(e); p != nil {
			return p, 0, true
		}
	case *Bin:
		y, yc := e.Y.(*ConstI)
		x, xc := e.X.(*ConstI)
		switch {
		case e.Op == OpAdd && yc:
			if p := slot(e.X); p != nil {
				return p, y.V, true
			}
		case e.Op == OpSub && yc:
			if p := slot(e.X); p != nil {
				return p, -y.V, true
			}
		case e.Op == OpAdd && xc:
			if p := slot(e.Y); p != nil {
				return p, x.V, true
			}
		}
	}
	return nil, 0, false
}

func (c *compiler) int(e Expr) func() int64 {
	switch e := e.(type) {
	case *ConstI:
		v := e.V
		return func() int64 { return v }
	case *Var:
		if e.K != KInt {
			return fails[int64](fmt.Errorf("interp: float scalar %s in int context", e.Name))
		}
		p := c.intSlot(e.Name)
		return func() int64 { return *p }
	case *Ref:
		if e.A.Elem != KInt {
			return fails[int64](fmt.Errorf("interp: float array %s in int context", e.A.Name))
		}
		s, ok := c.x.I[e.A]
		if !ok {
			return fails[int64](errUndeclared(e.A))
		}
		return load(c, s, e)
	case *Bin:
		if e.Op.IsCmp() {
			b := c.cmp(e)
			return func() int64 {
				if b() {
					return 1
				}
				return 0
			}
		}
		if p, k, ok := c.offset(e); ok {
			return func() int64 { return *p + k }
		}
		x, y := c.int(e.X), c.int(e.Y)
		switch e.Op {
		case OpAdd:
			return func() int64 { return x() + y() }
		case OpSub:
			return func() int64 { return x() - y() }
		case OpMul:
			return func() int64 { return x() * y() }
		case OpMod:
			if k, ok := e.Y.(*ConstI); ok && k.V > 0 && k.V&(k.V-1) == 0 {
				mask := k.V - 1
				return func() int64 { return x() & mask }
			}
			return func() int64 {
				a, b := x(), y()
				if b <= 0 || b&(b-1) != 0 {
					panic(fault{errMod(b)})
				}
				return a & (b - 1)
			}
		}
		err := fmt.Errorf("interp: operator %v not valid on ints", e.Op)
		return func() int64 {
			x()
			y()
			panic(fault{err})
		}
	case *Un:
		switch e.Op {
		case OpNeg:
			x := c.int(e.X)
			return func() int64 { return -x() }
		case OpCvtFI:
			x := c.float(e.X)
			return func() int64 { return int64(x()) }
		}
		return fails[int64](fmt.Errorf("interp: unary %d not valid on ints", e.Op))
	}
	return fails[int64](fmt.Errorf("interp: unknown int expression %T", e))
}

// cmp compiles a comparison, in the kind of its first operand.
func (c *compiler) cmp(e *Bin) func() bool {
	if e.X.Kind() == KFloat {
		x, y := c.float(e.X), c.float(e.Y)
		switch e.Op {
		case OpEq:
			return func() bool { return x() == y() }
		case OpNe:
			return func() bool { return x() != y() }
		case OpLt:
			return func() bool { return x() < y() }
		case OpLe:
			return func() bool { return x() <= y() }
		}
		err := fmt.Errorf("interp: bad float comparison %v", e.Op)
		return func() bool {
			x()
			y()
			panic(fault{err})
		}
	}
	x, y := c.int(e.X), c.int(e.Y)
	switch e.Op {
	case OpEq:
		return func() bool { return x() == y() }
	case OpNe:
		return func() bool { return x() != y() }
	case OpLt:
		return func() bool { return x() < y() }
	case OpLe:
		return func() bool { return x() <= y() }
	}
	err := fmt.Errorf("interp: bad int comparison %v", e.Op)
	return func() bool {
		x()
		y()
		panic(fault{err})
	}
}

func (c *compiler) float(e Expr) func() float64 {
	switch e := e.(type) {
	case *ConstF:
		v := e.V
		return func() float64 { return v }
	case *Var:
		if e.K != KFloat {
			return fails[float64](fmt.Errorf("interp: int scalar %s in float context", e.Name))
		}
		p := c.floatSlot(e.Name)
		return func() float64 { return *p }
	case *Ref:
		if e.A.Elem != KFloat {
			return fails[float64](fmt.Errorf("interp: int array %s in float context", e.A.Name))
		}
		s, ok := c.x.F[e.A]
		if !ok {
			return fails[float64](errUndeclared(e.A))
		}
		return load(c, s, e)
	case *Bin:
		x, y := c.float(e.X), c.float(e.Y)
		switch e.Op {
		case OpAdd:
			return func() float64 { return x() + y() }
		case OpSub:
			return func() float64 { return x() - y() }
		case OpMul:
			return func() float64 { return x() * y() }
		case OpDiv:
			return func() float64 { return x() / y() }
		}
		err := fmt.Errorf("interp: operator %v not valid on floats", e.Op)
		return func() float64 {
			x()
			y()
			panic(fault{err})
		}
	case *Un:
		switch e.Op {
		case OpCvtIF:
			x := c.int(e.X)
			return func() float64 { return float64(x()) }
		case OpNeg:
			x := c.float(e.X)
			return func() float64 { return -x() }
		case OpSqrt:
			x := c.float(e.X)
			return func() float64 { return math.Sqrt(x()) }
		case OpAbs:
			x := c.float(e.X)
			return func() float64 { return math.Abs(x()) }
		}
		return fails[float64](fmt.Errorf("interp: unary %d not valid on floats", e.Op))
	}
	return fails[float64](fmt.Errorf("interp: unknown float expression %T", e))
}

// subscript is one compiled array index and its dimension's extent n.
// Its value is f() when f is set, else *p + k.
type subscript struct {
	f    func() int64
	p    *int64
	k, n int64
}

func (s *subscript) value() int64 {
	if s.f != nil {
		return s.f()
	}
	return *s.p + s.k
}

// subscripts compiles r's subscripts in order.
func (c *compiler) subscripts(r *Ref) []subscript {
	ss := make([]subscript, len(r.Idx))
	for d, e := range r.Idx {
		ss[d].n = int64(r.A.Dims[d])
		if p, k, ok := c.offset(e); ok {
			ss[d].p, ss[d].k = p, k
		} else {
			ss[d].f = c.int(e)
		}
	}
	return ss
}

// index compiles the row-major element index of a reference to a, with
// subscripts ss, checking each subscript against its extent as it is
// computed. References of one to three dimensions, all the workloads
// make, have the same computation spelled out in load and store.
func index(a *Array, ss []subscript) func() int64 {
	return func() int64 {
		var lin int64
		for d := range ss {
			v := ss[d].value()
			if v < 0 || v >= ss[d].n {
				outOfRange(a, v, d)
			}
			lin = lin*ss[d].n + v
		}
		return lin
	}
}

// load compiles a read of r from s, the storage bound to its array.
func load[T int64 | float64](c *compiler, s []T, r *Ref) func() T {
	if len(r.Idx) != len(r.A.Dims) {
		return fails[T](errArity(r))
	}
	a, ss := r.A, c.subscripts(r)
	switch len(ss) {
	case 1:
		x := ss[0]
		return func() T {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			return s[v]
		}
	case 2:
		x, y := ss[0], ss[1]
		return func() T {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			w := y.value()
			if w < 0 || w >= y.n {
				outOfRange(a, w, 1)
			}
			return s[v*y.n+w]
		}
	case 3:
		x, y, z := ss[0], ss[1], ss[2]
		return func() T {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			w := y.value()
			if w < 0 || w >= y.n {
				outOfRange(a, w, 1)
			}
			u := z.value()
			if u < 0 || u >= z.n {
				outOfRange(a, u, 2)
			}
			return s[(v*y.n+w)*z.n+u]
		}
	}
	lin := index(a, ss)
	return func() T { return s[lin()] }
}

// store compiles the assignment of rhs to r in s, the storage bound to
// its array: the subscripts are checked before rhs runs.
func store[T int64 | float64](c *compiler, s []T, r *Ref, rhs func() T) func() {
	if len(r.Idx) != len(r.A.Dims) {
		return raises(errArity(r))
	}
	a, ss := r.A, c.subscripts(r)
	switch len(ss) {
	case 1:
		x := ss[0]
		return func() {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			s[v] = rhs()
		}
	case 2:
		x, y := ss[0], ss[1]
		return func() {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			w := y.value()
			if w < 0 || w >= y.n {
				outOfRange(a, w, 1)
			}
			i := v*y.n + w
			s[i] = rhs()
		}
	case 3:
		x, y, z := ss[0], ss[1], ss[2]
		return func() {
			v := x.value()
			if v < 0 || v >= x.n {
				outOfRange(a, v, 0)
			}
			w := y.value()
			if w < 0 || w >= y.n {
				outOfRange(a, w, 1)
			}
			u := z.value()
			if u < 0 || u >= z.n {
				outOfRange(a, u, 2)
			}
			i := (v*y.n+w)*z.n + u
			s[i] = rhs()
		}
	}
	lin := index(a, ss)
	return func() {
		i := lin()
		s[i] = rhs()
	}
}
