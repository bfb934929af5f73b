package hlir

import (
	"fmt"
	"math"
)

// Interp is a direct tree-walking evaluator for HLIR programs, kept as
// the oracle for Exec, the closure-compiled evaluator that
// core.Reference runs: the differential tests demand the same errors,
// bitwise-identical arrays and equal checksums from both, as sim's
// reference stepper checks its fast core. Their shared semantics are the
// reference the compilation pipeline (lower → optimize → schedule →
// allocate → simulate) must reproduce for every benchmark and
// optimization configuration.
type Interp struct {
	// F holds float-array storage, I int-array storage.
	F map[*Array][]float64
	I map[*Array][]int64

	ivars map[string]int64
	fvars map[string]float64
}

// NewInterp allocates zeroed storage for every array of p.
func NewInterp(p *Program) *Interp {
	f, i := newStorage(p)
	return &Interp{F: f, I: i, ivars: map[string]int64{}, fvars: map[string]float64{}}
}

// newStorage allocates zeroed storage for every array of p, float and
// int arrays apart.
func newStorage(p *Program) (map[*Array][]float64, map[*Array][]int64) {
	f, i := map[*Array][]float64{}, map[*Array][]int64{}
	for _, a := range p.Arrays {
		if a.Elem == KFloat {
			f[a] = make([]float64, a.Len())
		} else {
			i[a] = make([]int64, a.Len())
		}
	}
	return f, i
}

// Run executes the program body.
func (it *Interp) Run(p *Program) error {
	return it.stmts(p.Body)
}

func (it *Interp) stmts(body []Stmt) error {
	for _, st := range body {
		if err := it.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (it *Interp) stmt(st Stmt) error {
	switch st := st.(type) {
	case *Assign:
		switch lhs := st.LHS.(type) {
		case *Var:
			if lhs.K == KFloat {
				v, err := it.evalF(st.RHS)
				if err != nil {
					return err
				}
				it.fvars[lhs.Name] = v
			} else {
				v, err := it.evalI(st.RHS)
				if err != nil {
					return err
				}
				it.ivars[lhs.Name] = v
			}
			return nil
		case *Ref:
			// The array must exist, then its subscripts be in range,
			// before the value is computed.
			if lhs.A.Elem == KFloat {
				s, ok := it.F[lhs.A]
				if !ok {
					return errUndeclared(lhs.A)
				}
				idx, err := it.linearIndex(lhs)
				if err != nil {
					return err
				}
				v, err := it.evalF(st.RHS)
				if err != nil {
					return err
				}
				s[idx] = v
			} else {
				s, ok := it.I[lhs.A]
				if !ok {
					return errUndeclared(lhs.A)
				}
				idx, err := it.linearIndex(lhs)
				if err != nil {
					return err
				}
				v, err := it.evalI(st.RHS)
				if err != nil {
					return err
				}
				s[idx] = v
			}
			return nil
		default:
			return fmt.Errorf("interp: bad assignment target %T", st.LHS)
		}
	case *Loop:
		lo, err := it.evalI(st.Lo)
		if err != nil {
			return err
		}
		hi, err := it.evalI(st.Hi)
		if err != nil {
			return err
		}
		if st.Step <= 0 {
			return errStep(st)
		}
		for i := lo; i < hi; i += int64(st.Step) {
			it.ivars[st.Var] = i
			if err := it.stmts(st.Body); err != nil {
				return err
			}
			// The body may assign the induction variable (lowered code
			// does not, but keep semantics aligned: the loop counter is
			// reloaded each iteration from the for-loop state).
		}
		// Mirror lowered semantics: after the loop the variable holds the
		// first value ≥ hi (or lo if the loop never ran).
		if lo < hi {
			n := (hi - lo + int64(st.Step) - 1) / int64(st.Step)
			it.ivars[st.Var] = lo + n*int64(st.Step)
		} else {
			it.ivars[st.Var] = lo
		}
		return nil
	case *If:
		c, err := it.evalI(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return it.stmts(st.Then)
		}
		return it.stmts(st.Else)
	case *Prefetch:
		return nil // timing hint only; may even run past the array
	default:
		return fmt.Errorf("interp: unknown statement %T", st)
	}
}

func (it *Interp) linearIndex(r *Ref) (int64, error) {
	if len(r.Idx) != len(r.A.Dims) {
		return 0, errArity(r)
	}
	var lin int64
	for d, e := range r.Idx {
		v, err := it.evalI(e)
		if err != nil {
			return 0, err
		}
		if v < 0 || v >= int64(r.A.Dims[d]) {
			return 0, errIndex(r.A, v, d)
		}
		lin = lin*int64(r.A.Dims[d]) + v
	}
	return lin, nil
}

func (it *Interp) evalI(e Expr) (int64, error) {
	switch e := e.(type) {
	case *ConstI:
		return e.V, nil
	case *Var:
		if e.K != KInt {
			return 0, fmt.Errorf("interp: float scalar %s in int context", e.Name)
		}
		return it.ivars[e.Name], nil
	case *Ref:
		if e.A.Elem != KInt {
			return 0, fmt.Errorf("interp: float array %s in int context", e.A.Name)
		}
		s, ok := it.I[e.A]
		if !ok {
			return 0, errUndeclared(e.A)
		}
		idx, err := it.linearIndex(e)
		if err != nil {
			return 0, err
		}
		return s[idx], nil
	case *Bin:
		if e.Op.IsCmp() {
			return it.evalCmp(e)
		}
		x, err := it.evalI(e.X)
		if err != nil {
			return 0, err
		}
		y, err := it.evalI(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpAdd:
			return x + y, nil
		case OpSub:
			return x - y, nil
		case OpMul:
			return x * y, nil
		case OpMod:
			if y <= 0 || y&(y-1) != 0 {
				return 0, errMod(y)
			}
			return x & (y - 1), nil
		default:
			return 0, fmt.Errorf("interp: operator %v not valid on ints", e.Op)
		}
	case *Un:
		switch e.Op {
		case OpNeg:
			x, err := it.evalI(e.X)
			if err != nil {
				return 0, err
			}
			return -x, nil
		case OpCvtFI:
			x, err := it.evalF(e.X)
			if err != nil {
				return 0, err
			}
			return int64(x), nil
		default:
			return 0, fmt.Errorf("interp: unary %d not valid on ints", e.Op)
		}
	default:
		return 0, fmt.Errorf("interp: unknown int expression %T", e)
	}
}

func (it *Interp) evalCmp(e *Bin) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	if e.X.Kind() == KFloat {
		x, err := it.evalF(e.X)
		if err != nil {
			return 0, err
		}
		y, err := it.evalF(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpEq:
			return b2i(x == y), nil
		case OpNe:
			return b2i(x != y), nil
		case OpLt:
			return b2i(x < y), nil
		case OpLe:
			return b2i(x <= y), nil
		}
		return 0, fmt.Errorf("interp: bad float comparison %v", e.Op)
	}
	x, err := it.evalI(e.X)
	if err != nil {
		return 0, err
	}
	y, err := it.evalI(e.Y)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case OpEq:
		return b2i(x == y), nil
	case OpNe:
		return b2i(x != y), nil
	case OpLt:
		return b2i(x < y), nil
	case OpLe:
		return b2i(x <= y), nil
	}
	return 0, fmt.Errorf("interp: bad int comparison %v", e.Op)
}

func (it *Interp) evalF(e Expr) (float64, error) {
	switch e := e.(type) {
	case *ConstF:
		return e.V, nil
	case *Var:
		if e.K != KFloat {
			return 0, fmt.Errorf("interp: int scalar %s in float context", e.Name)
		}
		return it.fvars[e.Name], nil
	case *Ref:
		if e.A.Elem != KFloat {
			return 0, fmt.Errorf("interp: int array %s in float context", e.A.Name)
		}
		s, ok := it.F[e.A]
		if !ok {
			return 0, errUndeclared(e.A)
		}
		idx, err := it.linearIndex(e)
		if err != nil {
			return 0, err
		}
		return s[idx], nil
	case *Bin:
		x, err := it.evalF(e.X)
		if err != nil {
			return 0, err
		}
		y, err := it.evalF(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpAdd:
			return x + y, nil
		case OpSub:
			return x - y, nil
		case OpMul:
			return x * y, nil
		case OpDiv:
			return x / y, nil
		default:
			return 0, fmt.Errorf("interp: operator %v not valid on floats", e.Op)
		}
	case *Un:
		switch e.Op {
		case OpCvtIF:
			x, err := it.evalI(e.X)
			if err != nil {
				return 0, err
			}
			return float64(x), nil
		case OpNeg:
			x, err := it.evalF(e.X)
			if err != nil {
				return 0, err
			}
			return -x, nil
		case OpSqrt:
			x, err := it.evalF(e.X)
			if err != nil {
				return 0, err
			}
			return math.Sqrt(x), nil
		case OpAbs:
			x, err := it.evalF(e.X)
			if err != nil {
				return 0, err
			}
			return math.Abs(x), nil
		default:
			return 0, fmt.Errorf("interp: unary %d not valid on floats", e.Op)
		}
	default:
		return 0, fmt.Errorf("interp: unknown float expression %T", e)
	}
}

// Checksum hashes the program's output arrays (FNV-1a over the raw bits),
// providing the cross-configuration equivalence token the tests compare.
func (it *Interp) Checksum(p *Program) uint64 { return checksum(p.Outputs, it.F, it.I) }

// ChecksumSeed is the FNV-1a offset basis an output checksum starts from.
const ChecksumSeed uint64 = 14695981039346656037

// ChecksumWord folds the eight bytes of w, low byte first, into the
// FNV-1a hash h. Every output checksum, whether over an evaluator's
// arrays or over simulator memory, is ChecksumWord applied to each
// element's bits in turn, output array by output array, from
// ChecksumSeed.
func ChecksumWord(h, w uint64) uint64 {
	for i := uint(0); i < 64; i += 8 {
		h ^= (w >> i) & 0xff
		h *= 1099511628211
	}
	return h
}

func checksum(outputs []*Array, f map[*Array][]float64, i map[*Array][]int64) uint64 {
	h := ChecksumSeed
	for _, a := range outputs {
		if a.Elem == KFloat {
			for _, v := range f[a] {
				h = ChecksumWord(h, math.Float64bits(v))
			}
		} else {
			for _, v := range i[a] {
				h = ChecksumWord(h, uint64(v))
			}
		}
	}
	return h
}

// The errors both evaluators raise where the text carries run-time
// values or is raised in more than one place.

func errUndeclared(a *Array) error {
	return fmt.Errorf("interp: array %s is not declared", a.Name)
}

func errArity(r *Ref) error {
	return fmt.Errorf("interp: %s referenced with %d indices, has %d dims", r.A.Name, len(r.Idx), len(r.A.Dims))
}

func errIndex(a *Array, v int64, d int) error {
	return fmt.Errorf("interp: %s index %d out of range [0,%d) in dim %d", a.Name, v, a.Dims[d], d)
}

func errMod(y int64) error { return fmt.Errorf("interp: %% by %d", y) }

func errStep(l *Loop) error { return fmt.Errorf("interp: loop %s step %d", l.Var, l.Step) }
