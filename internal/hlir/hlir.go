// Package hlir is the high-level loop intermediate representation — the
// counterpart of the Multiflow compiler's Phase 2 program form. Programs
// are loop nests over multi-dimensional arrays with affine (or arbitrary)
// index expressions, scalar temporaries and structured conditionals. The
// ILP optimizations that the paper studies at the source level operate
// here: loop unrolling with postconditioning (Figure 4), first-iteration
// peeling (Figure 5) and locality analysis hit/miss marking (Section 3.3).
// internal/lower translates HLIR to the low-level IR for scheduling.
package hlir

import (
	"fmt"

	"repro/internal/ir"
)

// Kind is an expression's value kind.
type Kind uint8

const (
	// KInt is a 64-bit integer value.
	KInt Kind = iota
	// KFloat is a float64 value.
	KFloat
)

func (k Kind) String() string {
	if k == KFloat {
		return "float"
	}
	return "int"
}

// Array is a named, row-major multi-dimensional array of float64 or int64
// elements. The simulator aligns every array on a cache-line boundary, as
// the paper's methodology does.
type Array struct {
	// Name is the source-level name.
	Name string
	// Elem is the element kind.
	Elem Kind
	// Dims are the extents, outermost first.
	Dims []int
}

// ElemSize returns the element size in bytes (always 8 in this model).
func (a *Array) ElemSize() int64 { return 8 }

// Len returns the total element count.
func (a *Array) Len() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Size returns the array's size in bytes.
func (a *Array) Size() int64 { return int64(a.Len()) * a.ElemSize() }

// Expr is a side-effect-free expression tree. Array references within
// expressions denote loads.
type Expr interface {
	// Kind returns the expression's value kind.
	Kind() Kind
	exprNode()
}

// ConstI is an integer literal.
type ConstI struct {
	// V is the literal value.
	V int64
}

// ConstF is a floating-point literal.
type ConstF struct {
	// V is the literal value.
	V float64
}

// Var reads a scalar variable (a loop index or a temporary).
type Var struct {
	// Name identifies the scalar.
	Name string
	// K is the scalar's kind.
	K Kind
}

// Ref is an array reference A[e0][e1]... — a load when used as an
// expression, a store destination when used as an assignment target.
type Ref struct {
	// A is the array referenced.
	A *Array
	// Idx holds one integer index expression per dimension.
	Idx []Expr
	// Hint is the locality-analysis cache prediction for this reference.
	Hint ir.CacheHint
	// Group links references in one locality reuse group; -1 when none.
	Group int
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	// OpAdd is addition (either kind).
	OpAdd BinOp = iota
	// OpSub is subtraction (either kind).
	OpSub
	// OpMul is multiplication (either kind).
	OpMul
	// OpDiv is floating-point division.
	OpDiv
	// OpMod is integer remainder; the divisor must be a positive
	// power-of-two constant (the only form loop postconditioning needs).
	OpMod
	// OpEq compares for equality, yielding int 0/1.
	OpEq
	// OpNe compares for inequality, yielding int 0/1.
	OpNe
	// OpLt compares less-than, yielding int 0/1.
	OpLt
	// OpLe compares less-or-equal, yielding int 0/1.
	OpLe
)

var binNames = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<="}

func (op BinOp) String() string {
	if int(op) < len(binNames) {
		return binNames[op]
	}
	return fmt.Sprintf("BinOp(%d)", uint8(op))
}

// IsCmp reports whether the operator is a comparison.
func (op BinOp) IsCmp() bool { return op >= OpEq }

// Bin applies a binary operator. Comparison results are KInt regardless of
// operand kind.
type Bin struct {
	// Op is the operator.
	Op BinOp
	// X and Y are the operands; they must agree in kind.
	X, Y Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	// OpNeg negates (either kind; integer negation lowers to 0-x).
	OpNeg UnOp = iota
	// OpSqrt is floating-point square root.
	OpSqrt
	// OpAbs is floating-point absolute value.
	OpAbs
	// OpCvtIF converts int to float.
	OpCvtIF
	// OpCvtFI converts float to int (truncating).
	OpCvtFI
)

// Un applies a unary operator.
type Un struct {
	// Op is the operator.
	Op UnOp
	// X is the operand.
	X Expr
}

func (*ConstI) exprNode() {}
func (*ConstF) exprNode() {}
func (*Var) exprNode()    {}
func (*Ref) exprNode()    {}
func (*Bin) exprNode()    {}
func (*Un) exprNode()     {}

// Kind of a ConstI is KInt.
func (*ConstI) Kind() Kind { return KInt }

// Kind of a ConstF is KFloat.
func (*ConstF) Kind() Kind { return KFloat }

// Kind returns the variable's declared kind.
func (v *Var) Kind() Kind { return v.K }

// Kind returns the referenced array's element kind.
func (r *Ref) Kind() Kind { return r.A.Elem }

// Kind of a comparison is KInt; otherwise the operand kind.
func (b *Bin) Kind() Kind {
	if b.Op.IsCmp() {
		return KInt
	}
	return b.X.Kind()
}

// Kind follows the conversion or the operand.
func (u *Un) Kind() Kind {
	switch u.Op {
	case OpCvtIF:
		return KFloat
	case OpCvtFI:
		return KInt
	default:
		return u.X.Kind()
	}
}

// Stmt is a statement.
type Stmt interface{ stmtNode() }

// Assign evaluates RHS and stores it into an array element (LHS is a *Ref)
// or a scalar (LHS is a *Var).
type Assign struct {
	// LHS is the destination: a *Ref (array store) or *Var (scalar).
	LHS Expr
	// RHS is the value.
	RHS Expr
}

// Loop is a counted loop: for Var = Lo; Var < Hi; Var += Step { Body }.
type Loop struct {
	// Var is the integer induction variable's name.
	Var string
	// Lo and Hi are the (integer) bounds; iteration runs while Var < Hi.
	Lo, Hi Expr
	// Step is the constant increment (set by unrolling; 1 in source form).
	Step int
	// Body is the loop body.
	Body []Stmt
	// NoUnroll excludes the loop from the general unroller (set on
	// postcondition remainders and locality-transformed loops).
	NoUnroll bool
}

// If executes Then when Cond is non-zero, else Else.
type If struct {
	// Cond is an integer condition (0 = false).
	Cond Expr
	// Then and Else are the branches; Else may be nil.
	Then, Else []Stmt
}

// Prefetch hints the memory system to fetch Ref's cache line. It has no
// observable semantics (both HLIR evaluators ignore it, and the
// address may run past the array — the hardware hint never faults); it
// only changes timing.
type Prefetch struct {
	// Ref names the location whose line to fetch.
	Ref *Ref
}

func (*Assign) stmtNode()   {}
func (*Loop) stmtNode()     {}
func (*If) stmtNode()       {}
func (*Prefetch) stmtNode() {}

// Program is a complete HLIR program: declarations plus a statement body.
type Program struct {
	// Name identifies the program (benchmark).
	Name string
	// Arrays lists the data arrays.
	Arrays []*Array
	// Body is the program text.
	Body []Stmt
	// Outputs names the arrays whose final contents define the program's
	// observable result (used for cross-configuration checksums).
	Outputs []*Array
}

// NewArray declares an array in the program and returns it.
func (p *Program) NewArray(name string, elem Kind, dims ...int) *Array {
	a := &Array{Name: name, Elem: elem, Dims: dims}
	p.Arrays = append(p.Arrays, a)
	return a
}

// ----- constructor helpers (used heavily by internal/workload) -----

// I makes an integer literal.
func I(v int64) *ConstI { return &ConstI{V: v} }

// F makes a floating-point literal.
func F(v float64) *ConstF { return &ConstF{V: v} }

// IV reads an integer scalar.
func IV(name string) *Var { return &Var{Name: name, K: KInt} }

// FV reads a floating-point scalar.
func FV(name string) *Var { return &Var{Name: name, K: KFloat} }

// At references an array element.
func At(a *Array, idx ...Expr) *Ref { return &Ref{A: a, Idx: idx, Group: -1} }

// Add builds x + y.
func Add(x, y Expr) *Bin { return &Bin{Op: OpAdd, X: x, Y: y} }

// Sub builds x - y.
func Sub(x, y Expr) *Bin { return &Bin{Op: OpSub, X: x, Y: y} }

// Mul builds x * y.
func Mul(x, y Expr) *Bin { return &Bin{Op: OpMul, X: x, Y: y} }

// Div builds x / y (floating point).
func Div(x, y Expr) *Bin { return &Bin{Op: OpDiv, X: x, Y: y} }

// Mod builds x % y (y a power-of-two constant).
func Mod(x, y Expr) *Bin { return &Bin{Op: OpMod, X: x, Y: y} }

// Eq builds x == y.
func Eq(x, y Expr) *Bin { return &Bin{Op: OpEq, X: x, Y: y} }

// Ne builds x != y.
func Ne(x, y Expr) *Bin { return &Bin{Op: OpNe, X: x, Y: y} }

// Lt builds x < y.
func Lt(x, y Expr) *Bin { return &Bin{Op: OpLt, X: x, Y: y} }

// Le builds x <= y.
func Le(x, y Expr) *Bin { return &Bin{Op: OpLe, X: x, Y: y} }

// Neg builds -x.
func Neg(x Expr) *Un { return &Un{Op: OpNeg, X: x} }

// Sqrt builds sqrt(x).
func Sqrt(x Expr) *Un { return &Un{Op: OpSqrt, X: x} }

// Abs builds |x|.
func Abs(x Expr) *Un { return &Un{Op: OpAbs, X: x} }

// IToF converts int to float.
func IToF(x Expr) *Un { return &Un{Op: OpCvtIF, X: x} }

// FToI converts float to int.
func FToI(x Expr) *Un { return &Un{Op: OpCvtFI, X: x} }

// Set assigns to an array element or scalar.
func Set(lhs Expr, rhs Expr) *Assign { return &Assign{LHS: lhs, RHS: rhs} }

// For builds a step-1 counted loop.
func For(v string, lo, hi Expr, body ...Stmt) *Loop {
	return &Loop{Var: v, Lo: lo, Hi: hi, Step: 1, Body: body}
}

// When builds an if without an else branch.
func When(cond Expr, then ...Stmt) *If { return &If{Cond: cond, Then: then} }

// WhenElse builds an if with both branches.
func WhenElse(cond Expr, then, els []Stmt) *If {
	return &If{Cond: cond, Then: then, Else: els}
}

// ----- cloning and substitution -----

// Subst maps variable names to replacement expressions.
type Subst map[string]Expr

// CloneExpr deep-copies e, replacing variables per s (nil s copies as-is).
func CloneExpr(e Expr, s Subst) Expr {
	switch e := e.(type) {
	case *ConstI:
		c := *e
		return &c
	case *ConstF:
		c := *e
		return &c
	case *Var:
		if s != nil {
			if r, ok := s[e.Name]; ok {
				return CloneExpr(r, nil)
			}
		}
		c := *e
		return &c
	case *Ref:
		c := &Ref{A: e.A, Hint: e.Hint, Group: e.Group}
		for _, ix := range e.Idx {
			c.Idx = append(c.Idx, CloneExpr(ix, s))
		}
		return c
	case *Bin:
		return &Bin{Op: e.Op, X: CloneExpr(e.X, s), Y: CloneExpr(e.Y, s)}
	case *Un:
		return &Un{Op: e.Op, X: CloneExpr(e.X, s)}
	default:
		panic(fmt.Sprintf("hlir: unknown expression %T", e))
	}
}

// CloneStmt deep-copies st, replacing variables per s. Loop induction
// variables shadow any substitution of the same name inside their body.
func CloneStmt(st Stmt, s Subst) Stmt {
	switch st := st.(type) {
	case *Assign:
		return &Assign{LHS: CloneExpr(st.LHS, s), RHS: CloneExpr(st.RHS, s)}
	case *Loop:
		inner := s
		if _, shadowed := s[st.Var]; shadowed {
			inner = make(Subst, len(s))
			for k, v := range s {
				if k != st.Var {
					inner[k] = v
				}
			}
		}
		c := &Loop{Var: st.Var, Lo: CloneExpr(st.Lo, s), Hi: CloneExpr(st.Hi, s),
			Step: st.Step, NoUnroll: st.NoUnroll}
		for _, b := range st.Body {
			c.Body = append(c.Body, CloneStmt(b, inner))
		}
		return c
	case *If:
		c := &If{Cond: CloneExpr(st.Cond, s)}
		for _, t := range st.Then {
			c.Then = append(c.Then, CloneStmt(t, s))
		}
		for _, e := range st.Else {
			c.Else = append(c.Else, CloneStmt(e, s))
		}
		return c
	case *Prefetch:
		return &Prefetch{Ref: CloneExpr(st.Ref, s).(*Ref)}
	default:
		panic(fmt.Sprintf("hlir: unknown statement %T", st))
	}
}

// CloneBody deep-copies a statement list with substitution.
func CloneBody(body []Stmt, s Subst) []Stmt {
	out := make([]Stmt, len(body))
	for i, st := range body {
		out[i] = CloneStmt(st, s)
	}
	return out
}

// Clone deep-copies the whole program (sharing Array descriptors, which
// are immutable).
func (p *Program) Clone() *Program {
	return &Program{
		Name:    p.Name,
		Arrays:  append([]*Array(nil), p.Arrays...),
		Body:    CloneBody(p.Body, nil),
		Outputs: append([]*Array(nil), p.Outputs...),
	}
}

// Walk visits every statement in the body tree in pre-order, including
// nested loop and branch bodies. The visitor may mutate statement fields
// but not the tree shape.
func Walk(body []Stmt, visit func(Stmt)) {
	for _, st := range body {
		visit(st)
		switch st := st.(type) {
		case *Loop:
			Walk(st.Body, visit)
		case *If:
			Walk(st.Then, visit)
			Walk(st.Else, visit)
		}
	}
}

// WalkExprs visits every expression tree hanging off the statement list
// (assignment sides, loop bounds, conditions) in pre-order.
func WalkExprs(body []Stmt, visit func(Expr)) {
	var walkE func(Expr)
	walkE = func(e Expr) {
		if e == nil {
			return
		}
		visit(e)
		switch e := e.(type) {
		case *Ref:
			for _, ix := range e.Idx {
				walkE(ix)
			}
		case *Bin:
			walkE(e.X)
			walkE(e.Y)
		case *Un:
			walkE(e.X)
		}
	}
	Walk(body, func(st Stmt) {
		switch st := st.(type) {
		case *Assign:
			walkE(st.LHS)
			walkE(st.RHS)
		case *Loop:
			walkE(st.Lo)
			walkE(st.Hi)
		case *If:
			walkE(st.Cond)
		case *Prefetch:
			walkE(st.Ref)
		}
	})
}
