// Package lower translates HLIR programs into the low-level Alpha-like IR:
// loops become bottom-tested branch structures, array references become
// address arithmetic plus annotated loads/stores, and simple conditionals
// are predicated into conditional moves (the Multiflow behaviour the paper
// relies on when deciding which loops are unrollable).
//
// Address lowering performs affine analysis of index expressions. The
// loop-variant part of an address (the affine terms over scalars) becomes a
// shared base register, reused across references via common-subexpression
// caching within a block; the constant part becomes the load/store
// displacement. The (array, base, displacement) triple feeds the MemRef
// disambiguator, giving the scheduler the array dependence analysis the
// paper credits Multiflow with (Section 5.5).
package lower

import (
	"fmt"
	"strconv"

	"repro/internal/hlir"
	"repro/internal/ir"
)

// Result carries the lowered function plus the mapping from HLIR arrays to
// low-level array IDs (needed to initialise inputs and hash outputs).
type Result struct {
	// Fn is the lowered function.
	Fn *ir.Func
	// ArrayID maps each HLIR array to its ir array id.
	ArrayID map[*hlir.Array]int
}

// Lower translates p. It fails on malformed programs (kind mismatches,
// non-power-of-two modulus, stores to undeclared arrays).
func Lower(p *hlir.Program) (*Result, error) {
	c := &ctx{
		fn:      &ir.Func{Name: p.Name},
		vars:    map[string]ir.Reg{},
		arrayID: map[*hlir.Array]int{},
		baseID:  map[string]int{},
		cse:     map[cseKey]cseEntry{},
		vers:    map[string]int{},
	}
	for _, a := range p.Arrays {
		c.arrayID[a] = c.fn.AddArray(a.Name, a.Size())
	}
	c.cur = c.fn.NewBlock()
	if err := c.stmts(p.Body); err != nil {
		return nil, err
	}
	c.emit(&ir.Instr{Op: ir.OpRet})
	if err := c.fn.Validate(); err != nil {
		return nil, fmt.Errorf("lower: generated invalid IR: %w", err)
	}
	return &Result{Fn: c.fn, ArrayID: c.arrayID}, nil
}

// cseKind tells what a cached value is, and so what cseKey.n means.
type cseKind uint8

const (
	cseConst  cseKind = iota // integer constant n
	cseArray                 // address of array n
	cseScaled                // scalar v times n
	cseBase                  // address base with base ID n
)

// cseKey names a value in the per-block CSE cache.
type cseKey struct {
	kind cseKind
	v    string
	n    int64
}

type cseEntry struct {
	reg ir.Reg
	// deps holds the terms whose scalars the cached value depends on. It
	// may share the term slice of the affine form it came from.
	deps []hlir.Term
}

type ctx struct {
	fn      *ir.Func
	cur     *ir.Block
	vars    map[string]ir.Reg
	arrayID map[*hlir.Array]int
	// baseID numbers address bases in first-seen order, keyed by their
	// versioned rendering; keyBuf is the buffer that rendering reuses.
	baseID map[string]int
	keyBuf []byte
	cse    map[cseKey]cseEntry
	seq    int
	// vers counts assignments per scalar. Symbolic address bases are
	// keyed by (variable, version) pairs so two references share a
	// MemRef base — and thus disambiguate by displacement — only when no
	// assignment to any involved variable lies between them. Without the
	// versioning, vec[i] before an i++ and vec[i-1] after it would look
	// disjoint while touching the same element.
	vers map[string]int
}

// emit appends an instruction to the current block, stamping Seq and Home.
func (c *ctx) emit(in *ir.Instr) *ir.Instr {
	in.Seq = c.seq
	c.seq++
	in.Home = c.cur.ID
	c.cur.Instrs = append(c.cur.Instrs, in)
	return in
}

// newBlock starts a new current block; the caller wires predecessor edges.
// The CSE cache is emptied: cached values need not dominate the new block.
func (c *ctx) newBlock() *ir.Block {
	c.cur = c.fn.NewBlock()
	clear(c.cse)
	return c.cur
}

// invalidate drops CSE entries that depend on scalar name and bumps the
// scalar's version for address-base naming.
func (c *ctx) invalidate(name string) {
	c.vers[name]++
	for k, e := range c.cse {
		for _, d := range e.deps {
			if d.Var == name {
				delete(c.cse, k)
				break
			}
		}
	}
}

// baseIDOf returns the base ID of array aid's address base lin, numbering
// new bases in first-seen order. A base is named by the array and the
// variable part of lin, each variable rendered with its current assignment
// version ("a<aid>|" then "<var>@<version>*<coeff>;" per term in name
// order); the rendering goes into a reused buffer, so a known base
// allocates nothing.
func (c *ctx) baseIDOf(aid int, lin hlir.Affine) int {
	b := append(c.keyBuf[:0], 'a')
	b = strconv.AppendInt(b, int64(aid), 10)
	b = append(b, '|')
	for _, t := range lin.Terms {
		b = append(b, t.Var...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(c.vers[t.Var]), 10)
		b = append(b, '*')
		b = strconv.AppendInt(b, t.Co, 10)
		b = append(b, ';')
	}
	c.keyBuf = b
	if bid, ok := c.baseID[string(b)]; ok {
		return bid
	}
	bid := len(c.baseID)
	c.baseID[string(b)] = bid
	return bid
}

// varReg returns (creating on first use) the register backing scalar name.
func (c *ctx) varReg(name string, k hlir.Kind) ir.Reg {
	if r, ok := c.vars[name]; ok {
		return r
	}
	cls := ir.RegInt
	if k == hlir.KFloat {
		cls = ir.RegFP
	}
	r := c.fn.NewReg(cls)
	c.vars[name] = r
	return r
}

func (c *ctx) stmts(body []hlir.Stmt) error {
	for _, st := range body {
		if err := c.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (c *ctx) stmt(st hlir.Stmt) error {
	switch st := st.(type) {
	case *hlir.Assign:
		return c.assign(st)
	case *hlir.Loop:
		return c.loop(st)
	case *hlir.If:
		return c.ifStmt(st)
	case *hlir.Prefetch:
		return c.prefetch(st)
	default:
		return fmt.Errorf("lower: unknown statement %T", st)
	}
}

// prefetch lowers a cache-line hint: the address computes like a load's
// but the instruction writes nothing and carries no ordering constraints.
func (c *ctx) prefetch(st *hlir.Prefetch) error {
	base, disp, mem, err := c.address(st.Ref)
	if err != nil {
		return err
	}
	c.emit(&ir.Instr{Op: ir.OpPrefetch, Src: [2]ir.Reg{base}, Imm: disp, Mem: mem})
	return nil
}

func (c *ctx) assign(st *hlir.Assign) error {
	switch lhs := st.LHS.(type) {
	case *hlir.Var:
		v, err := c.expr(st.RHS)
		if err != nil {
			return err
		}
		dst := c.varReg(lhs.Name, lhs.K)
		if lhs.K != st.RHS.Kind() {
			return fmt.Errorf("lower: assigning %v value to %v scalar %s", st.RHS.Kind(), lhs.K, lhs.Name)
		}
		op := ir.OpMov
		if lhs.K == hlir.KFloat {
			op = ir.OpFMov
		}
		c.emit(&ir.Instr{Op: op, Dst: dst, Src: [2]ir.Reg{v}})
		c.invalidate(lhs.Name)
		return nil
	case *hlir.Ref:
		if lhs.A.Elem != st.RHS.Kind() {
			return fmt.Errorf("lower: storing %v value into %v array %s", st.RHS.Kind(), lhs.A.Elem, lhs.A.Name)
		}
		v, err := c.expr(st.RHS)
		if err != nil {
			return err
		}
		base, disp, mem, err := c.address(lhs)
		if err != nil {
			return err
		}
		op := ir.OpSt
		if lhs.A.Elem == hlir.KFloat {
			op = ir.OpStF
		}
		c.emit(&ir.Instr{Op: op, Src: [2]ir.Reg{v, base}, Imm: disp, Mem: mem})
		return nil
	default:
		return fmt.Errorf("lower: bad assignment target %T", st.LHS)
	}
}

// loop lowers: Var = Lo; if Var < Hi { do { body; Var += Step } while (Var < Hi) }.
// The body entry is marked as a loop head so trace growth stops at the back
// edge, as the paper requires.
func (c *ctx) loop(st *hlir.Loop) error {
	if st.Step <= 0 {
		return fmt.Errorf("lower: loop %s has step %d", st.Var, st.Step)
	}
	lo, err := c.expr(st.Lo)
	if err != nil {
		return err
	}
	hi, err := c.expr(st.Hi)
	if err != nil {
		return err
	}
	// Copy the bound into a stable register (the bound expression's
	// register may be reused by CSE).
	hiReg := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: ir.OpMov, Dst: hiReg, Src: [2]ir.Reg{hi}})
	iv := c.varReg(st.Var, hlir.KInt)
	c.emit(&ir.Instr{Op: ir.OpMov, Dst: iv, Src: [2]ir.Reg{lo}})
	c.invalidate(st.Var)

	// Guard: skip the loop when the trip count is zero.
	t := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: ir.OpCmpLt, Dst: t, Src: [2]ir.Reg{iv, hiReg}})
	guard := c.emit(&ir.Instr{Op: ir.OpBeq, Src: [2]ir.Reg{t}})
	guardBlk := c.cur

	header := c.newBlock()
	header.LoopHead = true
	guardBlk.Succs = []int{-1, header.ID} // taken target patched to exit below
	if err := c.stmts(st.Body); err != nil {
		return err
	}
	// Latch: increment and test, in the block where the body ended.
	c.emit(&ir.Instr{Op: ir.OpAdd, Dst: iv, Src: [2]ir.Reg{iv}, UseImm: true, Imm: int64(st.Step)})
	c.invalidate(st.Var)
	t2 := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: ir.OpCmpLt, Dst: t2, Src: [2]ir.Reg{iv, hiReg}})
	c.emit(&ir.Instr{Op: ir.OpBne, Src: [2]ir.Reg{t2}, Target: header.ID})
	latchBlk := c.cur

	exit := c.newBlock()
	latchBlk.Succs = []int{header.ID, exit.ID}
	guard.Target = exit.ID
	guardBlk.Succs[0] = exit.ID
	return nil
}

// ifStmt lowers a conditional, predicating simple single-assignment
// conditionals into conditional moves when possible.
func (c *ctx) ifStmt(st *hlir.If) error {
	if ok, err := c.tryPredicate(st); ok || err != nil {
		return err
	}
	cond, err := c.expr(st.Cond)
	if err != nil {
		return err
	}
	br := c.emit(&ir.Instr{Op: ir.OpBeq, Src: [2]ir.Reg{cond}})
	condBlk := c.cur

	thenBlk := c.newBlock()
	condBlk.Succs = []int{-1, thenBlk.ID} // taken (cond false) patched below
	if err := c.stmts(st.Then); err != nil {
		return err
	}
	thenEnd := c.cur

	if len(st.Else) == 0 {
		join := c.newBlock()
		thenEnd.Succs = []int{join.ID}
		br.Target = join.ID
		condBlk.Succs[0] = join.ID
		return nil
	}
	thenBr := c.emit(&ir.Instr{Op: ir.OpBr})
	elseBlk := c.newBlock()
	br.Target = elseBlk.ID
	condBlk.Succs[0] = elseBlk.ID
	if err := c.stmts(st.Else); err != nil {
		return err
	}
	elseEnd := c.cur
	join := c.newBlock()
	elseEnd.Succs = []int{join.ID}
	thenBr.Target = join.ID
	thenEnd.Succs = []int{join.ID}
	return nil
}

// tryPredicate converts simple conditionals to conditional moves: an If
// whose branches contain only scalar assignments (at most two per branch)
// with no array stores. This mirrors the paper's footnote: "the Multiflow
// compiler does predicated execution on simple conditional branches".
func (c *ctx) tryPredicate(st *hlir.If) (bool, error) {
	simple := func(body []hlir.Stmt) bool {
		if len(body) == 0 || len(body) > 2 {
			return len(body) == 0
		}
		for _, s := range body {
			a, ok := s.(*hlir.Assign)
			if !ok {
				return false
			}
			if _, ok := a.LHS.(*hlir.Var); !ok {
				return false
			}
		}
		return true
	}
	if len(st.Then) == 0 || !simple(st.Then) || !simple(st.Else) {
		return false, nil
	}
	cond, err := c.expr(st.Cond)
	if err != nil {
		return false, err
	}
	apply := func(body []hlir.Stmt, op, fop ir.Op) error {
		for _, s := range body {
			a := s.(*hlir.Assign)
			lhs := a.LHS.(*hlir.Var)
			if lhs.K != a.RHS.Kind() {
				return fmt.Errorf("lower: predicated assign kind mismatch for %s", lhs.Name)
			}
			v, err := c.expr(a.RHS)
			if err != nil {
				return err
			}
			dst := c.varReg(lhs.Name, lhs.K)
			use := op
			if lhs.K == hlir.KFloat {
				use = fop
			}
			c.emit(&ir.Instr{Op: use, Dst: dst, Src: [2]ir.Reg{cond, v}})
			c.invalidate(lhs.Name)
		}
		return nil
	}
	if err := apply(st.Then, ir.OpCmovNe, ir.OpFCmovNe); err != nil {
		return true, err
	}
	if err := apply(st.Else, ir.OpCmovEq, ir.OpFCmovEq); err != nil {
		return true, err
	}
	return true, nil
}

// expr lowers an expression and returns the register holding its value.
func (c *ctx) expr(e hlir.Expr) (ir.Reg, error) {
	switch e := e.(type) {
	case *hlir.ConstI:
		return c.cached(cseKey{kind: cseConst, n: e.V}, nil, func() ir.Reg {
			dst := c.fn.NewReg(ir.RegInt)
			c.emit(&ir.Instr{Op: ir.OpMovi, Dst: dst, Imm: e.V})
			return dst
		}), nil
	case *hlir.ConstF:
		r := c.fn.NewReg(ir.RegFP)
		c.emit(&ir.Instr{Op: ir.OpFMovi, Dst: r, FImm: e.V})
		return r, nil
	case *hlir.Var:
		return c.varReg(e.Name, e.K), nil
	case *hlir.Ref:
		return c.load(e)
	case *hlir.Bin:
		return c.bin(e)
	case *hlir.Un:
		return c.un(e)
	default:
		return ir.NoReg, fmt.Errorf("lower: unknown expression %T", e)
	}
}

// cached returns the register for key from the CSE cache, or materialises
// it by running gen and remembering the produced register.
func (c *ctx) cached(key cseKey, deps []hlir.Term, gen func() ir.Reg) ir.Reg {
	if e, ok := c.cse[key]; ok {
		return e.reg
	}
	r := gen()
	c.cse[key] = cseEntry{reg: r, deps: deps}
	return r
}

func (c *ctx) bin(e *hlir.Bin) (ir.Reg, error) {
	if e.X.Kind() != e.Y.Kind() {
		return ir.NoReg, fmt.Errorf("lower: %v operands of mixed kind (%v, %v)", e.Op, e.X.Kind(), e.Y.Kind())
	}
	x, err := c.expr(e.X)
	if err != nil {
		return ir.NoReg, err
	}
	// Integer op with constant right operand uses the immediate form.
	if e.X.Kind() == hlir.KInt {
		if ci, ok := e.Y.(*hlir.ConstI); ok {
			return c.intImm(e.Op, x, ci.V)
		}
	}
	y, err := c.expr(e.Y)
	if err != nil {
		return ir.NoReg, err
	}
	if e.X.Kind() == hlir.KFloat {
		return c.fpBin(e.Op, x, y)
	}
	var op ir.Op
	invert := false
	switch e.Op {
	case hlir.OpAdd:
		op = ir.OpAdd
	case hlir.OpSub:
		op = ir.OpSub
	case hlir.OpMul:
		op = ir.OpMul
	case hlir.OpEq:
		op = ir.OpCmpEq
	case hlir.OpNe:
		op = ir.OpCmpEq
		invert = true
	case hlir.OpLt:
		op = ir.OpCmpLt
	case hlir.OpLe:
		op = ir.OpCmpLe
	case hlir.OpMod:
		return ir.NoReg, fmt.Errorf("lower: %% requires a constant power-of-two divisor")
	default:
		return ir.NoReg, fmt.Errorf("lower: operator %v not valid on integers", e.Op)
	}
	r := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: op, Dst: r, Src: [2]ir.Reg{x, y}})
	if invert {
		r2 := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpCmpEq, Dst: r2, Src: [2]ir.Reg{r}, UseImm: true, Imm: 0})
		return r2, nil
	}
	return r, nil
}

func (c *ctx) intImm(op hlir.BinOp, x ir.Reg, v int64) (ir.Reg, error) {
	var iop ir.Op
	invert := false
	switch op {
	case hlir.OpAdd:
		iop = ir.OpAdd
	case hlir.OpSub:
		iop = ir.OpSub
	case hlir.OpMul:
		iop = ir.OpMul
	case hlir.OpEq:
		iop = ir.OpCmpEq
	case hlir.OpNe:
		iop = ir.OpCmpEq
		invert = true
	case hlir.OpLt:
		iop = ir.OpCmpLt
	case hlir.OpLe:
		iop = ir.OpCmpLe
	case hlir.OpMod:
		if v <= 0 || v&(v-1) != 0 {
			return ir.NoReg, fmt.Errorf("lower: %% by %d (need positive power of two)", v)
		}
		r := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpAnd, Dst: r, Src: [2]ir.Reg{x}, UseImm: true, Imm: v - 1})
		return r, nil
	default:
		return ir.NoReg, fmt.Errorf("lower: operator %v not valid on integers", op)
	}
	r := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: iop, Dst: r, Src: [2]ir.Reg{x}, UseImm: true, Imm: v})
	if invert {
		r2 := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpCmpEq, Dst: r2, Src: [2]ir.Reg{r}, UseImm: true, Imm: 0})
		return r2, nil
	}
	return r, nil
}

func (c *ctx) fpBin(op hlir.BinOp, x, y ir.Reg) (ir.Reg, error) {
	var fop ir.Op
	cmp := false
	switch op {
	case hlir.OpAdd:
		fop = ir.OpFAdd
	case hlir.OpSub:
		fop = ir.OpFSub
	case hlir.OpMul:
		fop = ir.OpFMul
	case hlir.OpDiv:
		fop = ir.OpFDiv
	case hlir.OpEq:
		fop, cmp = ir.OpFCmpEq, true
	case hlir.OpLt:
		fop, cmp = ir.OpFCmpLt, true
	case hlir.OpLe:
		fop, cmp = ir.OpFCmpLe, true
	case hlir.OpNe:
		t := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpFCmpEq, Dst: t, Src: [2]ir.Reg{x, y}})
		r := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpCmpEq, Dst: r, Src: [2]ir.Reg{t}, UseImm: true, Imm: 0})
		return r, nil
	default:
		return ir.NoReg, fmt.Errorf("lower: operator %v not valid on floats", op)
	}
	cls := ir.RegFP
	if cmp {
		cls = ir.RegInt
	}
	r := c.fn.NewReg(cls)
	c.emit(&ir.Instr{Op: fop, Dst: r, Src: [2]ir.Reg{x, y}})
	return r, nil
}

func (c *ctx) un(e *hlir.Un) (ir.Reg, error) {
	x, err := c.expr(e.X)
	if err != nil {
		return ir.NoReg, err
	}
	switch e.Op {
	case hlir.OpNeg:
		if e.X.Kind() == hlir.KFloat {
			r := c.fn.NewReg(ir.RegFP)
			c.emit(&ir.Instr{Op: ir.OpFNeg, Dst: r, Src: [2]ir.Reg{x}})
			return r, nil
		}
		z := c.cached(cseKey{kind: cseConst}, nil, func() ir.Reg {
			dst := c.fn.NewReg(ir.RegInt)
			c.emit(&ir.Instr{Op: ir.OpMovi, Dst: dst, Imm: 0})
			return dst
		})
		r := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpSub, Dst: r, Src: [2]ir.Reg{z, x}})
		return r, nil
	case hlir.OpSqrt:
		r := c.fn.NewReg(ir.RegFP)
		c.emit(&ir.Instr{Op: ir.OpFSqrt, Dst: r, Src: [2]ir.Reg{x}})
		return r, nil
	case hlir.OpAbs:
		r := c.fn.NewReg(ir.RegFP)
		c.emit(&ir.Instr{Op: ir.OpFAbs, Dst: r, Src: [2]ir.Reg{x}})
		return r, nil
	case hlir.OpCvtIF:
		r := c.fn.NewReg(ir.RegFP)
		c.emit(&ir.Instr{Op: ir.OpCvtIF, Dst: r, Src: [2]ir.Reg{x}})
		return r, nil
	case hlir.OpCvtFI:
		r := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpCvtFI, Dst: r, Src: [2]ir.Reg{x}})
		return r, nil
	default:
		return ir.NoReg, fmt.Errorf("lower: unknown unary operator %d", e.Op)
	}
}

// load lowers an array reference read.
func (c *ctx) load(r *hlir.Ref) (ir.Reg, error) {
	base, disp, mem, err := c.address(r)
	if err != nil {
		return ir.NoReg, err
	}
	op := ir.OpLd
	cls := ir.RegInt
	if r.A.Elem == hlir.KFloat {
		op = ir.OpLdF
		cls = ir.RegFP
	}
	dst := c.fn.NewReg(cls)
	c.emit(&ir.Instr{Op: op, Dst: dst, Src: [2]ir.Reg{base}, Imm: disp, Mem: mem, Hint: r.Hint})
	return dst, nil
}

// address lowers the address of r, returning the base register (NoReg for
// constant addresses is never produced — a base is always materialised),
// the displacement, and the MemRef annotation.
func (c *ctx) address(r *hlir.Ref) (ir.Reg, int64, *ir.MemRef, error) {
	a := r.A
	aid, ok := c.arrayID[a]
	if !ok {
		return ir.NoReg, 0, nil, fmt.Errorf("lower: array %s not declared in program", a.Name)
	}
	if len(r.Idx) != len(a.Dims) {
		return ir.NoReg, 0, nil, fmt.Errorf("lower: %s has %d dims, referenced with %d indices", a.Name, len(a.Dims), len(r.Idx))
	}
	// Linear element index = Σ idx_d · stride_d (row-major).
	lin := r.LinearAffine()
	if !lin.OK {
		return c.dynamicAddress(r, aid)
	}

	es := a.ElemSize()
	bid := c.baseIDOf(aid, lin)
	base := c.cached(cseKey{kind: cseBase, n: int64(bid)}, lin.Terms, func() ir.Reg {
		return c.materialiseBase(aid, lin, es)
	})
	disp := lin.C * es
	mem := &ir.MemRef{Array: aid, Base: bid, Disp: disp, Width: es, Group: r.Group}
	return base, disp, mem, nil
}

// materialiseBase emits code computing &array + Σ coeff·var·elemSize and
// returns the register holding it.
func (c *ctx) materialiseBase(aid int, lin hlir.Affine, es int64) ir.Reg {
	cur := c.arrayBaseReg(aid)
	for i, t := range lin.Terms {
		co := t.Co * es
		vr := c.varReg(t.Var, hlir.KInt)
		next := c.fn.NewReg(ir.RegInt)
		switch co {
		case 8:
			c.emit(&ir.Instr{Op: ir.OpS8Add, Dst: next, Src: [2]ir.Reg{vr, cur}})
		case 4:
			c.emit(&ir.Instr{Op: ir.OpS4Add, Dst: next, Src: [2]ir.Reg{vr, cur}})
		default:
			scaled := c.cached(cseKey{kind: cseScaled, v: t.Var, n: co}, lin.Terms[i:i+1], func() ir.Reg {
				d := c.fn.NewReg(ir.RegInt)
				c.emit(&ir.Instr{Op: ir.OpMul, Dst: d, Src: [2]ir.Reg{vr}, UseImm: true, Imm: co})
				return d
			})
			c.emit(&ir.Instr{Op: ir.OpAdd, Dst: next, Src: [2]ir.Reg{scaled, cur}})
		}
		cur = next
	}
	return cur
}

// arrayBaseReg returns (CSE-cached) a register holding &array aid.
func (c *ctx) arrayBaseReg(aid int) ir.Reg {
	return c.cached(cseKey{kind: cseArray, n: int64(aid)}, nil, func() ir.Reg {
		d := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpLdA, Dst: d, Imm: int64(aid)})
		return d
	})
}

// dynamicAddress handles non-affine indices (e.g. indirection A[idx[j]]):
// the index value is computed at run time and the reference is marked
// unanalysable (Base -1), so it conflicts with every other reference to
// the same array.
func (c *ctx) dynamicAddress(r *hlir.Ref, aid int) (ir.Reg, int64, *ir.MemRef, error) {
	a := r.A
	// linear = (((i0*d1)+i1)*d2+i2)...
	var lin ir.Reg
	for d, ix := range r.Idx {
		v, err := c.expr(ix)
		if err != nil {
			return ir.NoReg, 0, nil, err
		}
		if ix.Kind() != hlir.KInt {
			return ir.NoReg, 0, nil, fmt.Errorf("lower: non-integer index on %s", a.Name)
		}
		if d == 0 {
			lin = v
			continue
		}
		t := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpMul, Dst: t, Src: [2]ir.Reg{lin}, UseImm: true, Imm: int64(a.Dims[d])})
		t2 := c.fn.NewReg(ir.RegInt)
		c.emit(&ir.Instr{Op: ir.OpAdd, Dst: t2, Src: [2]ir.Reg{t, v}})
		lin = t2
	}
	ab := c.arrayBaseReg(aid)
	addr := c.fn.NewReg(ir.RegInt)
	c.emit(&ir.Instr{Op: ir.OpS8Add, Dst: addr, Src: [2]ir.Reg{lin, ab}})
	mem := &ir.MemRef{Array: aid, Base: -1, Width: a.ElemSize(), Group: r.Group}
	return addr, 0, mem, nil
}
