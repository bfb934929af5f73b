package hlir

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func TestKinds(t *testing.T) {
	p := &Program{Name: "k"}
	af := p.NewArray("A", KFloat, 4)
	ai := p.NewArray("B", KInt, 4)
	tests := []struct {
		e Expr
		k Kind
	}{
		{I(1), KInt},
		{F(1), KFloat},
		{IV("i"), KInt},
		{FV("x"), KFloat},
		{At(af, I(0)), KFloat},
		{At(ai, I(0)), KInt},
		{Add(F(1), F(2)), KFloat},
		{Add(I(1), I(2)), KInt},
		{Lt(F(1), F(2)), KInt}, // comparisons are always int
		{Lt(I(1), I(2)), KInt},
		{Sqrt(F(2)), KFloat},
		{IToF(I(2)), KFloat},
		{FToI(F(2)), KInt},
		{Neg(F(1)), KFloat},
		{Neg(I(1)), KInt},
	}
	for i, tt := range tests {
		if got := tt.e.Kind(); got != tt.k {
			t.Errorf("case %d: Kind = %v, want %v", i, got, tt.k)
		}
	}
}

func TestArrayGeometry(t *testing.T) {
	p := &Program{}
	a := p.NewArray("A", KFloat, 3, 5)
	if a.Len() != 15 || a.Size() != 120 || a.ElemSize() != 8 {
		t.Errorf("geometry: len=%d size=%d elem=%d", a.Len(), a.Size(), a.ElemSize())
	}
}

func TestInterpBasicLoop(t *testing.T) {
	p := &Program{Name: "t"}
	a := p.NewArray("A", KFloat, 10)
	b := p.NewArray("B", KFloat, 10)
	p.Outputs = []*Array{b}
	p.Body = []Stmt{
		For("i", I(0), I(10),
			Set(At(b, IV("i")), Mul(At(a, IV("i")), F(2))),
		),
	}
	it := NewInterp(p)
	for i := range it.F[a] {
		it.F[a][i] = float64(i)
	}
	if err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	for i, v := range it.F[b] {
		if v != 2*float64(i) {
			t.Errorf("B[%d] = %g, want %g", i, v, 2*float64(i))
		}
	}
}

func TestInterpConditionalsAndScalars(t *testing.T) {
	p := &Program{Name: "c"}
	out := p.NewArray("out", KFloat, 4)
	p.Outputs = []*Array{out}
	p.Body = []Stmt{
		Set(FV("s"), F(1)),
		WhenElse(Lt(I(3), I(5)),
			[]Stmt{Set(FV("s"), F(10))},
			[]Stmt{Set(FV("s"), F(20))}),
		Set(At(out, I(0)), FV("s")),
		When(Eq(I(3), I(4)), Set(At(out, I(1)), F(99))),
		Set(FV("acc"), F(0)),
		For("i", I(0), I(5),
			Set(FV("acc"), Add(FV("acc"), IToF(IV("i"))))),
		Set(At(out, I(2)), FV("acc")),
		Set(At(out, I(3)), Sqrt(F(16))),
	}
	it := NewInterp(p)
	if err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 0, 10, 4}
	for i, w := range want {
		if it.F[out][i] != w {
			t.Errorf("out[%d] = %g, want %g", i, it.F[out][i], w)
		}
	}
}

func TestInterpModAndIntOps(t *testing.T) {
	p := &Program{Name: "m"}
	out := p.NewArray("out", KInt, 3)
	p.Outputs = []*Array{out}
	p.Body = []Stmt{
		Set(At(out, I(0)), Mod(I(13), I(8))),
		Set(At(out, I(1)), Mul(Sub(I(10), I(3)), I(2))),
		Set(At(out, I(2)), Neg(I(5))),
	}
	it := NewInterp(p)
	if err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 14, -5}
	for i, w := range want {
		if it.I[out][i] != w {
			t.Errorf("out[%d] = %d, want %d", i, it.I[out][i], w)
		}
	}
}

func TestInterpBoundsCheck(t *testing.T) {
	p := &Program{Name: "b"}
	a := p.NewArray("A", KFloat, 4)
	p.Body = []Stmt{Set(At(a, I(7)), F(1))}
	it := NewInterp(p)
	if err := it.Run(p); err == nil {
		t.Error("out-of-bounds store not reported")
	}
}

func TestInterpLoopVarAfterExit(t *testing.T) {
	// The induction variable must match lowered semantics after the loop:
	// first value >= hi (stepping), or lo when the loop never runs.
	p := &Program{Name: "lv"}
	out := p.NewArray("out", KInt, 2)
	p.Body = []Stmt{
		&Loop{Var: "j", Lo: I(0), Hi: I(10), Step: 4, Body: []Stmt{
			Set(IV("t"), IV("j")),
		}},
		Set(At(out, I(0)), IV("j")),
		&Loop{Var: "k", Lo: I(5), Hi: I(5), Step: 1, Body: []Stmt{
			Set(IV("t"), IV("k")),
		}},
		Set(At(out, I(1)), IV("k")),
	}
	it := NewInterp(p)
	if err := it.Run(p); err != nil {
		t.Fatal(err)
	}
	if it.I[out][0] != 12 {
		t.Errorf("j after loop = %d, want 12", it.I[out][0])
	}
	if it.I[out][1] != 5 {
		t.Errorf("k after empty loop = %d, want 5", it.I[out][1])
	}
}

func TestCloneExprSubstitution(t *testing.T) {
	p := &Program{}
	a := p.NewArray("A", KFloat, 16)
	e := At(a, Add(IV("j"), I(1)))
	c := CloneExpr(e, Subst{"j": Add(IV("j"), I(4))}).(*Ref)
	if c == e || c.Idx[0] == e.Idx[0] {
		t.Fatal("clone shares structure")
	}
	// Evaluate both with j = 2: original → A[3], clone → A[7].
	it := NewInterp(p)
	it.ivars["j"] = 2
	for i := range it.F[a] {
		it.F[a][i] = float64(i)
	}
	v0, err := it.evalF(e)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := it.evalF(c)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 3 || v1 != 7 {
		t.Errorf("subst eval = %g, %g, want 3, 7", v0, v1)
	}
}

func TestCloneStmtShadowing(t *testing.T) {
	// A loop over "i" must shadow an outer substitution of "i".
	inner := For("i", I(0), I(3), Set(FV("s"), IToF(IV("i"))))
	c := CloneStmt(inner, Subst{"i": I(99)}).(*Loop)
	body := c.Body[0].(*Assign)
	v, ok := body.RHS.(*Un).X.(*Var)
	if !ok || v.Name != "i" {
		t.Errorf("loop body variable rewritten despite shadowing: %#v", body.RHS)
	}
}

func TestWalkAndWalkExprs(t *testing.T) {
	p := &Program{}
	a := p.NewArray("A", KFloat, 8)
	body := []Stmt{
		For("i", I(0), I(8),
			When(Lt(IV("i"), I(4)),
				Set(At(a, IV("i")), F(1)))),
	}
	stmts := 0
	Walk(body, func(Stmt) { stmts++ })
	if stmts != 3 { // loop, if, assign
		t.Errorf("Walk visited %d statements, want 3", stmts)
	}
	refs := 0
	WalkExprs(body, func(e Expr) {
		if _, ok := e.(*Ref); ok {
			refs++
		}
	})
	if refs != 1 {
		t.Errorf("WalkExprs found %d refs, want 1", refs)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	p := &Program{Name: "h"}
	a := p.NewArray("A", KFloat, 4)
	p.Outputs = []*Array{a}
	it1 := NewInterp(p)
	it2 := NewInterp(p)
	if it1.Checksum(p) != it2.Checksum(p) {
		t.Error("identical state hashed differently")
	}
	it2.F[a][3] = 1e-300
	if it1.Checksum(p) == it2.Checksum(p) {
		t.Error("differing state hashed identically")
	}
}

// TestChecksumWordIsFNV1a pins the output checksum to 64-bit FNV-1a over
// each word's little-endian bytes, the hash every checksum has used.
func TestChecksumWordIsFNV1a(t *testing.T) {
	h, ref := ChecksumSeed, fnv.New64a()
	for _, w := range []uint64{0, 1, 0xff, 1 << 63, 0x0123456789abcdef, ^uint64(0)} {
		h = ChecksumWord(h, w)
		ref.Write(binary.LittleEndian.AppendUint64(nil, w))
		if h != ref.Sum64() {
			t.Fatalf("after %#x: %#x, FNV-1a gives %#x", w, h, ref.Sum64())
		}
	}
}

func TestProgramClone(t *testing.T) {
	p := &Program{Name: "pc"}
	a := p.NewArray("A", KFloat, 4)
	p.Outputs = []*Array{a}
	p.Body = []Stmt{For("i", I(0), I(4), Set(At(a, IV("i")), F(1)))}
	c := p.Clone()
	// Mutating the clone's loop must not affect the original.
	c.Body[0].(*Loop).Step = 4
	if p.Body[0].(*Loop).Step != 1 {
		t.Error("Clone shares statement structure")
	}
	if c.Arrays[0] != p.Arrays[0] {
		t.Error("Clone must share immutable array descriptors")
	}
}
