// Package unroll implements the paper's loop unrolling optimization
// (Section 3.1) at the HLIR level: innermost loops are replicated by the
// unrolling factor with a postconditioned remainder — the Figure 4 shape,
// where leftover iterations execute *after* the unrolled body as a nest of
// guarded copies, so the first unrolled copy retains its locality-analysis
// cache-miss marking.
//
// Following the paper's methodology (Section 4.2), unrolling is disabled
// when the unrolled body would exceed an instruction limit (64 for factor
// 4, 128 for factor 8) and for loops containing more than one internal
// conditional branch that cannot be predicated into a conditional move.
package unroll

import (
	"fmt"

	"repro/internal/hlir"
	"repro/internal/obs"
)

// MaxFactor is the largest unrolling factor a configuration may name.
// Every loop whose body fits the instruction limit unrolls by the full
// factor, and compile time grows faster than the factor: tomcatv
// compiles in about 6 ms at factor 16, 0.15 s at 64 and 3.6 s at 256
// on a 2.1 GHz Xeon vCPU. The paper uses 4 and 8.
const MaxFactor = 16

// InstrLimit returns the paper's unrolled-body instruction limit for an
// unrolling factor: 16 instructions per copy (64 at factor 4, 128 at 8).
func InstrLimit(factor int) int { return 16 * factor }

// Apply returns a copy of p with every eligible innermost loop unrolled by
// factor (a power of two ≥ 2). When a loop body is too large for the full
// factor under the experiment's instruction limit, progressively smaller
// factors are tried — the Multiflow behaviour behind the paper's swm256
// footnote (the higher limit of the factor-8 experiment admits unrolling
// that the factor-4 limit blocked). Loops marked NoUnroll (postcondition
// remainders, locality-transformed loops) are left alone.
func Apply(p *hlir.Program, factor int) *hlir.Program {
	return ApplyObserved(p, factor, nil)
}

// ApplyObserved is Apply recording each loop's unrolling decision
// (fully unrolled / unrolled with postcondition / left alone) and the
// achieved-factor histogram into st. A nil st is free.
func ApplyObserved(p *hlir.Program, factor int, st *obs.Stats) *hlir.Program {
	out := p.Clone()
	out.Body = applyBody(out.Body, factor, st)
	return out
}

func applyBody(body []hlir.Stmt, factor int, obst *obs.Stats) []hlir.Stmt {
	var res []hlir.Stmt
	for _, st := range body {
		switch st := st.(type) {
		case *hlir.Loop:
			st.Body = applyBody(st.Body, factor, obst)
			obst.Inc("unroll/loops_seen")
			if n, ok := ConstTrip(st); ok && n <= int64(factor) && eligible(st) &&
				int(n)*EstimateInstrs(st.Body) <= InstrLimit(factor) {
				// A constant trip count within the unrolling factor:
				// expand the loop completely — no remainder, no branch.
				obst.Inc("unroll/fully_unrolled")
				obst.Observe("unroll/factor", n)
				res = append(res, FullyUnroll(st, int(n))...)
				continue
			}
			if f := BestFactor(st, factor); f >= 2 {
				obst.Inc("unroll/postconditioned")
				if f < factor {
					obst.Inc("unroll/factor_reduced")
				}
				obst.Observe("unroll/factor", int64(f))
				res = append(res, Unroll(st, f)...)
				continue
			}
			obst.Inc("unroll/left_alone")
			res = append(res, st)
		case *hlir.If:
			st.Then = applyBody(st.Then, factor, obst)
			st.Else = applyBody(st.Else, factor, obst)
			res = append(res, st)
		default:
			res = append(res, st)
		}
	}
	return res
}

// BestFactor returns the largest power-of-two factor ≤ requested by which
// l may be unrolled under the requested experiment's instruction limit, or
// 0 when none applies.
func BestFactor(l *hlir.Loop, requested int) int {
	if !eligible(l) {
		return 0
	}
	limit := InstrLimit(requested)
	for f := requested; f >= 2; f /= 2 {
		if f*EstimateInstrs(l.Body) <= limit {
			return f
		}
	}
	return 0
}

// CanUnroll reports whether the paper's criteria admit unrolling l by the
// full factor: step-1 innermost loop, not opted out, at most one
// unpredicable internal conditional, and within the instruction limit.
func CanUnroll(l *hlir.Loop, factor int) bool {
	return factor >= 2 && eligible(l) &&
		factor*EstimateInstrs(l.Body) <= InstrLimit(factor)
}

func eligible(l *hlir.Loop) bool {
	if l.NoUnroll || l.Step != 1 {
		return false
	}
	if containsLoop(l.Body) {
		return false // only innermost loops are unrolled
	}
	return hardBranches(l.Body) <= 1
}

// containsLoop reports whether body nests another loop.
func containsLoop(body []hlir.Stmt) bool {
	found := false
	hlir.Walk(body, func(st hlir.Stmt) {
		if _, ok := st.(*hlir.Loop); ok {
			found = true
		}
	})
	return found
}

// hardBranches counts conditionals that lowering cannot predicate into
// conditional moves (mirroring internal/lower's tryPredicate criteria:
// branches containing anything but one or two scalar assignments).
func hardBranches(body []hlir.Stmt) int {
	n := 0
	hlir.Walk(body, func(st hlir.Stmt) {
		ifst, ok := st.(*hlir.If)
		if !ok {
			return
		}
		if !predicable(ifst.Then) || !predicable(ifst.Else) || len(ifst.Then) == 0 {
			n++
		}
	})
	return n
}

func predicable(body []hlir.Stmt) bool {
	if len(body) > 2 {
		return false
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

// EstimateInstrs estimates the lowered instruction count of a statement
// list; the unroller compares factor × estimate against the limit. The
// estimator is calibrated against internal/lower's code generation:
// scalars live in registers (free), affine array references cost a load
// plus an amortised share of the common-subexpression-cached address
// arithmetic, and constants cost one materialisation.
func EstimateInstrs(body []hlir.Stmt) int {
	n := 0
	for _, st := range body {
		switch st := st.(type) {
		case *hlir.Assign:
			n += estimateExpr(st.RHS)
			if ref, isRef := st.LHS.(*hlir.Ref); isRef {
				n += 2 // store + amortised address
				if !ref.LinearAffine().OK {
					n++
					for _, ix := range ref.Idx {
						n += estimateExpr(ix)
					}
				}
			} else {
				n++ // move
			}
		case *hlir.If:
			n += 2 + estimateExpr(st.Cond) + EstimateInstrs(st.Then) + EstimateInstrs(st.Else)
		case *hlir.Loop:
			n += 5 + estimateExpr(st.Lo) + estimateExpr(st.Hi) + EstimateInstrs(st.Body)
		case *hlir.Prefetch:
			n += 2
		}
	}
	return n
}

func estimateExpr(e hlir.Expr) int {
	switch e := e.(type) {
	case *hlir.Ref:
		if e.LinearAffine().OK {
			return 2 // load + amortised, CSE-shared address arithmetic
		}
		n := 3 // load + scaled add + linearisation
		for _, ix := range e.Idx {
			n += estimateExpr(ix)
		}
		return n
	case *hlir.Var:
		return 0 // scalars are register resident
	case *hlir.Bin:
		return 1 + estimateExpr(e.X) + estimateExpr(e.Y)
	case *hlir.Un:
		return 1 + estimateExpr(e.X)
	default:
		return 1 // constant materialisation
	}
}

// Unroll rewrites l into the paper's Figure 4 shape and returns the
// replacement statements: a step-factor main loop over
// [Lo, Hi − (Hi−Lo) mod factor) containing factor body copies with the
// induction variable offset by 0..factor−1, followed by a postconditioned
// remainder — factor−1 nested conditionals each executing one leftover
// iteration.
func Unroll(l *hlir.Loop, factor int) []hlir.Stmt {
	v := l.Var
	span := hlir.Sub(hlir.CloneExpr(l.Hi, nil), hlir.CloneExpr(l.Lo, nil))
	mainHi := hlir.Sub(hlir.CloneExpr(l.Hi, nil), hlir.Mod(span, hlir.I(int64(factor))))

	private := privatizable(l.Body)
	main := &hlir.Loop{Var: v, Lo: hlir.CloneExpr(l.Lo, nil), Hi: mainHi,
		Step: factor, NoUnroll: true}
	for k := 0; k < factor; k++ {
		s := hlir.Subst{}
		if k > 0 {
			s[v] = hlir.Add(hlir.IV(v), hlir.I(int64(k)))
		}
		// Privatize body-local scalars in all but the last copy: without
		// renaming, every copy would write the same registers and
		// write-after-write dependences would serialise the copies,
		// defeating the ILP the optimization exists to create. The last
		// copy keeps the original names so code after the loop still
		// observes the final iteration's values.
		if k < factor-1 {
			for _, name := range private {
				nv := hlir.CloneExpr(name.orig, nil).(*hlir.Var)
				nv.Name = fmt.Sprintf("%s#%d", nv.Name, k)
				s[name.orig.Name] = nv
			}
		}
		main.Body = append(main.Body, hlir.CloneBody(l.Body, s)...)
	}

	// Remainder: if (v < hi) { body; v++; if (v < hi) { body; v++; ... } }
	var rem hlir.Stmt
	for k := factor - 2; k >= 0; k-- {
		guarded := hlir.CloneBody(l.Body, nil)
		if rem != nil {
			guarded = append(guarded,
				hlir.Set(hlir.IV(v), hlir.Add(hlir.IV(v), hlir.I(1))),
				rem)
		}
		rem = hlir.When(hlir.Lt(hlir.IV(v), hlir.CloneExpr(l.Hi, nil)), guarded...)
	}
	if rem == nil {
		return []hlir.Stmt{main}
	}
	return []hlir.Stmt{main, rem}
}

type privateVar struct {
	orig *hlir.Var
}

// privatizable finds scalar variables that every iteration defines before
// using: these carry no value between iterations, so unrolled copies may
// use private names. A variable read before its first unconditional
// top-level definition (including reads on the right-hand side of its own
// defining assignment, e.g. an accumulator) or defined only under a
// conditional is not privatizable.
func privatizable(body []hlir.Stmt) []privateVar {
	defined := map[string]bool{}
	ruled := map[string]bool{}
	var reads func(e hlir.Expr)
	reads = func(e hlir.Expr) {
		switch e := e.(type) {
		case *hlir.Var:
			if !defined[e.Name] {
				ruled[e.Name] = true
			}
		case *hlir.Ref:
			for _, ix := range e.Idx {
				reads(ix)
			}
		case *hlir.Bin:
			reads(e.X)
			reads(e.Y)
		case *hlir.Un:
			reads(e.X)
		}
	}
	var conditional func(body []hlir.Stmt)
	conditional = func(body []hlir.Stmt) {
		for _, st := range body {
			switch st := st.(type) {
			case *hlir.Assign:
				reads(st.RHS)
				if lhs, ok := st.LHS.(*hlir.Var); ok {
					// A conditional definition may leave the previous
					// iteration's value in place: not privatizable.
					ruled[lhs.Name] = true
				} else {
					reads(st.LHS)
				}
			case *hlir.If:
				reads(st.Cond)
				conditional(st.Then)
				conditional(st.Else)
			case *hlir.Loop:
				reads(st.Lo)
				reads(st.Hi)
				conditional(st.Body)
			case *hlir.Prefetch:
				reads(st.Ref)
			}
		}
	}
	var order []string
	for _, st := range body {
		switch st := st.(type) {
		case *hlir.Assign:
			reads(st.RHS)
			if lhs, ok := st.LHS.(*hlir.Var); ok {
				if !defined[lhs.Name] && !ruled[lhs.Name] {
					defined[lhs.Name] = true
					order = append(order, lhs.Name)
				}
			} else {
				reads(st.LHS)
			}
		case *hlir.If:
			reads(st.Cond)
			conditional(st.Then)
			conditional(st.Else)
		case *hlir.Loop:
			reads(st.Lo)
			reads(st.Hi)
			conditional(st.Body)
		case *hlir.Prefetch:
			reads(st.Ref)
		}
	}
	var out []privateVar
	kinds := varKinds(body)
	for _, name := range order {
		if !ruled[name] {
			out = append(out, privateVar{orig: &hlir.Var{Name: name, K: kinds[name]}})
		}
	}
	return out
}

// varKinds maps scalar names to their kinds as used in the body.
func varKinds(body []hlir.Stmt) map[string]hlir.Kind {
	kinds := map[string]hlir.Kind{}
	hlir.WalkExprs(body, func(e hlir.Expr) {
		if v, ok := e.(*hlir.Var); ok {
			kinds[v.Name] = v.K
		}
	})
	return kinds
}

// ConstTrip returns the loop's trip count when both bounds are constants
// (step-1 loops only).
func ConstTrip(l *hlir.Loop) (int64, bool) {
	if l.Step != 1 {
		return 0, false
	}
	lo := hlir.AffineOf(l.Lo)
	hi := hlir.AffineOf(l.Hi)
	if !lo.IsConst() || !hi.IsConst() {
		return 0, false
	}
	n := hi.C - lo.C
	if n < 0 {
		n = 0
	}
	return n, true
}

// FullyUnroll expands a constant-trip loop into n straight-line copies
// with the induction variable substituted by its constant value per copy.
// Body-local scalars are privatized in all but the last copy, as in
// Unroll, and the induction variable's final value is materialised for
// any code after the loop that reads it.
func FullyUnroll(l *hlir.Loop, n int) []hlir.Stmt {
	lo := hlir.AffineOf(l.Lo)
	private := privatizable(l.Body)
	var out []hlir.Stmt
	for k := 0; k < n; k++ {
		s := hlir.Subst{l.Var: hlir.I(lo.C + int64(k))}
		if k < n-1 {
			for _, pv := range private {
				nv := hlir.CloneExpr(pv.orig, nil).(*hlir.Var)
				nv.Name = fmt.Sprintf("%s#%d", nv.Name, k)
				s[pv.orig.Name] = nv
			}
		}
		out = append(out, hlir.CloneBody(l.Body, s)...)
	}
	out = append(out, hlir.Set(hlir.IV(l.Var), hlir.I(lo.C+int64(n))))
	return out
}
