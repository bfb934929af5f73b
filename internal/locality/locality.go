// Package locality implements the paper's third optimization (Section 3.3):
// compile-time cache-behaviour analysis in the style of Mowry, Lam and
// Gupta, applied to load instructions in inner loops. References with
// spatial reuse (consecutive iterations touch one cache line) cause the
// loop to be unrolled by the line/stride ratio, with the first copy marked
// a cache miss and the rest cache hits (Figures 3-4). References with
// temporal reuse (the location is invariant in the inner loop) cause the
// first iteration to be peeled, marking the peeled load a miss and the
// in-loop loads hits (Figure 5). Predicted hits keep the optimistic
// traditional weight during balanced scheduling, freeing independent
// instructions to cover the predicted misses; ordering arcs keep hits from
// floating above their miss (enforced in internal/dag via reuse groups).
package locality

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/hlir"
	"repro/internal/ir"
	"repro/internal/unroll"
)

// lineElems is the number of 8-byte array elements per cache line.
const lineElems = cache.LineSize / 8

// Report summarises what the pass did, for experiment logging and tests.
type Report struct {
	// LoopsAnalyzed counts innermost loops examined.
	LoopsAnalyzed int
	// LoopsUnrolled counts loops unrolled for spatial reuse.
	LoopsUnrolled int
	// LoopsPeeled counts loops peeled for temporal reuse.
	LoopsPeeled int
	// Misses and Hits count reference markings applied (static).
	Misses, Hits int
}

// Predicate describes the reuse classification of one array reference, the
// paper's per-reference "predicate" (loop index, depth, stride, locality
// kind).
type Predicate struct {
	// Var is the inner-loop induction variable.
	Var string
	// Stride is the element stride per iteration (0 = invariant).
	Stride int64
	// Spatial and Temporal flag the reuse kinds detected.
	Spatial, Temporal bool
}

// Apply returns a transformed copy of p. luFactor is the unrolling factor
// of the surrounding loop-unrolling experiment (0 when locality analysis
// runs alone): reuse loops are unrolled by max(luFactor, line/stride) so
// the two optimizations compose the way the paper combines them; the
// returned report tallies the transformations.
func Apply(p *hlir.Program, luFactor int) (*hlir.Program, *Report) {
	out := p.Clone()
	r := &Report{}
	g := &grouper{next: 0}
	out.Body = applyBody(out.Body, luFactor, r, g)
	hlir.WalkExprs(out.Body, func(e hlir.Expr) {
		if ref, ok := e.(*hlir.Ref); ok {
			switch ref.Hint {
			case ir.HintHit:
				r.Hits++
			case ir.HintMiss:
				r.Misses++
			}
		}
	})
	return out, r
}

type grouper struct{ next int }

func (g *grouper) alloc() int {
	g.next++
	return g.next - 1
}

func applyBody(body []hlir.Stmt, luFactor int, r *Report, g *grouper) []hlir.Stmt {
	var res []hlir.Stmt
	for _, st := range body {
		switch st := st.(type) {
		case *hlir.Loop:
			if isInnermost(st) {
				res = append(res, transformLoop(st, luFactor, r, g)...)
				continue
			}
			st.Body = applyBody(st.Body, luFactor, r, g)
			res = append(res, st)
		case *hlir.If:
			st.Then = applyBody(st.Then, luFactor, r, g)
			st.Else = applyBody(st.Else, luFactor, r, g)
			res = append(res, st)
		default:
			res = append(res, st)
		}
	}
	return res
}

func isInnermost(l *hlir.Loop) bool {
	inner := false
	hlir.Walk(l.Body, func(st hlir.Stmt) {
		if _, ok := st.(*hlir.Loop); ok {
			inner = true
		}
	})
	return !inner
}

// Classify computes the reuse predicate of ref within the inner loop over
// v, per the alignment rules: the analysis succeeds only when the index is
// affine, every non-v coefficient spans whole cache lines (so alignment is
// iteration-invariant) and the stride divides the line. It returns
// (predicate, lineOffsetAffineConst, ok).
func Classify(ref *hlir.Ref, v string) (Predicate, int64, bool) {
	lin := ref.LinearAffine()
	if !lin.OK {
		return Predicate{}, 0, false
	}
	s := lin.Coeff(v)
	// Alignment must not depend on other variables: their coefficients
	// must be whole lines (e.g. a row length divisible by the line size —
	// the paper's "array dimensions known at compile time" requirement).
	for _, t := range lin.Terms {
		if t.Var != v && t.Co%lineElems != 0 {
			return Predicate{}, 0, false
		}
	}
	pred := Predicate{Var: v, Stride: s}
	switch {
	case s == 0:
		pred.Temporal = true
	case s > 0 && s < lineElems && lineElems%s == 0:
		pred.Spatial = true
	default:
		return Predicate{}, 0, false
	}
	return pred, lin.C, true
}

// transformLoop rewrites one innermost loop. The sequence follows the
// paper's Figure 3 discussion: peel first (temporal reuse), then unroll
// the remaining iterations (spatial reuse), then mark each load copy as a
// predicted hit or miss by its line phase.
func transformLoop(l *hlir.Loop, luFactor int, r *Report, g *grouper) []hlir.Stmt {
	r.LoopsAnalyzed++
	if l.NoUnroll || l.Step != 1 {
		return []hlir.Stmt{l}
	}
	lo := hlir.AffineOf(l.Lo)
	if !lo.IsConst() {
		return []hlir.Stmt{l} // alignment unknowable without a constant start
	}
	loads := collectLoads(l.Body)

	var temporal []*hlir.Ref
	hasSpatial := false
	for _, ref := range loads {
		pred, _, ok := Classify(ref, l.Var)
		if !ok {
			continue
		}
		if pred.Temporal {
			temporal = append(temporal, ref)
		}
		if pred.Spatial {
			hasSpatial = true
		}
	}
	if len(temporal) == 0 && !hasSpatial {
		return []hlir.Stmt{l}
	}

	var out []hlir.Stmt
	j0 := lo.C

	// Temporal reuse: peel the first iteration (Figure 5). Loads with
	// temporal reuse are marked hits inside the loop and misses in the
	// peeled copy; spatially-reused loads in the peeled copy are first
	// touches of their lines, so they are miss-marked too.
	if len(temporal) > 0 {
		for _, ref := range temporal {
			ref.Group = g.alloc()
			ref.Hint = ir.HintHit
		}
		peeled := hlir.CloneBody(l.Body, hlir.Subst{l.Var: hlir.I(j0)})
		markPeeled(peeled)
		guard := hlir.When(cmpLoLtHi(l), peeled...)
		out = append(out, guard)
		l.Lo = hlir.I(j0 + 1)
		j0++
		r.LoopsPeeled++
	}

	// Spatial reuse: unroll by the line/stride ratio (or the experiment's
	// larger unrolling factor) and phase-mark the copies.
	factor := lineElems
	if luFactor > factor {
		factor = luFactor
	}
	if hasSpatial && unroll.CanUnroll(l, factor) {
		stmts := unroll.Unroll(l, factor)
		main := stmts[0].(*hlir.Loop)
		markSpatial(main.Body, l.Var, j0, g)
		r.LoopsUnrolled++
		out = append(out, stmts...)
		return out
	}
	l.NoUnroll = true // keep the general unroller from disturbing marks
	out = append(out, l)
	return out
}

// collectLoads gathers array references that appear as loads (anywhere
// except as a store destination).
func collectLoads(body []hlir.Stmt) []*hlir.Ref {
	var loads []*hlir.Ref
	stores := map[*hlir.Ref]bool{}
	hlir.Walk(body, func(st hlir.Stmt) {
		if a, ok := st.(*hlir.Assign); ok {
			if ref, ok := a.LHS.(*hlir.Ref); ok {
				stores[ref] = true
			}
		}
	})
	hlir.WalkExprs(body, func(e hlir.Expr) {
		if ref, ok := e.(*hlir.Ref); ok && !stores[ref] {
			loads = append(loads, ref)
		}
	})
	return loads
}

// markPeeled flips the peeled copy's temporal loads from the inherited
// hit mark to a miss: the peeled (first) iteration is the one that fetches
// the reused location. Spatially-reused loads in the peeled copy stay
// unmarked, which the scheduler treats like a miss (balanced scheduled) —
// correct, since they are the first touches of their lines.
func markPeeled(peeled []hlir.Stmt) {
	hlir.WalkExprs(peeled, func(e hlir.Expr) {
		if ref, ok := e.(*hlir.Ref); ok && ref.Group >= 0 && ref.Hint == ir.HintHit {
			ref.Hint = ir.HintMiss
		}
	})
}

// markSpatial phase-marks loads in the unrolled main body: a copy whose
// line offset is zero fetches a fresh line (miss); others hit. References
// sharing a line form one reuse group so the DAG can order the miss before
// its hits.
func markSpatial(body []hlir.Stmt, v string, j0 int64, g *grouper) {
	lineGroup := map[string]int{}
	// Only loads are classified (the paper analyses "load instructions in
	// inner loops"); store targets are skipped.
	storeTargets := map[*hlir.Ref]bool{}
	hlir.Walk(body, func(st hlir.Stmt) {
		if a, ok := st.(*hlir.Assign); ok {
			if ref, ok := a.LHS.(*hlir.Ref); ok {
				storeTargets[ref] = true
			}
		}
	})
	hlir.WalkExprs(body, func(e hlir.Expr) {
		ref, ok := e.(*hlir.Ref)
		if !ok || ref.Hint != ir.HintNone || storeTargets[ref] {
			return
		}
		lin := ref.LinearAffine()
		if !lin.OK {
			return
		}
		s := lin.Coeff(v)
		if s <= 0 || s >= lineElems || lineElems%s != 0 {
			return
		}
		for _, t := range lin.Terms {
			if t.Var != v && t.Co%lineElems != 0 {
				return
			}
		}
		// Element offset within the line at the loop start.
		off := lin.C + s*j0
		phase := ((off % lineElems) + lineElems) % lineElems
		line := floorDiv(off, lineElems)
		key := fmt.Sprintf("%s|%s|%d", ref.A.Name, lin.DropVar(v).Key(), line)
		gid, seen := lineGroup[key]
		if !seen {
			gid = g.alloc()
			lineGroup[key] = gid
		}
		ref.Group = gid
		if phase == 0 {
			ref.Hint = ir.HintMiss
		} else {
			ref.Hint = ir.HintHit
		}
	})
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func cmpLoLtHi(l *hlir.Loop) hlir.Expr {
	return hlir.Lt(hlir.CloneExpr(l.Lo, nil), hlir.CloneExpr(l.Hi, nil))
}
