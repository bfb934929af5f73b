package dag

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

// refNode and refBuild are a naive reference for Build: per-node slices
// grown by append, a map for duplicate edges and a slice of uses per
// register, with the four passes restated in their plainest form. Build
// must give every node the same Succs and Preds, in the same order.
type refNode struct{ succs, preds []int }

func refBuild(instrs []*ir.Instr, opts Options) []refNode {
	n := len(instrs)
	nodes := make([]refNode, n)
	seen := map[[2]int]bool{}
	add := func(a, b int) {
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		nodes[a].succs = append(nodes[a].succs, b)
		nodes[b].preds = append(nodes[b].preds, a)
	}

	// Register dependences.
	def := map[ir.Reg]int{}
	uses := map[ir.Reg][]int{}
	var buf [3]ir.Reg
	for i, in := range instrs {
		rs := in.Uses(buf[:0])
		for _, r := range rs {
			if d, ok := def[r]; ok {
				add(d, i)
			}
		}
		if d := in.Def(); d != ir.NoReg {
			if p, ok := def[d]; ok {
				add(p, i)
			}
			for _, u := range uses[d] {
				add(u, i)
			}
			def[d] = i
			uses[d] = nil
		}
		for _, r := range rs {
			uses[r] = append(uses[r], i)
		}
	}

	// Memory dependences.
	for a := range instrs {
		for b := a + 1; b < n; b++ {
			ia, ib := instrs[a], instrs[b]
			if !ia.Op.IsMem() || !ib.Op.IsMem() || ia.Op.IsLoad() && ib.Op.IsLoad() {
				continue
			}
			if ia.Mem.Conflicts(ib.Mem) {
				add(a, b)
			}
		}
	}

	// Locality arcs: a group's predicted-miss loads before its hits.
	for a, ia := range instrs {
		if reuseGroup(ia) < 0 || ia.Hint != ir.HintMiss {
			continue
		}
		for b := a + 1; b < n; b++ {
			if instrs[b].Hint == ir.HintHit && reuseGroup(instrs[b]) == reuseGroup(ia) {
				add(a, b)
			}
		}
	}

	// Control dependences.
	var branches []int
	for i, in := range instrs {
		if in.Op.IsBranch() {
			branches = append(branches, i)
		}
	}
	if len(branches) == 0 {
		return nodes
	}
	if !opts.Trace {
		for i := range instrs {
			add(i, branches[len(branches)-1])
		}
		return nodes
	}
	for k := 0; k+1 < len(branches); k++ {
		add(branches[k], branches[k+1])
	}
	if instrs[n-1].Op.IsBranch() {
		for i := range instrs {
			add(i, n-1)
		}
	}
	for _, k := range opts.Joins {
		for _, br := range branches {
			if opts.HomeOf(br) < k {
				continue
			}
			for i := range instrs {
				if opts.HomeOf(i) < k {
					add(i, br)
				}
			}
		}
	}
	live := func(br int, r ir.Reg) bool {
		return opts.LiveOutOffTrace == nil || opts.LiveOutOffTrace(br, r)
	}
	for _, br := range branches {
		for i, in := range instrs {
			if in.Op.IsBranch() {
				continue
			}
			d := in.Def()
			switch {
			case i < br && (in.Op.IsStore() || d != ir.NoReg && live(br, d)):
				add(i, br)
			case i > br && (!in.Op.CanSpeculate() || d != ir.NoReg && live(br, d)):
				add(br, i)
			}
		}
	}
	return nodes
}

// randomRegion draws a region with the instruction mix of the scheduler's
// random-DAG property test — 48 registers, integer and FP arithmetic,
// conditional moves, loads with hit/miss hints and reuse groups, stores —
// plus, when branchy, conditional branches and a final terminator.
func randomRegion(rng *rand.Rand, n int, branchy bool) []*ir.Instr {
	r := func() ir.Reg { return ir.Reg(1 + rng.Intn(48)) }
	mem := func() *ir.MemRef {
		return &ir.MemRef{Array: rng.Intn(3), Base: rng.Intn(2), Disp: int64(rng.Intn(8)) * 8, Width: 8, Group: rng.Intn(4) - 1}
	}
	instrs := make([]*ir.Instr, n)
	for i := range instrs {
		var in *ir.Instr
		switch k := rng.Intn(10); {
		case k == 0:
			in = ins(ir.OpMovi, r())
		case k == 1:
			in = ins(ir.OpAdd, r(), r(), r())
		case k == 2:
			in = ins(ir.OpMul, r(), r(), r())
		case k == 3:
			in = ins(ir.OpFAdd, r(), r(), r())
		case k == 4:
			in = ins(ir.OpFDiv, r(), r(), r())
		case k == 5:
			in = ins(ir.OpCmovNe, r(), r(), r())
		case k <= 7:
			in = ins(ir.OpLdF, r(), r())
			in.Mem = mem()
			in.Hint = ir.CacheHint(rng.Intn(3))
		case k == 8 || !branchy:
			in = ins(ir.OpStF, ir.NoReg, r(), r())
			in.Mem = mem()
		default:
			in = ins(ir.OpBne, ir.NoReg, r())
		}
		in.Seq = i
		instrs[i] = in
	}
	if branchy {
		instrs[n-1] = &ir.Instr{Op: ir.OpBr, Seq: n - 1}
	}
	return instrs
}

// checkAgainstRef builds instrs both ways and compares every node's
// edges, in order, and the edge index.
func checkAgainstRef(t *testing.T, label string, instrs []*ir.Instr, opts Options) {
	t.Helper()
	st := obs.NewStats()
	opts.Stats = st
	g := Build(instrs, opts)
	defer g.Release()
	want := refBuild(instrs, opts)
	indices := func(ns []*Node) []int {
		var out []int
		for _, nd := range ns {
			out = append(out, nd.Index)
		}
		return out
	}
	edges := 0
	for i, nd := range g.Nodes {
		if got := indices(nd.Succs); !equalInts(got, want[i].succs) {
			t.Fatalf("%s: node %d succs %v, reference %v", label, i, got, want[i].succs)
		}
		if got := indices(nd.Preds); !equalInts(got, want[i].preds) {
			t.Fatalf("%s: node %d preds %v, reference %v", label, i, got, want[i].preds)
		}
		edges += len(want[i].succs)
		for j, other := range g.Nodes {
			isSucc := false
			for _, s := range want[i].succs {
				isSucc = isSucc || s == j
			}
			if g.HasEdge(nd, other) != isSucc {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, reference %v", label, i, j, !isSucc, isSucc)
			}
		}
	}
	if got := st.Counter("dag/edges"); got != int64(edges) {
		t.Fatalf("%s: dag/edges = %d, reference %d", label, got, edges)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildMatchesReference checks Build's slab layout against the naive
// reference on random regions, in block mode and in trace mode with
// joins and off-trace liveness. Every build reuses the storage the
// previous one released, and a large region is followed by small ones,
// so a bit, a register entry or an edge left over from an earlier region
// would show up as a spurious edge.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{300, 4, 2, 250, 7}
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(58)
		if trial < len(sizes) {
			n = sizes[trial]
		}
		checkAgainstRef(t, "block", randomRegion(rng, n, false), Options{})

		instrs := randomRegion(rng, n, true)
		homes := make([]int, n)
		blocks := 1
		for i := 1; i < n; i++ {
			homes[i] = homes[i-1]
			if instrs[i-1].Op.IsBranch() {
				homes[i]++
				blocks++
			}
		}
		var joins []int
		for k := 1; k < blocks; k++ {
			if rng.Intn(2) == 0 {
				joins = append(joins, k)
			}
		}
		salt := rng.Int()
		opts := Options{
			Trace:  true,
			HomeOf: func(i int) int { return homes[i] },
			Joins:  joins,
			LiveOutOffTrace: func(br int, r ir.Reg) bool {
				return (br*31+int(r)+salt)%3 == 0
			},
		}
		checkAgainstRef(t, "trace", instrs, opts)
		opts.LiveOutOffTrace = nil
		checkAgainstRef(t, "trace, everything live", instrs, opts)
	}
}
