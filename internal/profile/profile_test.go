package profile

import (
	"testing"

	"repro/internal/hlir"
	"repro/internal/lower"
)

func TestCollectCountsLoopEdges(t *testing.T) {
	p := &hlir.Program{Name: "p"}
	a := p.NewArray("A", hlir.KFloat, 32)
	p.Outputs = []*hlir.Array{a}
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(32),
			hlir.Set(hlir.At(a, hlir.IV("i")), hlir.F(1))),
	}
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	edges, _, err := Collect(res.Fn, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the loop head; its back edge must have been taken 31 times and
	// its frequency must be 32.
	for _, b := range res.Fn.Blocks {
		if !b.LoopHead {
			continue
		}
		if b.Freq != 32 {
			t.Errorf("loop head frequency = %d, want 32", b.Freq)
		}
	}
	var total int64
	for _, c := range edges {
		total += c
	}
	if total == 0 {
		t.Fatal("no edges recorded")
	}
}

func TestBestSucc(t *testing.T) {
	p := &hlir.Program{Name: "b"}
	a := p.NewArray("A", hlir.KFloat, 64)
	p.Outputs = []*hlir.Array{a}
	i := hlir.IV("i")
	// Branch taken for i<48 (75%): store to A; else other element.
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(64),
			hlir.WhenElse(hlir.Lt(i, hlir.I(48)),
				[]hlir.Stmt{hlir.Set(hlir.At(a, i), hlir.F(1))},
				[]hlir.Stmt{hlir.Set(hlir.At(a, i), hlir.F(2))})),
	}
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	edges, _, err := Collect(res.Fn, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the conditional block (two successors with different counts)
	// and check BestSucc picks the hot one.
	found := false
	for _, b := range res.Fn.Blocks {
		if len(b.Succs) != 2 || b.Succs[0] == b.Succs[1] {
			continue
		}
		c0, c1 := edges.Count(b.ID, 0), edges.Count(b.ID, 1)
		if c0+c1 != 64 {
			continue
		}
		found = true
		want := 0
		if c1 > c0 {
			want = 1
		}
		if got := edges.BestSucc(res.Fn, b.ID); got != want {
			t.Errorf("BestSucc(b%d) = %d, want %d (counts %d/%d)", b.ID, got, want, c0, c1)
		}
	}
	if !found {
		t.Error("no 64-execution conditional block found")
	}
}

func TestAnnotateFrequencies(t *testing.T) {
	p := &hlir.Program{Name: "f"}
	a := p.NewArray("A", hlir.KFloat, 8)
	p.Outputs = []*hlir.Array{a}
	p.Body = []hlir.Stmt{hlir.Set(hlir.At(a, hlir.I(0)), hlir.F(1))}
	res, err := lower.Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Collect(res.Fn, nil, nil); err != nil {
		t.Fatal(err)
	}
	if res.Fn.Blocks[res.Fn.Entry].Freq != 1 {
		t.Errorf("entry frequency = %d, want 1", res.Fn.Blocks[res.Fn.Entry].Freq)
	}
}
