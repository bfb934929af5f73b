package prefetch_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/locality"
	"repro/internal/prefetch"
	"repro/internal/sched"
)

// figure3 is the locality-analysis example loop: A has spatial reuse,
// B[i][0] temporal reuse.
func figure3(n int) (*hlir.Program, *hlir.Array, *hlir.Array, *hlir.Array) {
	p := &hlir.Program{Name: "pf"}
	a := p.NewArray("A", hlir.KFloat, n, n)
	b := p.NewArray("B", hlir.KFloat, n, n)
	c := p.NewArray("C", hlir.KFloat, n, n)
	p.Outputs = []*hlir.Array{c}
	i, j := hlir.IV("i"), hlir.IV("j")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(int64(n)),
			hlir.For("j", hlir.I(0), hlir.I(int64(n)),
				hlir.Set(hlir.At(c, i, j),
					hlir.Add(hlir.At(a, i, j), hlir.At(b, i, hlir.I(0)))))),
	}
	return p, a, b, c
}

func TestApplyInsertsHintsForMissStreams(t *testing.T) {
	p, _, _, _ := figure3(32)
	marked, _ := locality.Apply(p, 0)
	out, n := prefetch.Apply(marked)
	if n == 0 {
		t.Fatal("no prefetches inserted for a miss-marked stream")
	}
	// The hint addresses the miss copy one main-loop iteration ahead
	// (the peel shifts the miss to offset j+3, so the hint is j+3+4).
	text := hlir.Format(out.Body)
	if !strings.Contains(text, "prefetch A[i][((j + 4) + 3)];") {
		t.Errorf("expected next-iteration prefetch of A, got:\n%s", text)
	}
	if strings.Contains(text, "prefetch C") {
		t.Errorf("store target prefetched:\n%s", text)
	}
	// The temporal B miss lives in the peeled copy (no loop variable):
	// it must not be prefetched.
	if strings.Contains(text, "prefetch B") {
		t.Errorf("temporal (one-shot) miss prefetched:\n%s", text)
	}
	// One hint per stream, not per copy.
	if c := strings.Count(text, "prefetch "); c != n || c != 1 {
		t.Errorf("inserted %d hints (reported %d), want 1:\n%s", c, n, text)
	}
}

func TestApplyWithoutMarksIsNoOp(t *testing.T) {
	p, _, _, _ := figure3(32)
	out, n := prefetch.Apply(p) // no locality analysis ran
	if n != 0 {
		t.Errorf("inserted %d hints without any miss marks", n)
	}
	if hlir.Format(out.Body) != hlir.Format(p.Body) {
		t.Error("no-op Apply changed the program")
	}
}

func TestPrefetchEndToEnd(t *testing.T) {
	// Through the full pipeline: semantics unchanged, hint count reported,
	// hints executed, and the L1 hit rate improves.
	p, a, b, _ := figure3(64)
	d := core.NewData()
	av := make([]float64, 64*64)
	bv := make([]float64, 64*64)
	for k := range av {
		av[k] = float64(k%7) * 0.5
		bv[k] = float64(k%5) - 1
	}
	d.F[a] = av
	d.F[b] = bv
	want, err := core.Reference(p, d)
	if err != nil {
		t.Fatal(err)
	}

	base := core.Config{Policy: sched.Balanced, Locality: true, Unroll: 4}
	pf := core.Config{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4}

	cb, err := core.Compile(p, base, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mb, got, err := core.Execute(cb, d)
	if err != nil || got != want {
		t.Fatalf("baseline: err=%v mismatch=%v", err, got != want)
	}

	cp, err := core.Compile(p, pf, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Prefetches == 0 {
		t.Fatal("compile reported no prefetch hints")
	}
	mp, got, err := core.Execute(cp, d)
	if err != nil || got != want {
		t.Fatalf("prefetch: err=%v mismatch=%v", err, got != want)
	}
	if mp.Prefetches == 0 {
		t.Error("no prefetch hints executed")
	}
	if mp.L1DHitRate() <= mb.L1DHitRate() {
		t.Errorf("L1 hit rate did not improve: %.3f -> %.3f", mb.L1DHitRate(), mp.L1DHitRate())
	}
	if mp.LoadInterlock >= mb.LoadInterlock {
		t.Errorf("load interlocks did not drop: %d -> %d", mb.LoadInterlock, mp.LoadInterlock)
	}
}

func TestPrefetchNeverFaults(t *testing.T) {
	// The last iterations prefetch past the array's end; that must be
	// silently absorbed, not fault.
	p, a, _, _ := figure3(16)
	d := core.NewData()
	d.F[a] = make([]float64, 16*16)
	cfg := core.Config{Policy: sched.Balanced, Locality: true, Prefetch: true, Unroll: 4}
	c, err := core.Compile(p, cfg, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Execute(c, d); err != nil {
		t.Fatalf("prefetch past array end faulted: %v", err)
	}
}
