package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/hlir"
	"repro/internal/sched"
)

func smallProgram() (*hlir.Program, *Data) {
	p := &hlir.Program{Name: "small"}
	a := p.NewArray("A", hlir.KFloat, 64)
	b := p.NewArray("B", hlir.KFloat, 64)
	p.Outputs = []*hlir.Array{b}
	i := hlir.IV("i")
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(60),
			hlir.Set(hlir.At(b, i),
				hlir.Add(hlir.At(a, i), hlir.Mul(hlir.At(a, hlir.Add(i, hlir.I(1))), hlir.F(0.5))))),
	}
	d := NewData()
	vals := make([]float64, 64)
	for k := range vals {
		vals[k] = float64(k%13) * 0.75
	}
	d.F[a] = vals
	return p, d
}

func TestConfigNames(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Config{Policy: sched.Traditional}, "TS"},
		{Config{Policy: sched.Balanced}, "BS"},
		{Config{Policy: sched.Balanced, Unroll: 4}, "BS+LU4"},
		{Config{Policy: sched.Balanced, Trace: true, Unroll: 8}, "BS+TrS+LU8"},
		{Config{Policy: sched.Balanced, Locality: true, Trace: true, Unroll: 4}, "BS+LA+TrS+LU4"},
		{Config{Policy: sched.Traditional, Unroll: 8}, "TS+LU8"},
	}
	seen := map[string]bool{}
	for _, tt := range tests {
		if got := tt.cfg.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
		if seen[tt.want] {
			t.Errorf("duplicate config name %q", tt.want)
		}
		seen[tt.want] = true
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	p, d := smallProgram()
	before := hlir.NewInterp(p)
	orig := before.Checksum(p) // zero state hash of structure-derived outputs

	for _, cfg := range []Config{
		{Policy: sched.Balanced, Unroll: 8, Trace: true, Locality: true},
		{Policy: sched.Traditional, Unroll: 4},
	} {
		if _, err := Compile(p, cfg, d, Options{}); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
	}
	// The original program must still be a 1-statement, step-1 loop.
	l, ok := p.Body[0].(*hlir.Loop)
	if !ok || l.Step != 1 || len(p.Body) != 1 {
		t.Fatal("Compile mutated the input program structure")
	}
	after := hlir.NewInterp(p)
	if after.Checksum(p) != orig {
		t.Fatal("Compile changed program-derived state")
	}
}

func TestCompileExecuteMatchesReference(t *testing.T) {
	p, d := smallProgram()
	want, err := Reference(p, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Policy: sched.Traditional},
		{Policy: sched.Balanced},
		{Policy: sched.Balanced, Unroll: 4, Locality: true},
		{Policy: sched.Balanced, Unroll: 8, Trace: true, Locality: true},
	} {
		c, err := Compile(p, cfg, d, Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		met, got, err := Execute(c, d)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if got != want {
			t.Errorf("%s: checksum mismatch", cfg.Name())
		}
		if met.Instrs == 0 || met.Cycles < met.Instrs {
			t.Errorf("%s: implausible metrics %+v", cfg.Name(), met)
		}
		if c.Alloc == nil {
			t.Errorf("%s: missing allocation report", cfg.Name())
		}
		if cfg.Trace && c.Trace == nil {
			t.Errorf("%s: missing trace report", cfg.Name())
		}
		if cfg.Locality && c.Locality == nil {
			t.Errorf("%s: missing locality report", cfg.Name())
		}
		if !c.Fn.Allocated {
			t.Errorf("%s: function not register-allocated", cfg.Name())
		}
	}
}

// TestReferenceRejectsUndeclaredArrays: a Go-built program that reads an
// array missing from p.Arrays gets the evaluator's error, not a Go panic,
// and an undeclared output is an error, not an empty hash.
func TestReferenceRejectsUndeclaredArrays(t *testing.T) {
	p, d := smallProgram()
	ghost := &hlir.Array{Name: "ghost", Elem: hlir.KFloat, Dims: []int{64}}
	b := p.Outputs[0]
	p.Body = []hlir.Stmt{hlir.For("i", hlir.I(0), hlir.I(60),
		hlir.Set(hlir.At(b, hlir.IV("i")), hlir.At(ghost, hlir.IV("i"))))}
	if _, err := Reference(p, d); err == nil || err.Error() != "interp: array ghost is not declared" {
		t.Errorf("reading an undeclared array: error %v", err)
	}

	p, d = smallProgram()
	p.Outputs = append(p.Outputs, ghost)
	if _, err := Reference(p, d); err == nil || !strings.Contains(err.Error(), "output array ghost is not declared") {
		t.Errorf("an undeclared output: error %v", err)
	}
}

func TestBalancedBeatsTraditionalOnMissHeavyLoop(t *testing.T) {
	// A loop with several independent loads whose lines miss and enough
	// independent work to hide them: balanced scheduling must win.
	p := &hlir.Program{Name: "misses"}
	const n = 4096 // 32KB per array: beyond L1
	a := p.NewArray("A", hlir.KFloat, n)
	b := p.NewArray("B", hlir.KFloat, n)
	c := p.NewArray("C", hlir.KFloat, n)
	out := p.NewArray("out", hlir.KFloat, n)
	p.Outputs = []*hlir.Array{out}
	i := hlir.IV("i")
	// Strided accesses so most loads miss.
	idx := hlir.Mod(hlir.Mul(i, hlir.I(16)), hlir.I(n))
	p.Body = []hlir.Stmt{
		hlir.For("i", hlir.I(0), hlir.I(n/4),
			hlir.Set(hlir.At(out, i),
				hlir.Add(hlir.Add(hlir.At(a, idx), hlir.At(b, idx)),
					hlir.Add(hlir.At(c, idx), hlir.IToF(i))))),
	}
	d := NewData()
	run := func(policy sched.Policy) int64 {
		cm, err := Compile(p, Config{Policy: policy}, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		met, _, err := Execute(cm, d)
		if err != nil {
			t.Fatal(err)
		}
		return met.Cycles
	}
	bs := run(sched.Balanced)
	ts := run(sched.Traditional)
	if bs >= ts {
		t.Errorf("balanced (%d cycles) not faster than traditional (%d) on miss-heavy loop", bs, ts)
	}
}

func TestExecuteReportsConfigInErrors(t *testing.T) {
	// A program indexing out of simulated memory should produce an error
	// naming the benchmark; build one via a huge dynamic index.
	p := &hlir.Program{Name: "oob"}
	idx := p.NewArray("idx", hlir.KInt, 4)
	a := p.NewArray("A", hlir.KFloat, 4)
	o := p.NewArray("o", hlir.KFloat, 4)
	p.Outputs = []*hlir.Array{o}
	p.Body = []hlir.Stmt{
		hlir.Set(hlir.At(o, hlir.I(0)), hlir.At(a, hlir.At(idx, hlir.I(0)))),
	}
	d := NewData()
	d.I[idx] = []int64{1 << 40, 0, 0, 0}
	c, err := Compile(p, Config{Policy: sched.Balanced}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Execute(c, d)
	if err == nil || !strings.Contains(err.Error(), "oob") {
		t.Errorf("out-of-bounds execution error missing context: %v", err)
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	names := []string{
		"BS", "TS", "BF", "AUTO",
		"BS+LU4", "BS+LU8", "TS+LU4",
		"BS+TrS+LU4", "BS+LA+TrS+LU8", "TS+TrS+LU8", "BS+LA", "BS+LA+PF+LU4", "BS+LICM", "BS+LA+PF+LICM+LU4",
	}
	for _, n := range names {
		cfg, err := ParseConfig(n)
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", n, err)
			continue
		}
		if got := cfg.Name(); got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
	}
	for _, bad := range []string{"", "XX", "BS+LU", "BS+LUx", "BS+WAT", "LU4+BS", "BS+LU1"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

// TestCompileCanceledContext asserts Options.Ctx aborts the pipeline at
// a phase boundary: an already-dead context compiles nothing and returns
// the context's error, while a live one compiles normally.
func TestCompileCanceledContext(t *testing.T) {
	p, d := smallProgram()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Policy: sched.Balanced, Unroll: 4}
	if _, err := Compile(p, cfg, d, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled compile returned %v, want context.Canceled", err)
	}
	if _, err := Compile(p, cfg, d, Options{Ctx: context.Background()}); err != nil {
		t.Fatalf("compile with live context failed: %v", err)
	}
	// A nil Ctx must stay the fully unchecked fast path.
	if _, err := Compile(p, cfg, d, Options{}); err != nil {
		t.Fatalf("compile with nil context failed: %v", err)
	}
}

// TestCompileDeadlineNamesError asserts an expired deadline surfaces as
// context.DeadlineExceeded wrapped with the phase it died before.
func TestCompileDeadlineNamesError(t *testing.T) {
	p, d := smallProgram()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := Compile(p, Config{Policy: sched.Balanced}, d, Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired compile returned %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "canceled before") {
		t.Errorf("error %q does not name the aborted phase boundary", err)
	}
}
