package lower_test

import (
	"testing"

	"repro/internal/lower"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// TestLowerAllocations pins lowering's allocation shape: address analysis
// builds small sorted term slices, and the base-ID and CSE tables are
// keyed without formatting a string per lookup. The remaining allocations
// are mostly the instructions and memory annotations themselves. The
// limits leave headroom for older Go map implementations.
func TestLowerAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		factor int
		instrs int
		limit  float64
	}{
		{"tomcatv", 4, 255, 1100},
		{"BDNA", 1, 143, 330},
	} {
		b, err := workload.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := b.Build()
		if c.factor > 1 {
			p = unroll.Apply(p, c.factor)
		}
		res, err := lower.Lower(p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, blk := range res.Fn.Blocks {
			n += len(blk.Instrs)
		}
		if n != c.instrs {
			t.Fatalf("%s (unroll %d) lowers to %d instructions, want %d", c.name, c.factor, n, c.instrs)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := lower.Lower(p); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.limit {
			t.Errorf("%s (unroll %d): %.0f allocs per Lower, want <= %.0f", c.name, c.factor, got, c.limit)
		}
	}
}
