// Package liveness computes per-block register liveness over a function's
// CFG — the analysis trace scheduling consults to restrict speculative code
// motion (a definition live on an off-trace path may not cross the split)
// and the register allocator uses to build live ranges.
package liveness

import (
	"repro/internal/ir"
)

// Set is a register bitset.
type Set []uint64

// NewSet returns a set sized for n registers.
func NewSet(n int) Set { return make(Set, (n+63)/64) }

// Has reports membership of r.
func (s Set) Has(r ir.Reg) bool {
	return s[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r.
func (s Set) Add(r ir.Reg) { s[int(r)/64] |= 1 << (uint(r) % 64) }

// Remove deletes r.
func (s Set) Remove(r ir.Reg) { s[int(r)/64] &^= 1 << (uint(r) % 64) }

// Or unions o into s and reports whether s changed.
func (s Set) Or(o Set) bool {
	changed := false
	for i, w := range o {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Info holds the analysis results.
type Info struct {
	// LiveIn[b] is the set of registers live on entry to block b.
	LiveIn []Set
	// LiveOut[b] is the set of registers live on exit from block b.
	LiveOut []Set
}

// Compute runs the standard backward dataflow to a fixed point.
func Compute(fn *ir.Func) *Info {
	nb := len(fn.Blocks)
	use := make([]Set, nb)
	def := make([]Set, nb)
	info := &Info{LiveIn: make([]Set, nb), LiveOut: make([]Set, nb)}
	var buf [3]ir.Reg
	for i, b := range fn.Blocks {
		use[i] = NewSet(fn.NumRegs)
		def[i] = NewSet(fn.NumRegs)
		info.LiveIn[i] = NewSet(fn.NumRegs)
		info.LiveOut[i] = NewSet(fn.NumRegs)
		for _, in := range b.Instrs {
			for _, r := range in.Uses(buf[:0]) {
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			}
			if d := in.Def(); d != ir.NoReg {
				def[i].Add(d)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			out := info.LiveOut[i]
			for _, s := range fn.Blocks[i].Succs {
				if out.Or(info.LiveIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			in := info.LiveIn[i]
			for w := range in {
				nw := use[i][w] | (out[w] &^ def[i][w])
				if nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return info
}
