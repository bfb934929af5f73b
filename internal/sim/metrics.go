package sim

import (
	"fmt"

	"repro/internal/ir"
)

// Metrics collects the measurements the paper reports (Section 4.3):
// total cycles, interlock cycles split between loads and fixed-latency
// instructions, and dynamic instruction counts per class including spill
// and restore instructions.
type Metrics struct {
	// Cycles is the total simulated execution time.
	Cycles int64
	// Instrs is the dynamic instruction count.
	Instrs int64
	// ByClass breaks Instrs down per instruction class.
	ByClass [ir.NumClasses]int64
	// SpillStores and SpillRestores count register-allocator-inserted
	// memory traffic (also included in ByClass load/store counts).
	SpillStores, SpillRestores int64

	// LoadInterlock counts cycles stalled waiting for a load result
	// (including stalls for a free outstanding-miss register).
	LoadInterlock int64
	// FixedInterlock counts cycles stalled waiting for a fixed-latency
	// (non-load) result.
	FixedInterlock int64
	// MSHRStall is the subset of LoadInterlock spent waiting for a free
	// miss register in the lockup-free cache.
	MSHRStall int64
	// FetchStall counts instruction-fetch cycles (I-cache/ITLB misses).
	FetchStall int64
	// BranchStall counts branch misprediction penalty cycles.
	BranchStall int64
	// StoreStall counts store-side stalls (DTLB refills).
	StoreStall int64

	// Branches and Mispredicts count conditional branch outcomes.
	Branches, Mispredicts int64
	// Prefetches counts executed software prefetch hints; Prefetches
	// dropped for want of a free miss register are counted too.
	Prefetches int64
	// PrefetchFills counts the prefetch hints that actually started a
	// cache fill — the rest were dropped (line already resident or in
	// flight, no free miss register, or a bad address). Fills are
	// accounted under the hierarchy's dedicated prefetch counter, so the
	// L1D hit/miss counters keep describing demand loads only.
	PrefetchFills int64
	// Loads and L1DHits count data-cache behaviour observed by loads.
	Loads, L1DHits int64
}

// LoadInterlockShare returns load interlock cycles as a fraction of total
// cycles, the paper's headline per-scheduler statistic.
func (m *Metrics) LoadInterlockShare() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.LoadInterlock) / float64(m.Cycles)
}

// L1DHitRate returns the fraction of loads that hit in the L1 data cache.
func (m *Metrics) L1DHitRate() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.L1DHits) / float64(m.Loads)
}

// Each calls f with every scalar metric as a (name, value) pair, the
// bridge between the simulator's fixed struct and the observability
// layer's name-keyed counter registry (internal/obs). Names are stable:
// per-class dynamic counts appear as "instrs/<class>" using the
// ir.Class names.
func (m *Metrics) Each(f func(name string, v int64)) {
	f("cycles", m.Cycles)
	f("instrs", m.Instrs)
	for i := range m.ByClass {
		f("instrs/"+ir.Class(i).String(), m.ByClass[i])
	}
	f("spill_stores", m.SpillStores)
	f("spill_restores", m.SpillRestores)
	f("load_interlock", m.LoadInterlock)
	f("fixed_interlock", m.FixedInterlock)
	f("mshr_stall", m.MSHRStall)
	f("fetch_stall", m.FetchStall)
	f("branch_stall", m.BranchStall)
	f("store_stall", m.StoreStall)
	f("branches", m.Branches)
	f("mispredicts", m.Mispredicts)
	f("prefetches", m.Prefetches)
	f("prefetch_fills", m.PrefetchFills)
	f("loads", m.Loads)
	f("l1d_hits", m.L1DHits)
}

func (m *Metrics) String() string {
	return fmt.Sprintf(
		"cycles=%d instrs=%d loadIL=%d fixedIL=%d fetch=%d mispredict=%d spills=%d+%d l1d=%.1f%%",
		m.Cycles, m.Instrs, m.LoadInterlock, m.FixedInterlock,
		m.FetchStall, m.BranchStall, m.SpillStores, m.SpillRestores,
		100*m.L1DHitRate())
}
