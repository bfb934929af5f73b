package fleet

import "sort"

// ring is the coordinator's consistent-hash ring: every worker owns
// vnodes points on a 64-bit circle, and a benchmark's cells land on the
// worker owning the first point at or after the benchmark's hash. Three
// properties matter here:
//
//   - Affinity: cells hash by benchmark name (not by full cell key), so
//     all configurations of one benchmark route to the same worker while
//     it is healthy — its shared front-end (built program, input data,
//     edge-profile cache) and LRU result cache stay hot.
//   - Stable failover order: walking the circle past the owner yields a
//     deterministic sequence of distinct fallback workers, so retries
//     and hedges always know "the next worker" without coordination.
//   - Bounded movement: membership is dynamic, and the ring mutates
//     incrementally — add splices one worker's points into the sorted
//     circle, remove filters them out — so a join moves only the keys
//     whose owning arc the newcomer bisects (~1/(n+1) of them) and a
//     leave moves only the departed worker's keys. Every other key
//     keeps its owner, which is what keeps the surviving workers'
//     caches hot through membership churn (property-tested in
//     rebalance_test.go).
//
// ring is not goroutine-safe; the membership manager guards it.
type ring struct {
	points []ringPoint // sorted by (h, addr)
	n      int         // distinct workers
}

type ringPoint struct {
	h    uint64
	addr string
}

// newRing builds an empty ring; populate it with add.
func newRing() *ring { return &ring{} }

// add splices addr's vnodes points into the circle. Adding an addr that
// is already present is the caller's bug; the membership manager
// deduplicates before calling.
func (r *ring) add(addr string, vnodes int) {
	pts := make([]ringPoint, 0, vnodes)
	for v := 0; v < vnodes; v++ {
		pts = append(pts, ringPoint{h: mix64(fnv64(addr, byte(v), byte(v>>8))), addr: addr})
	}
	r.points = append(r.points, pts...)
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].addr < r.points[b].addr
	})
	r.n++
}

// remove filters addr's points out of the circle; unknown addrs are a
// no-op. The surviving points keep their order, so every key not owned
// by addr keeps its owner.
func (r *ring) remove(addr string) {
	kept := r.points[:0]
	removed := false
	for _, p := range r.points {
		if p.addr == addr {
			removed = true
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
	if removed {
		r.n--
	}
}

// replicas returns every worker address in preference order for key:
// the ring owner first, then each next distinct worker around the
// circle.
func (r *ring) replicas(key string) []string {
	out := make([]string, 0, r.n)
	if len(r.points) == 0 {
		return out
	}
	h := fnv64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	seen := make(map[string]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}

// owner returns the address owning key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	return r.points[start%len(r.points)].addr
}

// mix64 is splitmix64's finalizer. A vnode's index enters fnv64 as
// trailing salt bytes, and FNV-1a spreads a change there over under 1%
// of the circle, so without the mixer a worker's vnodes cluster into one
// arc and the ring behaves as one point per worker.
func mix64(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// fnv64 hashes s plus optional salt bytes with FNV-1a.
func fnv64(s string, salt ...byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	for _, b := range salt {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}
