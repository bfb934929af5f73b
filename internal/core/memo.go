package core

import (
	"context"
	"sync"

	"repro/internal/profile"
)

// ProfileCache shares execution-driven edge profiles across the
// configurations of one (program, data) pair. The profile is collected
// on the lowered-but-unscheduled function, which depends only on the
// transform prefix (locality, unrolling, prefetch, LICM), not on the
// scheduler policy, so e.g. TS+TrS+LU4 and BS+TrS+LU4 share one
// profiling run. Edge counts are keyed by stable block IDs and lowering
// is deterministic, so a shared profile annotates any function lowered
// from the same transformed program.
//
// Lookups are single-flight per prefix key, as PrefixMemo's are: the
// first compilation collects while its siblings wait, each on its own
// context, and a collection that fails, panics or is canceled is not
// kept, so its waiters retry. In a grid a prefix's donor, its first
// configuration when block-scheduled, runs before its trace siblings
// and offers its verified timed run's counts (Offer), which they take
// as they would a walk's. Every trace compilation that did not collect
// counts as a cache hit, so in a grid run without failures the hit count
// is a pure function of the configuration set, (trace configs) −
// (distinct prefix keys without a donor), at every Jobs width.
//
// A cache must not be shared across programs or input data: the key only
// encodes the configuration's transform prefix. The zero value is an
// empty cache. Safe for concurrent use.
type ProfileCache struct{ memo[profile.Edges] }

// PrefixMemo shares transform prefixes across the configurations of one
// program, for one grid run. Each entry, one per transform prefix
// (locality, unrolling, prefetching, LICM), owns the lowered function,
// its array map, the output arrays, the transform reports and the
// counters the build recorded. The entry's function is never scheduled:
// every compilation clones it and schedules and allocates the clone, and
// replays the counters into its own registry, so its results and
// snapshot are those of a compilation that lowered afresh.
//
// Lookups are single-flight per key: the first compilation of a prefix
// builds it while later ones wait, each on its own context. A build
// completes its flight on every path — success, error, cancellation or
// panic — and a failed build is not cached, so its waiters retry.
//
// A memo must not be shared across programs or across Options.Verify
// settings: the key only encodes the configuration's transform prefix.
// The zero value is an empty memo. Safe for concurrent use.
type PrefixMemo struct{ memo[*prefix] }

// memo is the single-flight map behind ProfileCache and PrefixMemo,
// keyed by prefixKey, and the one implementation of their contract. The
// first caller of a key builds its value while later callers wait, each
// on its own context. A build completes its flight on every path —
// success, error, cancellation or panic — and only a success is kept:
// the waiters of a failed build retry, one of them as the next builder,
// so no caller inherits another's failure. The zero value is an empty
// memo.
type memo[V any] struct {
	mu sync.Mutex
	m  map[Config]*flight[V]
}

// flight is one in-flight (or completed) build; done is closed once v
// and ok are final. ok stays false when the build failed.
type flight[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// get returns the value for cfg's prefix key, running build when no
// other caller holds the key's flight. built reports that this caller
// ran build; the error is then build's. A caller that waits and sees its
// ctx (nil means none) expire returns the context's error at once.
func (m *memo[V]) get(ctx context.Context, cfg Config, build func() (V, error)) (v V, built bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := prefixKey(cfg)
	for {
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		fl, first := m.flight(key)
		if first {
			v, err = m.build(key, fl, build)
			return v, true, err
		}
		select {
		case <-fl.done:
			if fl.ok {
				return fl.v, false, nil
			}
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
}

// flight returns key's flight, registering a new one when there is none;
// first reports that the caller registered it and must build it.
func (m *memo[V]) flight(key Config) (fl *flight[V], first bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fl, ok := m.m[key]; ok {
		return fl, false
	}
	if m.m == nil {
		m.m = map[Config]*flight[V]{}
	}
	fl = &flight[V]{done: make(chan struct{})}
	m.m[key] = fl
	return fl, true
}

// build runs f for fl and completes the flight, even when f panics. A
// failed build leaves no entry.
func (m *memo[V]) build(key Config, fl *flight[V], f func() (V, error)) (V, error) {
	defer func() {
		if !fl.ok {
			m.mu.Lock()
			delete(m.m, key)
			m.mu.Unlock()
		}
		close(fl.done)
	}()
	v, err := f()
	if err == nil {
		fl.v, fl.ok = v, true
	}
	return v, err
}
