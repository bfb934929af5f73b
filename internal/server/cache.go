package server

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache of marshaled result
// documents, keyed by CellKey strings. Results are deterministic for a
// key — the pipeline is seeded and the response document excludes
// wall-clock — so an entry never goes stale; the only reason to evict is
// memory. It backs both a worker's result cache and the fleet
// coordinator's shared cache tier. Safe for concurrent use.
type LRU struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry struct {
	key  string
	body []byte
}

// NewLRU returns an empty cache holding at most capacity entries.
func NewLRU(capacity int) *LRU {
	return &LRU{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

// Get returns the cached body for key and marks it most recently used.
func (c *LRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// Add inserts (or refreshes) key, evicting the least recently used entry
// when over capacity.
func (c *LRU) Add(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
	}
}

// Len reports the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CellKey is the cache and singleflight key of one work item:
// bench|config, plus |verify for verified runs. It is also the key of
// the worker's GET /v1/cache/{key} peer export and the fleet
// coordinator's cache tier and journal resume, so every layer agrees on
// it by construction.
func CellKey(bench, config string, verify bool) string {
	k := bench + "|" + config
	if verify {
		k += "|verify"
	}
	return k
}

// flight is one in-flight computation followers wait on.
type flight struct {
	done chan struct{}
	body []byte   // set before done closes
	err  *Failure // set before done closes, nil on success
}

// flightGroup collapses duplicate concurrent requests for the same key
// into one pipeline execution (singleflight). The first caller for a key
// becomes the leader and computes; everyone else arriving before the
// leader finishes blocks on its flight and shares the outcome. Safe for
// concurrent use.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flight{}}
}

// lead returns (f, true) when the caller became the leader for key and
// must call land when done, or (f, false) when another caller already
// leads and f is the flight to wait on.
func (g *flightGroup) lead(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// land publishes the leader's outcome and releases the followers.
func (g *flightGroup) land(key string, f *flight, body []byte, err *Failure) {
	f.body, f.err = body, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
