package server

import "sync"

// Results is a daemon's store of marshaled result documents, keyed by
// CellKey strings, with one flight per key being computed: the first
// request for a key leads its flight and computes, every request
// arriving before it lands shares its outcome (singleflight), and a
// flight that lands with a document stores it. A failed flight reaches
// its followers but stores nothing, so the next request computes again.
//
// Results are deterministic for a key — the pipeline is seeded and the
// document excludes wall-clock — so a stored document never goes stale,
// and nothing is evicted: every key has passed ParseCell, which bounds
// the store at 17 benchmarks × 320 canonical configurations × 2 verify
// settings = 10,880 documents of a few hundred bytes each, about 4 MB.
// It backs both a worker's result cache and the fleet coordinator's
// shared cache tier. The zero value is empty and ready; safe for
// concurrent use.
type Results struct {
	mu      sync.Mutex
	docs    map[string][]byte
	flights map[string]*flight
}

// flight is one key's computation; followers wait on done.
type flight struct {
	done chan struct{}
	body []byte   // set before done closes
	err  *Failure // set before done closes, nil on success
}

// Get returns key's stored document. It never waits: a key whose flight
// has not landed is a miss.
func (r *Results) Get(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	body, ok := r.docs[key]
	return body, ok
}

// Add stores body as key's document unless key already has one.
func (r *Results) Add(key string, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store(key, body)
}

// Len reports how many documents are stored.
func (r *Results) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.docs)
}

// lead returns (f, true) when the caller became key's leader and must
// call land when done, or (f, false) for the caller to wait on: key's
// flight in progress, or a landed one holding its stored document.
func (r *Results) lead(key string) (*flight, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if body, ok := r.docs[key]; ok {
		f := &flight{done: make(chan struct{}), body: body}
		close(f.done)
		return f, false
	}
	if f, ok := r.flights[key]; ok {
		return f, false
	}
	if r.flights == nil {
		r.flights = map[string]*flight{}
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// land publishes the leader's outcome, storing a document, and releases
// the followers.
func (r *Results) land(key string, f *flight, body []byte, err *Failure) {
	f.body, f.err = body, err
	r.mu.Lock()
	delete(r.flights, key)
	if err == nil {
		r.store(key, body)
	}
	r.mu.Unlock()
	close(f.done)
}

// store keeps the first document for key; the caller holds r.mu.
func (r *Results) store(key string, body []byte) {
	if _, ok := r.docs[key]; ok {
		return
	}
	if r.docs == nil {
		r.docs = map[string][]byte{}
	}
	r.docs[key] = body
}

// CellKey is the result-store and singleflight key of one work item:
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
