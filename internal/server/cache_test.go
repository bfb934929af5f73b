package server

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestResults pins the result store's contract: a stored document is
// served and Add keeps it; a key in flight is a miss; a failure reaches
// the flight's followers but is not stored, so the next request leads a
// new flight; Len counts stored documents only.
func TestResults(t *testing.T) {
	var r Results
	r.Add("a|BS", []byte("1"))
	r.Add("a|BS", []byte("2"))
	if body, ok := r.Get("a|BS"); !ok || string(body) != "1" {
		t.Errorf("Get(a|BS) = %q, %v; want the first document kept", body, ok)
	}

	f, leader := r.lead("b|BS")
	if !leader {
		t.Fatal("first lead of b|BS did not lead")
	}
	if _, ok := r.Get("b|BS"); ok {
		t.Error("Get served a key still in flight")
	}
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d with one stored document and one flight, want 1", n)
	}

	const followers = 4
	shared := make(chan *Failure, followers)
	for i := 0; i < followers; i++ {
		g, leader := r.lead("b|BS")
		if leader || g != f {
			t.Fatal("a second lead of b|BS did not join the flight")
		}
		go func() {
			<-g.done
			shared <- g.err
		}()
	}
	fail := BadRequest("injected")
	r.land("b|BS", f, nil, fail)
	for i := 0; i < followers; i++ {
		if got := <-shared; got != fail {
			t.Errorf("follower %d saw %v, want the leader's failure", i, got)
		}
	}
	if _, ok := r.Get("b|BS"); ok {
		t.Error("a failed flight was stored")
	}

	f, leader = r.lead("b|BS")
	if !leader {
		t.Fatal("the request after a failure did not lead a new flight")
	}
	r.land("b|BS", f, []byte("3"), nil)
	if body, ok := r.Get("b|BS"); !ok || string(body) != "3" {
		t.Errorf("Get(b|BS) = %q, %v after a successful flight", body, ok)
	}
	if g, leader := r.lead("b|BS"); leader || string(g.body) != "3" {
		t.Error("a lead after a stored document did not share it")
	}
	if n := r.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

// TestResultsGetRacesFailedLanding: a Get racing a leader that lands a
// failure is a miss, never a hit. Four readers spin on Get while the
// key's flights land failures back to back, so nothing is ever stored.
func TestResultsGetRacesFailedLanding(t *testing.T) {
	var r Results
	const key = "a|BS"
	fail := BadRequest("injected")
	stop := make(chan struct{})
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := r.Get(key); ok {
					hits.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		f, leader := r.lead(key)
		if !leader {
			t.Error("a key with no document and no flight did not lead")
			break
		}
		r.land(key, f, nil, fail)
	}
	close(stop)
	wg.Wait()
	if n := hits.Load(); n > 0 {
		t.Errorf("Get served a key whose every flight failed %d times", n)
	}
	if n := r.Len(); n != 0 {
		t.Errorf("Len = %d after only failed flights, want 0", n)
	}
}

// TestCellKey pins the key format that the result store, the fleet's
// cache tier and its journal resume share.
func TestCellKey(t *testing.T) {
	if got := CellKey("tomcatv", "BS+LU4", false); got != "tomcatv|BS+LU4" {
		t.Errorf("CellKey = %q", got)
	}
	if got := CellKey("TRFD", "TS", true); got != "TRFD|TS|verify" {
		t.Errorf("verified CellKey = %q", got)
	}
}
