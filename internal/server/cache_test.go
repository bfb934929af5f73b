package server

import "testing"

// TestLRU pins the cache's replacement contract: the least recently used
// key goes first, a Get or a re-Add refreshes recency (and Add replaces
// the body), and Len tracks occupancy up to the capacity.
func TestLRU(t *testing.T) {
	c := NewLRU(2)
	if c.Len() != 0 {
		t.Fatalf("empty Len = %d", c.Len())
	}
	c.Add("a", []byte("1"))
	c.Add("b", []byte("2"))
	c.Add("c", []byte("3")) // evicts a, the oldest
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}

	c.Get("b")              // b is now more recent than c
	c.Add("d", []byte("4")) // evicts c
	if _, ok := c.Get("c"); ok {
		t.Error("c survived eviction after b was read")
	}

	c.Add("b", []byte("2'")) // refresh: b is most recent, body replaced
	c.Add("e", []byte("5"))  // evicts d
	if _, ok := c.Get("d"); ok {
		t.Error("d survived eviction after b was re-added")
	}
	if body, ok := c.Get("b"); !ok || string(body) != "2'" {
		t.Errorf("b = %q, %v; want the refreshed body", body, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCellKey pins the key format peers rely on for GET /v1/cache/{key}.
func TestCellKey(t *testing.T) {
	if got := CellKey("tomcatv", "BS+LU4", false); got != "tomcatv|BS+LU4" {
		t.Errorf("CellKey = %q", got)
	}
	if got := CellKey("TRFD", "TS", true); got != "TRFD|TS|verify" {
		t.Errorf("verified CellKey = %q", got)
	}
}
