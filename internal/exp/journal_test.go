package exp

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type appendRec struct {
	G int `json:"g"`
	I int `json:"i"`
}

// TestAppenderConcurrent hammers one appender from many goroutines: every
// record must land as exactly one whole, parseable line. Run under -race
// it also proves the appender's locking.
func TestAppenderConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	a, err := OpenAppender(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Append(appendRec{G: g, I: i})
			}
		}(g)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != goroutines*per {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*per)
	}
	seen := map[appendRec]bool{}
	for _, l := range lines {
		var r appendRec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("torn or interleaved line %q: %v", l, err)
		}
		if seen[r] {
			t.Fatalf("record %+v written twice", r)
		}
		seen[r] = true
	}
}

// TestAppenderStickyError: the first error wins — records after it are
// dropped and Close reports it.
func TestAppenderStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	a, err := OpenAppender(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(appendRec{I: 1})
	a.Append(math.Inf(1)) // unsupported by encoding/json
	a.Append(appendRec{I: 2})
	var uv *json.UnsupportedValueError
	if err := a.Close(); !errors.As(err, &uv) {
		t.Fatalf("Close = %v, want the marshal error", err)
	}
	recs, err := ReadJSONLines[appendRec](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].I != 1 {
		t.Errorf("journal holds %+v, want only the record before the error", recs)
	}

	// A write error is sticky the same way.
	a, err = OpenAppender(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.f.Close() // the disk goes away under the appender
	a.Append(appendRec{I: 3})
	first := a.err
	a.Append(appendRec{I: 4})
	if first == nil || a.err != first {
		t.Fatalf("write error not sticky: first %v, now %v", first, a.err)
	}
	if err := a.Close(); err != first {
		t.Errorf("Close = %v, want the first write error %v", err, first)
	}
}

// TestAppenderNil: an empty path yields the discarding nil appender.
func TestAppenderNil(t *testing.T) {
	a, err := OpenAppender("", nil)
	if a != nil || err != nil {
		t.Fatalf("OpenAppender(\"\") = %v, %v; want nil, nil", a, err)
	}
	a.Append(appendRec{I: 1})
	if err := a.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// TestAppenderTrimsTornTail: opening a journal whose last line was torn
// drops the fragment, so the next record starts its own line.
func TestAppenderTrimsTornTail(t *testing.T) {
	for _, tc := range []struct{ before, after string }{
		{"", `{"g":0,"i":9}` + "\n"},
		{`{"g":0,"i":1}` + "\n", `{"g":0,"i":1}` + "\n" + `{"g":0,"i":9}` + "\n"},
		{`{"g":0,"i":1}` + "\n" + `{"g":0,"i`, `{"g":0,"i":1}` + "\n" + `{"g":0,"i":9}` + "\n"},
		{`{"g":0,"i`, `{"g":0,"i":9}` + "\n"},
	} {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, []byte(tc.before), 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := OpenAppender(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Append(appendRec{I: 9})
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.after {
			t.Errorf("journal %q + append = %q, want %q", tc.before, got, tc.after)
		}
	}
}
