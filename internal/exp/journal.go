package exp

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// journalEntry is one line of the JSONL cell journal: the full result of
// one finished cell (or its error). Metrics are stored per issue width;
// encoding/json round-trips the int64 metric fields exactly, which is
// what lets a resumed grid render byte-identical tables.
type journalEntry struct {
	Bench  string               `json:"bench"`
	Config string               `json:"config"`
	Widths map[int]*sim.Metrics `json:"metrics,omitempty"`
	Phases core.PhaseTimes      `json:"phases_ns"`
	Obs    *obs.Snapshot        `json:"obs,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// Appender appends JSON records to a JSONL journal, one whole line per
// call. It is the one writer behind every journal in the system — the
// grid engine's cell journal, bschedd's request journal and the fleet
// coordinator's cell journal — so they all share ReadJSONLines'
// crash-tolerance contract. Append is synchronous and safe for concurrent
// use: the record is marshaled outside the lock and written as a single
// line under it, so a crash can tear at most the final line and a
// finished Append is already in the file. Errors are sticky: the first
// one drops every later record and is returned by Close. A nil *Appender
// discards everything.
type Appender struct {
	mu  obs.TimedMutex
	f   *os.File
	err error
}

// OpenAppender opens path for appending, creating it if needed; an empty
// path returns a nil (discarding) Appender. A torn final line left by an
// interrupted writer is truncated back to the last newline first, so the
// first new record starts a line of its own instead of extending the
// fragment into a malformed line that would hide every record after it.
// wait, when non-nil, records time spent blocked on the appender's lock.
func OpenAppender(path string, wait *obs.WaitHist) (*Appender, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	a := &Appender{f: f}
	a.mu.H = wait
	return a, nil
}

// trimTornTail truncates f after its last newline (to empty when it has
// none). Only regular files are trimmed: a journal pointed at a pipe or
// terminal has no tail to read back.
func trimTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return err
	}
	end := fi.Size()
	buf := make([]byte, 4096)
	for pos := end; pos > 0; {
		n := min(pos, int64(len(buf)))
		pos -= n
		if _, err := f.ReadAt(buf[:n], pos); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			if keep := pos + int64(i) + 1; keep < end {
				return f.Truncate(keep)
			}
			return nil
		}
	}
	if end == 0 {
		return nil
	}
	return f.Truncate(0)
}

// Append writes v as one JSON line. No-op on a nil Appender or after an
// error.
func (a *Appender) Append(v any) {
	if a == nil {
		return
	}
	b, merr := json.Marshal(v)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	if merr != nil {
		a.err = merr
		return
	}
	if _, err := a.f.Write(append(b, '\n')); err != nil {
		a.err = err
	}
}

// Close syncs and closes the file, returning the first sticky error (or
// the sync or close error).
func (a *Appender) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	serr := a.f.Sync()
	cerr := a.f.Close()
	return cmp.Or(a.err, serr, cerr)
}

// readJournal loads a cell journal for -resume. A missing file is an
// empty journal.
func readJournal(path string) ([]journalEntry, error) {
	return ReadJSONLines[journalEntry](path)
}

// ReadJSONLines loads a JSONL file written by an append-only journal,
// tolerating the torn tail of an interrupted run: a missing file is an
// empty journal, blank lines are skipped, and parsing stops at the
// first malformed line, keeping every entry before it. Every journal in
// the system — the grid engine's cell journal, bschedd's request
// journal, the fleet coordinator's cell journal — resumes through this
// one reader so they all share the same crash-tolerance contract.
func ReadJSONLines[T any](path string) ([]T, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []T
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e T
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			break
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory plus rename, so a reader (or a crash) never observes a
// partially written file.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
