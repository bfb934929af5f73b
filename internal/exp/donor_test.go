package exp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/workload"
)

// profileRuns runs cfgs over tomcatv, traced and observed, and returns
// the suite with its "profile" span count and profile cache hits. A grid
// still running after a minute is taken to be blocked for good.
func profileRuns(t *testing.T, cfgs []core.Config, opt Options) (s *Suite, spans, hits int64, err error) {
	t.Helper()
	b, berr := workload.ByName("tomcatv")
	if berr != nil {
		t.Fatal(berr)
	}
	opt.Tracer, opt.Observe = obs.NewTracer(), true
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, err = RunBenchmarksConfigs([]workload.Benchmark{b}, cfgs, opt)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("grid still running after a minute")
	}
	var buf bytes.Buffer
	if werr := opt.Tracer.Write(&buf); werr != nil {
		t.Fatal(werr)
	}
	sum, verr := obs.ValidateChromeTrace(buf.Bytes())
	if verr != nil {
		t.Fatal(verr)
	}
	if merged := s.MergedObs(); merged != nil {
		hits = merged.Counters["core/profile_cache_hits"]
	}
	return s, int64(sum.Names["profile"]), hits, err
}

// cleanRun is one clean tomcatv paper grid, the result every faulted,
// reordered or resumed grid of this file must reproduce.
var cleanRun struct {
	once sync.Once
	s    *Suite
	err  error
}

func cleanSuite(t *testing.T) *Suite {
	t.Helper()
	cleanRun.once.Do(func() {
		cleanRun.s, cleanRun.err = RunGrid([]string{"tomcatv"}, Options{Jobs: 1})
	})
	if cleanRun.err != nil {
		t.Fatal(cleanRun.err)
	}
	return cleanRun.s
}

// sameMetrics fails unless every cfg of got has width-1 metrics equal to
// the clean run's.
func sameMetrics(t *testing.T, label string, got *Suite, cfgs []core.Config) {
	t.Helper()
	want := cleanSuite(t)
	for _, cfg := range cfgs {
		g, w := got.Get("tomcatv", cfg), want.Get("tomcatv", cfg)
		switch {
		case g == nil || g.Err != nil || g.Metrics == nil:
			t.Errorf("%s: %s has no healthy result: %+v", label, cfg.Name(), g)
		case *g.Metrics != *w.Metrics:
			t.Errorf("%s: %s metrics %+v, want %+v", label, cfg.Name(), g.Metrics, w.Metrics)
		}
	}
}

// TestDonatedProfiles pins the donors' work counts on a clean tomcatv
// grid: the five donors each record one profile span and every one of
// the seven trace cells takes a donated profile, at Jobs:1 and at Jobs:2
// under Verify, where each donation is checked against a walk. At Jobs:1
// the donor BS+LA+LU4 reuses an earlier cell's timing run, so its
// counts come from the memo.
func TestDonatedProfiles(t *testing.T) {
	for _, opt := range []Options{{Jobs: 1}, {Jobs: 2, Verify: true}} {
		_, spans, hits, err := profileRuns(t, Cells(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if spans != 5 || hits != 7 {
			t.Errorf("jobs=%d verify=%v: %d profile spans and %d cache hits, want 5 donations and 7 hits", opt.Jobs, opt.Verify, spans, hits)
		}
	}
}

// TestDonorRetryDonates panics a donor's first attempt, at the start of
// the cell or in its timed run. The donor's trace siblings run after it
// on its worker, so its retry still donates: one panic, one retry, five
// profile spans, seven cache hits and every cell's metrics equal to a
// clean run's.
func TestDonorRetryDonates(t *testing.T) {
	faults := []faultinject.Rule{
		{Site: "exp/cell", Key: "tomcatv/" + tsLU4.Name(), Mode: faultinject.ModePanic, OnHit: 1},
		// The first timed run is a donor's at either width: TS's, or at
		// Jobs:2 perhaps TS+LU4's.
		{Site: "sim/run", Key: "tomcatv", Mode: faultinject.ModePanic, OnHit: 1},
	}
	for _, jobs := range []int{1, 2} {
		for _, rule := range faults {
			label := fmt.Sprintf("jobs=%d %s", jobs, rule.Site)
			faultinject.Enable(faultinject.NewPlan(1, rule))
			s, spans, hits, err := profileRuns(t, Cells(), Options{Jobs: jobs})
			faultinject.Disable()
			if err != nil {
				t.Fatalf("%s: grid degraded: %v", label, err)
			}
			if eng := s.MergedObs(); eng.Counters["exp/cell_panics"] != 1 || eng.Counters["exp/cell_retries"] != 1 {
				t.Errorf("%s: %d panics and %d retries, want one of each", label,
					eng.Counters["exp/cell_panics"], eng.Counters["exp/cell_retries"])
			}
			if spans != 5 || hits != 7 {
				t.Errorf("%s: %d profile spans and %d cache hits, want 5 donations and 7 hits", label, spans, hits)
			}
			sameMetrics(t, label, s, Cells())
		}
	}
}

// TestDonorFaultFallsBackToWalk fails the donor TS+LU4 for good. The
// grid reports that cell alone, the first trace cell of its prefix walks
// the prefix code (four donations, one walk and six cache hits, not
// seven), and every other cell's metrics equal a clean run's.
func TestDonorFaultFallsBackToWalk(t *testing.T) {
	var others []core.Config
	for _, cfg := range Cells() {
		if cfg != tsLU4 {
			others = append(others, cfg)
		}
	}
	rule := faultinject.Rule{Site: "exp/cell", Key: "tomcatv/" + tsLU4.Name(), Mode: faultinject.ModeError}
	for _, jobs := range []int{1, 2} {
		label := fmt.Sprintf("jobs=%d", jobs)
		faultinject.Enable(faultinject.NewPlan(1, rule))
		s, spans, hits, err := profileRuns(t, Cells(), Options{Jobs: jobs})
		faultinject.Disable()
		var ge *GridError
		if !errors.As(err, &ge) || len(ge.Cells) != 1 || ge.Cells[0].Bench != "tomcatv" || ge.Cells[0].Config != tsLU4.Name() {
			t.Fatalf("%s: grid error %v, want one naming tomcatv %s", label, err, tsLU4.Name())
		}
		if spans != 5 || hits != 6 {
			t.Errorf("%s: %d profile spans and %d cache hits, want 4 donations, 1 walk and 6 hits", label, spans, hits)
		}
		sameMetrics(t, label, s, others)
	}
}

// TestTraceCellBeforeSiblingWalks puts each prefix's trace cell before
// its block-scheduled siblings. Such a prefix has no donor, so its trace
// cell walks it and the grid completes with a clean run's metrics; a
// prefix whose sibling comes first still donates.
func TestTraceCellBeforeSiblingWalks(t *testing.T) {
	cfgs := []core.Config{bsTrS, bsNone, tsNone, tsLU4, tsTrS4, bsTrS4}
	for _, jobs := range []int{1, 2} {
		s, spans, hits, err := profileRuns(t, cfgs, Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		// The empty prefix is walked by BS+TrS; LU4 is donated by TS+LU4,
		// and both of its trace cells hit.
		if spans != 2 || hits != 2 {
			t.Errorf("jobs=%d: %d profile spans and %d cache hits, want 1 walk, 1 donation and 2 hits", jobs, spans, hits)
		}
		sameMetrics(t, fmt.Sprintf("jobs=%d", jobs), s, cfgs)
	}
}

// TestResumeReplayedDonorsWalk journals a grid of the block-scheduled
// cells, then resumes the full grid from it. The replayed cells run no
// timed run to donate from, so every trace prefix is walked, and the
// tables equal a clean run's.
func TestResumeReplayedDonorsWalk(t *testing.T) {
	var blocks []core.Config
	for _, cfg := range Cells() {
		if !cfg.Trace {
			blocks = append(blocks, cfg)
		}
	}
	dir := t.TempDir()
	blockJournal := filepath.Join(dir, "blocks.jsonl")
	if _, _, _, err := profileRuns(t, blocks, Options{Jobs: 2, Journal: blockJournal}); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(blockJournal)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		// Each resume appends to its journal, so each starts from a copy.
		journal := filepath.Join(dir, fmt.Sprintf("jobs%d.jsonl", jobs))
		if err := os.WriteFile(journal, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		s, spans, hits, err := profileRuns(t, Cells(), Options{Jobs: jobs, Journal: journal, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := s.MergedObs().Counters["exp/cells_resumed"]; n != int64(len(blocks)) {
			t.Errorf("jobs=%d: %d cells resumed, want %d", jobs, n, len(blocks))
		}
		if spans != 5 || hits != 2 {
			t.Errorf("jobs=%d: %d profile spans and %d cache hits, want 5 walks and 2 hits", jobs, spans, hits)
		}
		if got, want := renderAll(s), renderAll(cleanSuite(t)); got != want {
			t.Errorf("jobs=%d: resumed tables differ from a clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", jobs, want, got)
		}
	}
}
