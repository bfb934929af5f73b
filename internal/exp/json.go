package exp

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// CellJSON is the machine-readable form of one grid cell.
type CellJSON struct {
	// Bench is the benchmark name (paper Table 1).
	Bench string `json:"bench"`
	// Config is the cell's configuration in the tables' notation.
	Config string `json:"config"`
	// Metrics are the simulated measurements on the single-issue machine.
	Metrics *sim.Metrics `json:"metrics"`
	// Wide holds the measurements at the cell's other issue widths, keyed
	// by width; omitted for cells simulated only at width 1.
	Wide map[int]*sim.Metrics `json:"wide,omitempty"`
	// Obs is the cell's observability snapshot (compiler counters and
	// "sim/"-prefixed simulator metrics); omitted when the run did not
	// observe.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Error is the cell's failure when the grid completed degraded;
	// omitted for healthy cells.
	Error string `json:"error,omitempty"`
}

// SuiteJSON is the machine-readable form of a full grid run.
type SuiteJSON struct {
	// Benchmarks lists the run's benchmarks in paper Table 1 order.
	Benchmarks []string `json:"benchmarks"`
	// Configs lists the names of the configurations the run compiled.
	Configs []string `json:"configs"`
	// Cells holds every (benchmark, config) result.
	Cells []CellJSON `json:"cells"`
}

// JSON converts the suite into its machine-readable form.
func (s *Suite) JSON() *SuiteJSON {
	out := &SuiteJSON{Benchmarks: s.sortedBenches()}
	for _, cfg := range s.cfgs {
		out.Configs = append(out.Configs, cfg.Name())
	}
	for _, b := range out.Benchmarks {
		for _, cfg := range s.cfgs {
			r := s.Get(b, cfg)
			if r == nil {
				continue
			}
			c := CellJSON{
				Bench:   r.Bench,
				Config:  r.Config.Name(),
				Metrics: r.Metrics,
				Wide:    r.Wide,
				Obs:     r.Obs,
			}
			if r.Err != nil {
				c.Error = r.Err.Error()
			}
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// WriteJSON writes the suite as indented JSON.
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.JSON())
}
