package core

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// gridConfigs replicates exp.Cells() (exp imports core, so the grid is
// restated here): the 16 cells of the paper's evaluation.
func gridConfigs() []Config {
	bal := sched.Balanced
	trad := sched.Traditional
	return []Config{
		{Policy: trad},
		{Policy: trad, Unroll: 4},
		{Policy: trad, Unroll: 8},
		{Policy: trad, Trace: true, Unroll: 4},
		{Policy: trad, Trace: true, Unroll: 8},
		{Policy: bal},
		{Policy: bal, Unroll: 4},
		{Policy: bal, Unroll: 8},
		{Policy: bal, Trace: true},
		{Policy: bal, Trace: true, Unroll: 4},
		{Policy: bal, Trace: true, Unroll: 8},
		{Policy: bal, Locality: true},
		{Policy: bal, Locality: true, Unroll: 4},
		{Policy: bal, Locality: true, Unroll: 8},
		{Policy: bal, Locality: true, Trace: true, Unroll: 4},
		{Policy: bal, Locality: true, Trace: true, Unroll: 8},
	}
}

// TestConfigNameRoundTripGrid round-trips every cell of the experiment
// grid through the tables' notation: ParseConfig(c.Name()) must
// reconstruct c exactly.
func TestConfigNameRoundTripGrid(t *testing.T) {
	for _, cfg := range gridConfigs() {
		got, err := ParseConfig(cfg.Name())
		if err != nil {
			t.Errorf("%s: %v", cfg.Name(), err)
			continue
		}
		if got != cfg {
			t.Errorf("%s: round-trip produced %+v, want %+v", cfg.Name(), got, cfg)
		}
	}
}

// TestConfigNameRoundTripRandom is the property test over the whole
// notation: any configuration with a representable unroll factor must
// survive Name -> ParseConfig unchanged, whatever the option combination.
func TestConfigNameRoundTripRandom(t *testing.T) {
	policies := []sched.Policy{sched.Traditional, sched.Balanced, sched.BalancedFixed, sched.Auto}
	unrolls := []int{0, 2, 4, 8, 16}
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 500; trial++ {
		cfg := Config{
			Policy:   policies[rng.Intn(len(policies))],
			Unroll:   unrolls[rng.Intn(len(unrolls))],
			Trace:    rng.Intn(2) == 0,
			Locality: rng.Intn(2) == 0,
			Prefetch: rng.Intn(2) == 0,
			LICM:     rng.Intn(2) == 0,
		}
		name := cfg.Name()
		got, err := ParseConfig(name)
		if err != nil {
			t.Fatalf("trial %d: ParseConfig(%q): %v", trial, name, err)
		}
		if got != cfg {
			t.Fatalf("trial %d: %q round-trip produced %+v, want %+v", trial, name, got, cfg)
		}
		// And re-rendering the parsed value must be stable.
		if again := got.Name(); again != name {
			t.Fatalf("trial %d: re-rendered %q as %q", trial, name, again)
		}
	}
}

// TestParseConfigRejects covers the notation's rejection cases.
func TestParseConfigRejects(t *testing.T) {
	bad := []string{
		"",            // empty
		"bs",          // lowercase prefix
		"XX",          // unknown prefix
		"LA+BS",       // options before the policy prefix
		"BS+LU1",      // unroll factor below 2
		"BS+LU0",      // unroll factor below 2
		"BS+LUx",      // non-numeric unroll factor
		"BS+LU",       // missing unroll factor
		"BS+ZZ",       // unknown option
		"BS+LA+NOPE",  // unknown trailing option
		"TS++LU4",     // empty option
		"BS+TrS+LU-4", // negative factor

		"BS+LU17",       // unroll factor above unroll.MaxFactor
		"BS+TrS+LU1024", // unroll factor above unroll.MaxFactor
	}
	for _, s := range bad {
		if _, err := ParseConfig(s); err == nil {
			t.Errorf("ParseConfig(%q) accepted; want error", s)
		}
	}
}
