package sim

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

func TestMetricsLoadInterlockShare(t *testing.T) {
	m := &Metrics{Cycles: 200, LoadInterlock: 50}
	if got := m.LoadInterlockShare(); got != 0.25 {
		t.Errorf("LoadInterlockShare() = %v, want 0.25", got)
	}
	// The zero-cycles guard: an empty run must report 0, not NaN.
	var zero Metrics
	if got := zero.LoadInterlockShare(); got != 0 {
		t.Errorf("zero-cycle LoadInterlockShare() = %v, want 0", got)
	}
}

func TestMetricsL1DHitRate(t *testing.T) {
	m := &Metrics{Loads: 10, L1DHits: 9}
	if got := m.L1DHitRate(); got != 0.9 {
		t.Errorf("L1DHitRate() = %v, want 0.9", got)
	}
	var zero Metrics
	if got := zero.L1DHitRate(); got != 0 {
		t.Errorf("zero-load L1DHitRate() = %v, want 0", got)
	}
}

// TestMetricsEachCoversEveryField proves the observability bridge cannot
// silently fall behind the struct: summing Each's emissions over a
// metrics value where every field is distinct must account for every
// int64 in the struct (ByClass entries included).
func TestMetricsEachCoversEveryField(t *testing.T) {
	m := &Metrics{}
	// Assign 1, 2, 3, ... to every int64 field reflectively.
	v := reflect.ValueOf(m).Elem()
	next := int64(1)
	var fill func(reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			v.SetInt(next)
			next++
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(v)
	wantSum := next * (next - 1) / 2 // 1 + 2 + ... + (next-1)

	var gotSum int64
	seen := map[string]bool{}
	m.Each(func(name string, val int64) {
		if seen[name] {
			t.Errorf("Each emitted %q twice", name)
		}
		seen[name] = true
		gotSum += val
	})
	if gotSum != wantSum {
		t.Errorf("Each emissions sum to %d, struct fields sum to %d — a field is missing from Each",
			gotSum, wantSum)
	}
	for i := 0; i < int(ir.NumClasses); i++ {
		name := "instrs/" + ir.Class(i).String()
		if !seen[name] {
			t.Errorf("Each missing per-class counter %q", name)
		}
	}
}
