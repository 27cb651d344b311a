package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// tiny returns minimum-scale options so every generator runs in seconds.
func tiny() Options {
	o := Default()
	o.Cfg.MaxCycles = 30_000
	o.Cfg.EpochCycles = 15_000
	o.Mixes = 1
	o.FootprintScale = 64
	return o
}

// scale is tiny() run for cycles over mixes mixes (15 K-cycle epochs,
// FootprintScale 64).
func scale(cycles, mixes int) Options {
	o := tiny()
	o.Cfg.MaxCycles = cycles
	o.Mixes = mixes
	return o
}

func TestMeanAndSort(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f", got)
	}
	s := sortedByValue([]float64{3, 1, 2})
	if s[0] != 1 || s[2] != 3 {
		t.Errorf("sortedByValue = %v", s)
	}
}

func TestHeteroMixSelectionSpreads(t *testing.T) {
	o := Default()
	o.Mixes = 5
	mixes := o.heteroMixes()
	if len(mixes) != 5 {
		t.Fatalf("got %d mixes", len(mixes))
	}
	seen := map[string]bool{}
	for _, m := range mixes {
		if seen[m.Name] {
			t.Errorf("duplicate mix %s", m.Name)
		}
		seen[m.Name] = true
		if !m.Hetero {
			t.Errorf("mix %s not heterogeneous", m.Name)
		}
	}
	// Requesting more than available returns all 50.
	o.Mixes = 100
	if got := len(o.heteroMixes()); got != 50 {
		t.Errorf("oversized request returned %d mixes, want 50", got)
	}
}

func TestFigureFormat(t *testing.T) {
	f := Figure{
		ID:     "Test",
		Title:  "a title",
		Series: []Series{{Name: "s", Labels: []string{"a", "b"}, Values: []float64{1, 2}}},
		Notes:  []string{"hello"},
	}
	var sb strings.Builder
	f.Format(&sb)
	out := sb.String()
	for _, want := range []string{"Test", "a title", "s", "1.000", "2.000", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

// TestSweepOptions covers the sweeps' option handling: malformed fault and
// gray specs are rejected before anything runs, a custom fault spec becomes
// one arm beside the healthy baseline, and a custom arrival rate and QoS
// mix reach the serve figure.
func TestSweepOptions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   func(*Options)
		gen   func(Options) (Figure, error)
		long  bool
		check func(t *testing.T, f Figure) // nil: the options must be rejected
	}{
		{name: "faults/bad-spec", set: func(o *Options) { o.FaultSpec = "sm=banana" }, gen: Options.FaultSweep},
		{name: "serve/bad-fault-spec", set: func(o *Options) { o.FaultSpec = "sm=banana" }, gen: Options.ServeSweep},
		{name: "failover/bad-fault-spec", set: func(o *Options) { o.FaultSpec = "noc=2" }, gen: Options.FailoverSweep},
		{name: "gray/bad-range", set: func(o *Options) { o.GrayFaults = "noc=1.5" }, gen: Options.GraySweep},
		{name: "gray/unknown-key", set: func(o *Options) { o.GrayFaults = "bogus=1" }, gen: Options.GraySweep},
		{name: "faults/custom-arm", gen: Options.FaultSweep,
			set: func(o *Options) {
				o.FaultSpec = "sm=1"
				o.Cfg.MaxCycles, o.Cfg.EpochCycles = 20_000, 10_000
			},
			check: func(t *testing.T, f Figure) {
				if len(f.Series) != 2 || f.Series[0].Name != "healthy" || f.Series[1].Name != "sm=1" {
					t.Errorf("custom spec arms = %+v; want healthy, sm=1", f.Series)
				}
			}},
		{name: "serve/custom-rate", gen: Options.ServeSweep, long: true,
			set: func(o *Options) {
				o.ArrivalRate, o.QoSMix = 10, 0.7
			},
			check: func(t *testing.T, f Figure) {
				if len(f.Series) == 0 || !reflect.DeepEqual(f.Series[0].Labels, []string{"r=10"}) {
					t.Fatalf("custom rate produced series %+v, want labels [r=10]", f.Series)
				}
				if !strings.Contains(strings.Join(f.Notes, "\n"), "LC fraction 0.70") {
					t.Errorf("custom QoS mix not recorded in notes: %v", f.Notes)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("multi-simulation sweep")
			}
			o := tiny()
			tc.set(&o)
			f, err := tc.gen(o)
			switch {
			case tc.check == nil && err == nil:
				t.Fatal("malformed spec accepted")
			case tc.check != nil && err != nil:
				t.Fatal(err)
			case tc.check != nil:
				tc.check(t, f)
			}
		})
	}
}
