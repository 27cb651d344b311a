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

func TestMigrationMicroShape(t *testing.T) {
	fig, err := tiny().MigrationMicro()
	if err != nil {
		t.Fatal(err)
	}
	v := fig.Series[0].Values
	if len(v) != 3 {
		t.Fatalf("want 3 migration modes, got %d", len(v))
	}
	if !(v[0] < v[1] && v[1] < v[2]) {
		t.Errorf("migration latencies %v not strictly increasing (PPMM < read/write < cross-stack)", v)
	}
	// PPMM on an idle system: 2 serialized rounds of MIGRATION commands.
	if v[0] < 75 || v[0] > 130 {
		t.Errorf("PPMM page latency = %.0f cycles, want ~80", v[0])
	}
}

func TestTable2ProfilesClassification(t *testing.T) {
	fig, err := tiny().Table2Profiles()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the paper's 7 memory-bound benchmarks.
	mem := 0.0
	for _, v := range fig.Series[2].Values {
		mem += v
	}
	if mem != 7 {
		t.Errorf("classified %v benchmarks memory-bound, want 7", mem)
	}
	// Simulated APKI ordering separates the classes.
	var minMem, maxCmp float64 = 1e18, 0
	for i, cls := range fig.Series[2].Values {
		apki := fig.Series[0].Values[i]
		if cls == 1 && apki < minMem {
			minMem = apki
		}
		if cls == 0 && apki > maxCmp {
			maxCmp = apki
		}
	}
	if minMem <= maxCmp {
		t.Errorf("APKI classes overlap: min memory-bound %.1f <= max compute-bound %.1f", minMem, maxCmp)
	}
}

func TestFigure2Shape(t *testing.T) {
	fig, err := tiny().Figure2()
	if err != nil {
		t.Fatal(err)
	}
	mc, sm := fig.Series[0].Values, fig.Series[1].Values
	// Compute-bound: MC sweep flat near 1.
	for i, v := range mc {
		if v < 0.9 || v > 1.1 {
			t.Errorf("DXTC MC point %s = %.3f, want ~1.0", fig.Series[0].Labels[i], v)
		}
	}
	// SM sweep monotonically increasing, ~linear endpoints.
	if !(sm[0] < sm[2] && sm[2] < sm[len(sm)-1]) {
		t.Errorf("DXTC SM sweep not increasing: %v", sm)
	}
	if sm[len(sm)-1] < 1.7 {
		t.Errorf("DXTC at 80 SMs = %.2f, want ~2x the 40-SM base", sm[len(sm)-1])
	}
}

func TestFigure3Shape(t *testing.T) {
	fig, err := tiny().Figure3()
	if err != nil {
		t.Fatal(err)
	}
	mc, sm := fig.Series[0].Values, fig.Series[1].Values
	// Memory-bound: MC sweep increasing.
	if !(mc[0] < mc[2] && mc[2] < mc[len(mc)-1]) {
		t.Errorf("PVC MC sweep not increasing: %v", mc)
	}
	// SM sweep much flatter than the compute-bound case: halving SMs from
	// the base loses little.
	if sm[1] < 0.6 { // 20 SMs vs the 40-SM base
		t.Errorf("PVC at 20 SMs = %.2f of base; memory-bound app should tolerate SM loss", sm[1])
	}
}

func TestFigure11Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy sweep")
	}
	o := tiny()
	o.Cfg.MaxCycles = 60_000
	fig, err := o.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	v := fig.Series[0].Values // BP, UGPU-Ori, UGPU-Soft, UGPU
	if !(v[1] < v[0]) {
		t.Errorf("UGPU-Ori STP %.3f not below BP %.3f", v[1], v[0])
	}
	if !(v[3] > v[1]) {
		t.Errorf("UGPU STP %.3f not above UGPU-Ori %.3f", v[3], v[1])
	}
}

func TestFigure16MeetsTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy sweep")
	}
	fig, err := tiny().Figure16()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Name == "UGPU" || s.Name == "BP" {
			if np := s.Values[0]; np < 0.70 {
				t.Errorf("%s mean NP = %.3f, want >= ~0.75 target", s.Name, np)
			}
			if viol := s.Values[2]; viol != 0 {
				t.Errorf("%s violated QoS %v times; isolation must guarantee the target", s.Name, viol)
			}
		}
	}
}

func TestPageSizeSensitivityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("three full pairs")
	}
	fig, err := tiny().PageSizeSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series[0].Values) != 3 {
		t.Fatalf("want 3 page sizes, got %d", len(fig.Series[0].Values))
	}
	for i, v := range fig.Series[0].Values {
		if v <= 0 {
			t.Errorf("page size %s: non-positive STP ratio %f", fig.Series[0].Labels[i], v)
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
