package fault

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPlanGrayFaultsDeterministic(t *testing.T) {
	spec := GraySpec{GPUs: 3, SMStep: 2, HBMStep: 1, NoCDrop: 0.01, Window: 0.2}
	a := PlanGrayFaults(7, 8, spec, 1_000_000)
	b := PlanGrayFaults(7, 8, spec, 1_000_000)
	if len(a) != 3 {
		t.Fatalf("plan length = %d, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := PlanGrayFaults(8, 8, spec, 1_000_000)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical gray plans")
	}
}

func TestPlanGrayFaultsSpareSurvivor(t *testing.T) {
	// Victim count clamps to gpus-1: at least one healthy peer remains as
	// the detection baseline.
	plan := PlanGrayFaults(1, 4, GraySpec{GPUs: 99}, 500_000)
	if len(plan) != 3 {
		t.Fatalf("plan length = %d, want 3 (clamped to gpus-1)", len(plan))
	}
	seen := map[int]bool{}
	for _, gf := range plan {
		if gf.GPU < 0 || gf.GPU >= 4 {
			t.Errorf("victim %d out of range", gf.GPU)
		}
		if seen[gf.GPU] {
			t.Errorf("victim %d repeated", gf.GPU)
		}
		seen[gf.GPU] = true
	}
	// Single-GPU cluster: nothing to degrade without losing the baseline.
	if p := PlanGrayFaults(1, 1, GraySpec{GPUs: 1}, 500_000); p != nil {
		t.Errorf("1-GPU cluster got a gray plan: %+v", p)
	}
	if p := PlanGrayFaults(1, 4, GraySpec{}, 500_000); p != nil {
		t.Errorf("empty spec got a gray plan: %+v", p)
	}
}

func TestPlanGrayFaultsMiddleBandAndSorted(t *testing.T) {
	const horizon = 1_000_000
	plan := PlanGrayFaults(3, 6, GraySpec{GPUs: 4, Window: 0.1}, horizon)
	if len(plan) != 4 {
		t.Fatalf("plan length = %d, want 4", len(plan))
	}
	if !sort.SliceIsSorted(plan, func(a, b int) bool {
		if plan[a].Start != plan[b].Start {
			return plan[a].Start < plan[b].Start
		}
		return plan[a].GPU < plan[b].GPU
	}) {
		t.Errorf("plan not sorted by (Start, GPU): %+v", plan)
	}
	for _, gf := range plan {
		if gf.Start < horizon/5 || gf.End > horizon*4/5 {
			t.Errorf("window [%d,%d) outside the middle 60%% of %d", gf.Start, gf.End, horizon)
		}
		if gf.End <= gf.Start {
			t.Errorf("empty window [%d,%d)", gf.Start, gf.End)
		}
	}
}

func TestPlanGrayFaultsDefaults(t *testing.T) {
	plan := PlanGrayFaults(5, 4, GraySpec{GPUs: 1}, 400_000)
	if len(plan) != 1 {
		t.Fatalf("plan length = %d, want 1", len(plan))
	}
	gf := plan[0]
	if gf.SMStep != 3 || gf.HBMStep != 1 || gf.NoCDrop != 0.005 {
		t.Errorf("sparse spec did not pick up severity defaults: %+v", gf)
	}
	// Default window is a quarter of the horizon.
	if w := gf.End - gf.Start; w < 90_000 || w > 100_000 {
		t.Errorf("default window length %d, want ~100000", w)
	}
	// Tiny horizons still yield a usable, in-band window.
	for _, gf := range PlanGrayFaults(5, 3, GraySpec{GPUs: 2, Window: 1}, 10) {
		if gf.End <= gf.Start {
			t.Errorf("tiny horizon gave empty window %+v", gf)
		}
	}
}

func TestParseGraySpecErrors(t *testing.T) {
	cases := []struct {
		in, wantSub string
	}{
		{"gpus", "not key=value"},
		{"gpus=x", "non-negative integer"},
		{"gpus=-1", "non-negative integer"},
		{"sm=1.5", "non-negative integer"},
		{"hbm=-2", "non-negative integer"},
		{"noc=1", "probability in [0,1)"},
		{"noc=-0.1", "probability in [0,1)"},
		{"noc=NaN", "probability in [0,1)"},
		{"window=0", "horizon fraction in (0,1]"},
		{"window=1.1", "horizon fraction in (0,1]"},
		{"window=NaN", "horizon fraction in (0,1]"},
		{"banana=7", "unknown field"},
	}
	for _, c := range cases {
		_, err := ParseGraySpec(c.in)
		if err == nil {
			t.Errorf("ParseGraySpec(%q) = nil error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseGraySpec(%q) error %q missing %q", c.in, err, c.wantSub)
		}
		if !strings.Contains(err.Error(), "grammar:") {
			t.Errorf("ParseGraySpec(%q) error %q does not restate the grammar", c.in, err)
		}
	}
}

func TestParseGraySpecAccepts(t *testing.T) {
	got, err := ParseGraySpec(" gpus = 2 , sm=3, hbm=1, noc=0.005, window=0.25 ")
	if err != nil {
		t.Fatalf("ParseGraySpec: %v", err)
	}
	want := GraySpec{GPUs: 2, SMStep: 3, HBMStep: 1, NoCDrop: 0.005, Window: 0.25}
	if got != want {
		t.Errorf("ParseGraySpec = %+v, want %+v", got, want)
	}
	for _, empty := range []string{"", "none", "  none  ", ",,"} {
		spec, err := ParseGraySpec(empty)
		if err != nil || !spec.Empty() {
			t.Errorf("ParseGraySpec(%q) = %+v, %v; want empty", empty, spec, err)
		}
	}
	// String round-trips through the parser.
	back, err := ParseGraySpec(want.String())
	if err != nil || back != want {
		t.Errorf("round-trip %q -> %+v, %v; want %+v", want.String(), back, err, want)
	}
	if s := (GraySpec{}).String(); s != "none" {
		t.Errorf("empty spec String = %q, want none", s)
	}
}

// TestPlannerSchedulesPinned pins both planners' schedules for three seeds
// (values recorded before they came to share one window planner), so the
// shared planner reproduces each exactly: crashes as zero-length windows,
// gray windows with their one-cycle minimum.
func TestPlannerSchedulesPinned(t *testing.T) {
	spec := GraySpec{GPUs: 2, SMStep: 3, NoCDrop: 0.005, Window: 0.25}
	for _, tc := range []struct {
		seed  int64
		crash []Crash
		gray  [][3]uint64 // start, end, GPU
	}{
		{1, []Crash{{0x6dfec, 2}, {0xa3ee7, 0}}, [][3]uint64{{0x5b7d2, 0x98862, 5}, {0x71a72, 0xaeb02, 3}}},
		{7, []Crash{{0x735a1, 3}, {0xa5b06, 1}}, [][3]uint64{{0x4d651, 0x8a6e1, 1}, {0x75937, 0xb29c7, 4}}},
		{42, []Crash{{0x76379, 2}, {0x92b69, 3}}, [][3]uint64{{0x51d3a, 0x8edca, 2}, {0x6f38d, 0xac41d, 1}}},
	} {
		if got := PlanGPUCrashes(tc.seed, 4, 2, 1_000_000); !reflect.DeepEqual(got, tc.crash) {
			t.Errorf("seed %d: crashes %+v, want %+v", tc.seed, got, tc.crash)
		}
		var want []GrayFault
		for _, w := range tc.gray {
			want = append(want, GrayFault{Start: w[0], End: w[1], GPU: int(w[2]), SMStep: 3, NoCDrop: 0.005})
		}
		if got := PlanGrayFaults(tc.seed, 6, spec, 1_000_000); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: gray windows %+v, want %+v", tc.seed, got, want)
		}
	}
}

// TestPlannerKeepsCrowdedWindowsInBand plans more victims than the
// 20%..80% band has cycles: every gray window must still last at least one
// cycle and every crash must land before the band's end.
func TestPlannerKeepsCrowdedWindowsInBand(t *testing.T) {
	const gpus, victims, horizon = 300, 200, 150
	hi := uint64(horizon * 4 / 5)
	gray := PlanGrayFaults(3, gpus, GraySpec{GPUs: victims, SMStep: 3, Window: 0.25}, horizon)
	if len(gray) != victims {
		t.Fatalf("planned %d gray windows, want %d", len(gray), victims)
	}
	for _, w := range gray {
		if w.End <= w.Start || w.End > hi {
			t.Errorf("gray window [%d, %d) on GPU %d leaves the band or is empty (band end %d)", w.Start, w.End, w.GPU, hi)
		}
	}
	crashes := PlanGPUCrashes(3, gpus, victims, horizon)
	if len(crashes) != victims {
		t.Fatalf("planned %d crashes, want %d", len(crashes), victims)
	}
	for _, c := range crashes {
		if c.Cycle >= hi {
			t.Errorf("crash of GPU %d at cycle %d, want before %d", c.GPU, c.Cycle, hi)
		}
	}
}
