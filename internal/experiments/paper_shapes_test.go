package experiments

// The paper's §6 shapes, asserted in one table: each row regenerates one
// table or figure once, at the scale it names, and checks the "Measured"
// sentence EXPERIMENTS.md gives for it. A shape that does not hold at a
// row's scale is listed in EXPERIMENTS.md's "Summary of known deviations"
// with its numbers, and is not asserted here either way.

import "testing"

// at returns the figure's value in series name, column label.
func at(t *testing.T, f Figure, name, label string) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name != name {
			continue
		}
		for i, l := range s.Labels {
			if l == label {
				return s.Values[i]
			}
		}
	}
	t.Fatalf("%s has no value at %q/%q", f.ID, name, label)
	return 0
}

// meanOf returns the mean of series name's values.
func meanOf(t *testing.T, f Figure, name string) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return Mean(s.Values)
		}
	}
	t.Fatalf("%s has no series %q", f.ID, name)
	return 0
}

// above fails t unless a (named what) is strictly above b (named than).
func above(t *testing.T, what string, a float64, than string, b float64) {
	t.Helper()
	if !(a > b) {
		t.Errorf("%s %.3f not above %s %.3f", what, a, than, b)
	}
}

type shapeRow struct {
	name  string
	opts  Options
	gen   func(Options) (Figure, error)
	long  bool // skipped under -short
	check func(t *testing.T, f Figure)
}

var shapeRows = []shapeRow{
	{name: "table2", opts: scale(30_000, 1), gen: Options.Table2Profiles,
		check: func(t *testing.T, fig Figure) {
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
		}},
	{name: "fig2", opts: scale(30_000, 1), gen: Options.Figure2,
		check: func(t *testing.T, fig Figure) {
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
		}},
	{name: "fig3", opts: scale(30_000, 1), gen: Options.Figure3,
		check: func(t *testing.T, fig Figure) {
			mc, sm := fig.Series[0].Values, fig.Series[1].Values
			// Memory-bound: MC sweep increasing.
			if !(mc[0] < mc[2] && mc[2] < mc[len(mc)-1]) {
				t.Errorf("PVC MC sweep not increasing: %v", mc)
			}
			// SM sweep much flatter than the compute-bound case: halving SMs
			// from the base loses little.
			if sm[1] < 0.6 { // 20 SMs vs the 40-SM base
				t.Errorf("PVC at 20 SMs = %.2f of base; memory-bound app should tolerate SM loss", sm[1])
			}
		}},
	{name: "fig4", opts: scale(60_000, 2), gen: Options.Figure4, long: true,
		check: func(t *testing.T, fig Figure) {
			// Series are PVC's group shares 2, 4, 6; columns its SM shares
			// 16, 24, 40, 56, 64. The best cell gives PVC more MCs and fewer
			// SMs than the even split; the opposite corner falls below it.
			even := fig.Series[1].Values[2]
			bs, bc := 0, 0
			for si, s := range fig.Series {
				for ci, v := range s.Values {
					if v > fig.Series[bs].Values[bc] {
						bs, bc = si, ci
					}
				}
			}
			if !(bs > 1 && bc < 2) {
				t.Errorf("best cell %s/%s (%.3f) does not give PVC more MCs and fewer SMs than the even split (%.3f)",
					fig.Series[bs].Name, fig.Series[bs].Labels[bc], fig.Series[bs].Values[bc], even)
			}
			above(t, "the even split", even, "PVC 8 MCs/64 SMs", fig.Series[0].Values[4])
		}},
	{name: "fig10", opts: scale(60_000, 2), gen: Options.Figure10, long: true,
		check: func(t *testing.T, fig Figure) {
			ugpu := at(t, fig, "UGPU STP", "mean")
			above(t, "UGPU STP", ugpu, "BP", at(t, fig, "BP STP", "mean"))
			if off := at(t, fig, "UGPU-offline STP", "mean"); off < ugpu {
				t.Errorf("UGPU-offline STP %.3f below dynamic UGPU %.3f", off, ugpu)
			}
		}},
	{name: "fig11", opts: scale(60_000, 1), gen: Options.Figure11, long: true,
		check: func(t *testing.T, fig Figure) {
			v := fig.Series[0].Values // BP, UGPU-Ori, UGPU-Soft, UGPU
			if !(v[1] < v[0]) {
				t.Errorf("UGPU-Ori STP %.3f not below BP %.3f", v[1], v[0])
			}
			if !(v[3] > v[1]) {
				t.Errorf("UGPU STP %.3f not above UGPU-Ori %.3f", v[3], v[1])
			}
		}},
	{name: "fig12b", opts: scale(60_000, 2), gen: Options.Figure12b, long: true,
		check: func(t *testing.T, fig Figure) {
			// Memory energy rises under UGPU; energy per instruction falls.
			above(t, "UGPU mem energy delta", meanOf(t, fig, "UGPU mem energy delta"), "zero", 0)
			above(t, "zero", 0, "UGPU total energy delta", meanOf(t, fig, "UGPU total energy delta"))
		}},
	{name: "fig13", opts: scale(60_000, 2), gen: Options.Figure13, long: true,
		check: func(t *testing.T, fig Figure) {
			above(t, "BP(CD-Search) STP", at(t, fig, "BP(CD-Search) STP", "mean"), "BP", at(t, fig, "BP STP", "mean"))
			above(t, "BP ANTT", at(t, fig, "BP ANTT", "mean"), "BP(CD-Search)", at(t, fig, "BP(CD-Search) ANTT", "mean"))
		}},
	{name: "fig14", opts: scale(60_000, 2), gen: Options.Figure14, long: true,
		check: func(t *testing.T, fig Figure) {
			for _, row := range []string{"4-program", "8-program"} {
				above(t, row+" UGPU STP", at(t, fig, row, "UGPU STP"), "BP", at(t, fig, row, "BP STP"))
			}
			above(t, "8-program BP ANTT", at(t, fig, "8-program", "BP ANTT"), "UGPU", at(t, fig, "8-program", "UGPU ANTT"))
		}},
	{name: "fig15", opts: scale(60_000, 2), gen: Options.Figure15, long: true,
		check: func(t *testing.T, fig Figure) {
			above(t, "AI UGPU STP", at(t, fig, "AI mixes", "UGPU STP"), "BP", at(t, fig, "AI mixes", "BP STP"))
		}},
	{name: "fig16", opts: scale(30_000, 1), gen: Options.Figure16, long: true,
		check: func(t *testing.T, fig Figure) {
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
		}},
	{name: "micro", opts: scale(30_000, 1), gen: Options.MigrationMicro,
		check: func(t *testing.T, fig Figure) {
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
		}},
	{name: "pagesize", opts: scale(60_000, 2), gen: Options.PageSizeSensitivity, long: true,
		check: func(t *testing.T, fig Figure) {
			if len(fig.Series[0].Values) != 3 {
				t.Fatalf("want 3 page sizes, got %d", len(fig.Series[0].Values))
			}
			for i, v := range fig.Series[0].Values {
				above(t, "UGPU/BP STP ratio at "+fig.Series[0].Labels[i], v, "one", 1)
			}
		}},
}

func TestPaperShapes(t *testing.T) {
	for _, row := range shapeRows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("multi-simulation sweep")
			}
			t.Parallel()
			fig, err := row.gen(row.opts)
			if err != nil {
				t.Fatal(err)
			}
			row.check(t, fig)
		})
	}
}
