package metrics

// Cross-package pin between the event-energy model and the power
// subsystem's DVFS meter: a run whose domains never leave nominal must meter
// exactly the energy the base model computes from whole-run counters.

import (
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/gpu"
	"ugpu/internal/power"
	"ugpu/internal/workload"
)

// TestAllNominalPowerMatchesEnergy: run the UGPU policy with a single-state
// (nominal-only) power config — the governor has nothing to choose, so every
// domain spends the whole run at P0 — and check the DVFS meter's breakdown
// equals the base model's whole-run-counter computation. This is the meter's
// correctness anchor: per-state attribution with V=1 everywhere must
// degenerate to the undifferentiated sums.
func TestAllNominalPowerMatchesEnergy(t *testing.T) {
	cfg := config.Default()
	cfg.MaxCycles = 60_000
	cfg.EpochCycles = 10_000
	pol := core.WithOptions(core.NewUGPU(cfg), func(o *gpu.Options) {
		o.FootprintScale = 64
		o.Power = &power.Config{
			SMStates:  power.DefaultSMStates()[:1],
			HBMStates: power.DefaultHBMStates()[:1],
		}
	})
	lbm, err := workload.ByAbbr("LBM")
	if err != nil {
		t.Fatal(err)
	}
	dxtc, err := workload.ByAbbr("DXTC")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "LBM_DXTC", Apps: []workload.Benchmark{lbm, dxtc}, Hetero: true}
	res, err := core.RunPolicy(cfg, pol, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power.Total <= 0 {
		t.Fatal("power report empty with Options.Power set")
	}
	if res.Power.Transitions != 0 {
		t.Fatalf("nominal-only run recorded %d transitions", res.Power.Transitions)
	}
	want := DefaultEnergy().Energy(cfg, res)
	almost := func(a, b float64) bool {
		d := a - b
		if b != 0 {
			d /= b
		}
		return d < 1e-9 && d > -1e-9
	}
	if !almost(res.Power.Core, want.Core) {
		t.Errorf("Core: DVFS meter %g, base model %g", res.Power.Core, want.Core)
	}
	if !almost(res.Power.HBM, want.HBM) {
		t.Errorf("HBM: DVFS meter %g, base model %g", res.Power.HBM, want.HBM)
	}
	if !almost(res.Power.Total, want.Total()) {
		t.Errorf("Total: DVFS meter %g, base model %g", res.Power.Total, want.Total())
	}
}
