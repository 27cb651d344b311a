package core

import (
	"errors"
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/gpu"
	"ugpu/internal/power"
)

// withPower sets the policy's power config on top of the test options.
func withPower(p Policy, pc *power.Config) Policy {
	return WithOptions(testPolicy(p), func(o *gpu.Options) { o.Power = pc })
}

// TestNewRunnerRefusesGovernedPower: the DVFS governor steps only in the
// serving layer, so a closed-world runner refuses a power config that would
// leave a governor states to choose (the default tables, or one multi-state
// table) rather than silently holding every domain at nominal. A
// nominal-only config is accepted and meters energy.
func TestNewRunnerRefusesGovernedPower(t *testing.T) {
	cfg := testCfg()
	mix := heteroMix(t)
	for _, c := range []struct {
		name string
		pc   *power.Config
	}{
		{"default tables", &power.Config{}},
		{"SM ladder", &power.Config{HBMStates: power.DefaultHBMStates()[:1]}},
		{"HBM ladder", &power.Config{SMStates: power.DefaultSMStates()[:1]}},
	} {
		_, err := NewRunner(cfg, withPower(NewUGPU(cfg), c.pc), mix)
		var fe *config.FieldError
		if !errors.As(err, &fe) || fe.Field != "Options.Power" {
			t.Errorf("%s: NewRunner error = %v, want a *config.FieldError for Options.Power", c.name, err)
		}
	}

	cfg.MaxCycles = cfg.EpochCycles
	nominal := &power.Config{
		SMStates:  power.DefaultSMStates()[:1],
		HBMStates: power.DefaultHBMStates()[:1],
	}
	res, err := RunPolicy(cfg, withPower(NewUGPU(cfg), nominal), mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power.Total <= 0 || res.Power.Transitions != 0 {
		t.Errorf("nominal-only run: energy %g, %d transitions; want metered energy and none",
			res.Power.Total, res.Power.Transitions)
	}
}
