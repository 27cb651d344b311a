package ugpu_test

import (
	"errors"
	"testing"

	"ugpu"
	"ugpu/internal/config"
)

// TestNewSimulationValidatesConfig: a broken architecture and a negative
// watchdog window surface through the library entry point as a
// *config.FieldError naming the offending field.
func TestNewSimulationValidatesConfig(t *testing.T) {
	mix, err := ugpu.MixOf("PVC", "DXTC")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		mut   func(*ugpu.Config)
	}{
		{"NumSMs", func(c *ugpu.Config) { c.NumSMs = -1 }},
		{"WatchdogCycles", func(c *ugpu.Config) { c.WatchdogCycles = -5 }},
	} {
		cfg := ugpu.DefaultConfig()
		tc.mut(&cfg)
		_, err := ugpu.NewSimulation(cfg, ugpu.NewBP(), mix)
		var fe *config.FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("NewSimulation with a bad %s = %v, want a FieldError on %s", tc.field, err, tc.field)
		}
	}
}
