package ugpu_test

import (
	"errors"
	"strings"
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

// TestNewSimulationRejectsInvalidGroup: an offline partition whose shared
// group count exceeds the machine's eight channel groups asks the GPU for
// group 8. Building it returns an error naming that group instead of
// indexing past the group table.
func TestNewSimulationRejectsInvalidGroup(t *testing.T) {
	mix, err := ugpu.MixOf("PVC", "DXTC")
	if err != nil {
		t.Fatal(err)
	}
	pol := ugpu.NewUGPUOffline([]ugpu.Target{{SMs: 40, Groups: 9}, {SMs: 40, Groups: 1}})
	_, err = ugpu.NewSimulation(ugpu.DefaultConfig(), pol, mix)
	if err == nil || !strings.Contains(err.Error(), "invalid channel group 8") {
		t.Fatalf("NewSimulation with a 9-group target = %v, want an error naming invalid channel group 8", err)
	}
}
