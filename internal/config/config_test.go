package config

import (
	"errors"
	"math"
	"testing"

	"ugpu/internal/sm"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", c.NumSMs, 80},
		{"WarpsPerSM", c.WarpsPerSM, 64},
		{"ThreadsPerWarp", c.ThreadsPerWarp, 32},
		{"SchedulersPerSM", c.SchedulersPerSM, 2},
		{"channels", c.NumChannels(), 32},
		{"stacks", c.NumStacks, 4},
		{"channels/stack", c.ChannelsPerStack, 8},
		{"bank groups", c.BankGroups, 4},
		{"banks/group", c.BanksPerGroup, 4},
		{"LLC slices", c.LLCSlices, 64},
		{"L2 TLB entries", c.L2TLBEntries, 512},
		{"L1 TLB entries", c.L1TLBEntries, 64},
		{"queue entries", c.QueueEntries, 64},
		{"page bytes", c.PageBytes, 4096},
		{"PTW threads", c.PTWThreads, 64},
		{"PTW levels", c.PTWLevels, 4},
		{"threads/SM", c.ThreadsPerSM(), 2048},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

func TestDefaultCapacities(t *testing.T) {
	c := Default()
	if got := c.LLCBytes(); got != 6*1024*1024 {
		t.Errorf("LLC capacity = %d bytes, want 6 MiB", got)
	}
	if got := c.L1Bytes(); got != 48*1024 {
		t.Errorf("L1 capacity = %d bytes, want 48 KiB", got)
	}
	if got := c.LinesPerPage(); got != 32 {
		t.Errorf("lines per page = %d, want 32", got)
	}
	if got := c.SlicesPerChannel(); got != 2 {
		t.Errorf("slices per channel = %d, want 2", got)
	}
	if got := c.TBsPerSM(); got != 8 {
		t.Errorf("TBs per SM = %d, want 8", got)
	}
}

func TestHBMTimingMatchesTable1(t *testing.T) {
	tm := Default().Timing
	want := HBMTiming{
		TRC: 47, TRCD: 14, TRP: 14, TCL: 14, TWL: 2, TRAS: 33,
		TRRDL: 6, TRRDS: 4, TFAW: 20, TRTP: 4,
		TCCDL: 2, TCCDS: 1, TWTRL: 8, TWTRS: 3,
	}
	if tm != want {
		t.Errorf("timing = %+v, want %+v", tm, want)
	}
}

func TestAggregateBandwidthNear900GBs(t *testing.T) {
	bw := Default().AggregateBandwidthGBs()
	if math.Abs(bw-900) > 100 {
		t.Errorf("aggregate bandwidth = %.1f GB/s, want within 100 of Table 1's 900", bw)
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v, want nil", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Fatalf("PaperScale().Validate() = %v, want nil", err)
	}
}

func TestPaperScaleLengths(t *testing.T) {
	c := PaperScale()
	if c.MaxCycles != 25_000_000 || c.EpochCycles != 5_000_000 {
		t.Errorf("PaperScale lengths = (%d, %d), want (25M, 5M)", c.MaxCycles, c.EpochCycles)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"negative SMs", func(c *Config) { c.NumSMs = -4 }},
		{"warps not multiple of TB", func(c *Config) { c.WarpsPerTB = 7 }},
		{"zero schedulers", func(c *Config) { c.SchedulersPerSM = 0 }},
		{"non-pow2 line", func(c *Config) { c.L1LineBytes = 100 }},
		{"non-pow2 page", func(c *Config) { c.PageBytes = 5000 }},
		{"page smaller than line", func(c *Config) { c.PageBytes = 64 }},
		{"zero stacks", func(c *Config) { c.NumStacks = 0 }},
		{"non-pow2 stacks", func(c *Config) { c.NumStacks = 3 }},
		{"non-pow2 bank groups", func(c *Config) { c.BankGroups = 3 }},
		{"slices not multiple of channels", func(c *Config) { c.LLCSlices = 63 }},
		{"zero LLC ways", func(c *Config) { c.LLCWays = 0 }},
		{"warps past the ready mask", func(c *Config) { c.WarpsPerSM = 2 * MaxWarpsPerSM }},
		{"banks past the bank mask", func(c *Config) { c.BankGroups, c.BanksPerGroup = 8, 16 }},
		{"zero burst", func(c *Config) { c.BurstCycles = 0 }},
		{"zero epoch", func(c *Config) { c.EpochCycles = 0 }},
		{"zero queue", func(c *Config) { c.QueueEntries = 0 }},
		{"zero migration latency", func(c *Config) { c.MigrationCycles = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := Default()
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid config (%s)", m.name)
			}
		})
	}
}

// TestValidateGeometryBounds: the mask bounds reject one past the limit with
// the named field, accept the limit itself, and match the package that
// relies on them.
func TestValidateGeometryBounds(t *testing.T) {
	cases := []struct {
		name, field string
		mut         func(*Config)
	}{
		{"warps", "WarpsPerSM", func(c *Config) { c.WarpsPerSM, c.WarpsPerTB = MaxWarpsPerSM+1, 1 }},
		{"banks", "BanksPerGroup", func(c *Config) { c.BankGroups, c.BanksPerGroup = 4, 32 }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		var fe *FieldError
		if err := c.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want a %s field error", tc.name, err, tc.field)
		}
	}
	c := Default()
	c.WarpsPerSM, c.WarpsPerTB = MaxWarpsPerSM, 8
	c.BankGroups, c.BanksPerGroup = 4, MaxBanksPerChannel/4
	if err := c.Validate(); err != nil {
		t.Errorf("Validate() rejected the bounds themselves: %v", err)
	}
	if sm.MaxWarps != MaxWarpsPerSM {
		t.Errorf("sm.MaxWarps = %d, config.MaxWarpsPerSM = %d", sm.MaxWarps, MaxWarpsPerSM)
	}
}
