package core

import (
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/gpu"
)

func TestEvenTargets(t *testing.T) {
	cfg := config.Default()
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		targets, err := evenTargets(n, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sms, groups := 0, 0
		for _, tg := range targets {
			if tg.SMs <= 0 || tg.Groups <= 0 {
				t.Errorf("n=%d: empty share %+v", n, tg)
			}
			sms += tg.SMs
			groups += tg.Groups
		}
		if sms != cfg.NumSMs || groups != cfg.ChannelGroups() {
			t.Errorf("n=%d: totals %d SMs / %d groups", n, sms, groups)
		}
	}
	if _, err := evenTargets(0, cfg); err == nil {
		t.Error("evenTargets(0) accepted")
	}
	if _, err := evenTargets(9, cfg); err == nil {
		t.Error("evenTargets(9) accepted with 8 channel groups")
	}
}

func TestStaticPoliciesNeverDecide(t *testing.T) {
	cfg := config.Default()
	for _, p := range []Policy{NewBP(), NewBPBS(), NewBPSB(), NewMPS(nil), NewBPQoS(), NewMPSQoS(cfg)} {
		if _, _, ok := p.Decide(0, nil); ok {
			t.Errorf("%s decided to reallocate", p.Name())
		}
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestMPSSharesAllGroups(t *testing.T) {
	cfg := config.Default()
	targets, err := NewMPS([]int{60, 20}).Initial(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if targets[0].SMs != 60 || targets[1].SMs != 20 {
		t.Errorf("MPS SM shares = %+v", targets)
	}
	for i, tg := range targets {
		if tg.Groups != cfg.ChannelGroups() {
			t.Errorf("MPS app %d holds %d groups, want all %d", i, tg.Groups, cfg.ChannelGroups())
		}
	}
	if !NewMPS(nil).Options().DisableMigration {
		t.Error("MPS options must disable migration")
	}
}

func TestUGPUVariantOptions(t *testing.T) {
	cfg := config.Default()
	if o := NewUGPU(cfg).Options(); o.OriReshuffle {
		t.Errorf("UGPU options = %+v", o)
	}
	if o := NewUGPUOri(cfg).Options(); !o.OriReshuffle {
		t.Error("UGPU-Ori must reshuffle the whole footprint")
	}
	names := map[string]bool{}
	for _, p := range []Policy{NewUGPU(cfg), NewUGPUOri(cfg), NewUGPUSoft(cfg)} {
		if names[p.Name()] {
			t.Errorf("duplicate policy name %s", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestUGPUDecideNoChangeOnEmptyProfiles(t *testing.T) {
	cfg := config.Default()
	p := NewUGPU(cfg)
	if _, _, ok := p.Decide(0, []gpu.EpochStats{}); ok {
		t.Error("decided with no profiles")
	}
	// Idle epoch (no instructions): APKI is zero, everyone looks
	// compute-bound, nothing should move since there is no memory-bound app.
	stats := []gpu.EpochStats{
		{App: 0, Cycles: 100, SMs: 40, Groups: 4},
		{App: 1, Cycles: 100, SMs: 40, Groups: 4},
	}
	if _, _, ok := p.Decide(0, stats); ok {
		t.Error("decided to move resources between two idle apps")
	}
}

func TestWithOptionsPreservesDecisions(t *testing.T) {
	cfg := config.Default()
	base := NewUGPU(cfg)
	wrapped := WithOptions(base, func(o *gpu.Options) { o.FootprintScale = 999 })
	if wrapped.Options().FootprintScale != 999 {
		t.Error("option override lost")
	}
	if wrapped.Name() != base.Name() {
		t.Error("wrapper changed the name")
	}
	// Decisions delegate to the wrapped policy.
	stats := []gpu.EpochStats{
		{App: 0, Cycles: 1000, Instructions: 40_000, LLCAccesses: 3600, SMs: 40, Groups: 4},
		{App: 1, Cycles: 1000, Instructions: 80_000, LLCAccesses: 80, LLCHits: 72, SMs: 40, Groups: 4},
	}
	t1, _, ok1 := base.Decide(0, stats)
	// Fresh instance for the wrapped call (policies may carry state).
	wrapped2 := WithOptions(NewUGPU(cfg), func(o *gpu.Options) {})
	t2, _, ok2 := wrapped2.Decide(0, stats)
	if ok1 != ok2 {
		t.Fatalf("wrapper changed decision: %v vs %v", ok1, ok2)
	}
	if ok1 {
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Errorf("wrapper changed targets: %+v vs %+v", t1, t2)
			}
		}
	}
}

func TestBigSmallSplit(t *testing.T) {
	cfg := config.Default()
	bs, err := NewBPBS().Initial(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bs[0].SMs != 60 || bs[0].Groups != 6 || bs[1].SMs != 20 || bs[1].Groups != 2 {
		t.Errorf("BP-BS = %+v, want 60/6 + 20/2", bs)
	}
	sb, _ := NewBPSB().Initial(2, cfg)
	if sb[0].SMs != 20 || sb[1].SMs != 60 {
		t.Errorf("BP-SB = %+v", sb)
	}
}

func TestCDSearchRevertsOnRegression(t *testing.T) {
	cfg := config.Default()
	p := NewCDSearch(cfg)
	mk := func(sm0, sm1 int, ipc0, ipc1 float64) []gpu.EpochStats {
		return []gpu.EpochStats{
			{App: 0, Cycles: 1000, Instructions: uint64(ipc0 * 1000), LLCAccesses: uint64(ipc0 * 90), SMs: sm0, Groups: 4},
			{App: 1, Cycles: 1000, Instructions: uint64(ipc1 * 1000), LLCAccesses: uint64(ipc1), SMs: sm1, Groups: 4},
		}
	}
	// First epoch: move SMs from the memory-bound app 0 to app 1.
	t1, _, ok := p.Decide(0, mk(40, 40, 20, 70))
	if !ok || t1[1].SMs <= 40 {
		t.Fatalf("CD-Search first move = %+v ok=%v", t1, ok)
	}
	// Second epoch: throughput regressed; revert and settle.
	t2, _, ok := p.Decide(1, mk(t1[0].SMs, t1[1].SMs, 15, 60))
	if !ok {
		t.Fatal("regression not reverted")
	}
	if t2[0].SMs != 40 || t2[1].SMs != 40 {
		t.Errorf("revert = %+v, want the original 40/40", t2)
	}
	// Settled: no further decisions.
	if _, _, ok := p.Decide(2, mk(40, 40, 25, 75)); ok {
		t.Error("CD-Search kept searching after settling")
	}
}
