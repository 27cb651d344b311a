package core

import (
	"testing"

	"ugpu/internal/gpu"
)

func hcStats(sm0, gr0, sm1, gr1 int, ipc0, ipc1 float64) []gpu.EpochStats {
	mk := func(app, sms, groups int, ipc float64) gpu.EpochStats {
		return gpu.EpochStats{
			App: app, Cycles: 1000, Instructions: uint64(ipc * 1000),
			SMs: sms, Groups: groups,
		}
	}
	return []gpu.EpochStats{mk(0, sm0, gr0, ipc0), mk(1, sm1, gr1, ipc1)}
}

func TestHillClimbProbesAndKeepsImprovements(t *testing.T) {
	cfg := testCfg()
	p := NewHillClimb(cfg)
	// Epoch 1: baseline; the policy probes a perturbation.
	targets, _, ok := p.Decide(0, hcStats(40, 4, 40, 4, 50, 50))
	if !ok {
		t.Fatal("first decision made no probe")
	}
	moved := targets[0].SMs != 40 || targets[0].Groups != 4
	if !moved {
		t.Fatalf("probe did not perturb: %+v", targets)
	}
	// Epoch 2: throughput improved -> keep probing (no revert to 40/4).
	targets2, _, ok2 := p.Decide(1, hcStats(targets[0].SMs, targets[0].Groups, targets[1].SMs, targets[1].Groups, 60, 55))
	if ok2 && targets2[0].SMs == 40 && targets2[0].Groups == 4 {
		t.Error("improvement was reverted")
	}
}

func TestHillClimbRevertsOnRegression(t *testing.T) {
	cfg := testCfg()
	p := NewHillClimb(cfg)
	targets, _, ok := p.Decide(0, hcStats(40, 4, 40, 4, 50, 50))
	if !ok {
		t.Fatal("no probe")
	}
	// Regression: total IPC dropped sharply.
	rev, _, ok2 := p.Decide(1, hcStats(targets[0].SMs, targets[0].Groups, targets[1].SMs, targets[1].Groups, 30, 30))
	if !ok2 {
		t.Fatal("regression not acted on")
	}
	if rev[0].SMs != 40 || rev[0].Groups != 4 || rev[1].SMs != 40 || rev[1].Groups != 4 {
		t.Errorf("revert = %+v, want the pre-probe 40/4 split", rev)
	}
}

func TestHillClimbOnlyTwoApps(t *testing.T) {
	p := NewHillClimb(testCfg())
	stats := append(hcStats(20, 2, 20, 2, 10, 10), hcStats(20, 2, 20, 2, 10, 10)...)
	if _, _, ok := p.Decide(0, stats); ok {
		t.Error("hill climb acted on a 4-app mix")
	}
}

// TestHillClimbEndToEnd: hill climbing, the model-free search of Section
// 3.1's prior work, probes on PVC_DXTC, and the demand-aware algorithm
// reaches a far better partition in the same six epochs: total IPC 140.2 vs
// 98.3. The 1.2x margin also fails a UGPU that never leaves the even split
// (BP reads 100.1), since hill climbing's probes end back there.
func TestHillClimbEndToEnd(t *testing.T) {
	cfg := testCfg()
	cfg.MaxCycles = 120_000
	run := func(p Policy) Result {
		res, err := RunPolicy(cfg, testPolicy(p), heteroMix(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hc := run(NewHillClimb(cfg))
	if hc.Reallocations == 0 {
		t.Error("hill climb never probed")
	}
	if hc.TotalIPC() <= 0 {
		t.Fatal("no progress")
	}
	if testing.Short() {
		return
	}
	if da := run(NewUGPU(cfg)).TotalIPC(); da < 1.2*hc.TotalIPC() {
		t.Errorf("demand-aware total IPC %.1f below 1.2x hill climbing's %.1f", da, hc.TotalIPC())
	}
}
