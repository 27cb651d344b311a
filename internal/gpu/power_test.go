package gpu

// Integration tests for the power subsystem at the GPU level: energy
// conservation (the sum of per-epoch power readings equals the final metered
// total) across healthy, faulted, and tenant-churn runs, and fast-forward
// byte-identity while DVFS is actively throttling domains.

import (
	"bytes"
	"testing"

	"ugpu/internal/fault"
	"ugpu/internal/power"
	"ugpu/internal/trace"
)

func powerOptions() Options {
	opt := testOptions()
	opt.Power = &power.Config{}
	return opt
}

// dvfsSchedule applies a deterministic state walk at epoch boundary i: it
// cycles a few SM domains and channels through the state tables so every
// voltage/frequency combination accrues residency.
func dvfsSchedule(pm *power.Manager, cycle uint64, i int) {
	nSM := len(pm.SMStates())
	nCh := len(pm.HBMStates())
	pm.SetSMState(cycle, i%pm.NumSMDomains(), i%nSM)
	pm.SetSMState(cycle, (i*3+1)%pm.NumSMDomains(), (i+1)%nSM)
	pm.SetChannelState(cycle, i%pm.NumChannels(), i%nCh)
}

// conservationRun drives a GPU epoch by epoch, reading EpochPower at every
// boundary, and checks that the per-epoch readings integrate to the final
// metered total (pm.Report with zero migration lines). churn attaches and
// detaches a tenant mid-run.
func conservationRun(t *testing.T, opt Options, spec []AppSpec, churn bool) {
	t.Helper()
	cfg := testConfig()
	g, err := New(cfg, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	pm := g.PowerManager()
	if pm == nil {
		t.Fatal("PowerManager is nil with Options.Power set")
	}
	var sum float64
	last := uint64(0)
	detaching := -1
	for i := 0; g.Cycle() < uint64(cfg.MaxCycles); i++ {
		if err := g.RunChecked(uint64(cfg.EpochCycles)); err != nil {
			t.Fatal(err)
		}
		g.EndEpoch()
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		c := g.Cycle()
		p := pm.EpochPower(c)
		if p < 0 {
			t.Fatalf("epoch %d: negative power %g", i, p)
		}
		sum += p * float64(c-last) / power.DefaultWattsPerUnit
		last = c
		if churn {
			switch i {
			case 0:
				if _, err := g.AttachApp(c, AppSpec{Bench: spec[0].Bench, SMs: 8, Groups: []int{6, 7}}, 7); err != nil {
					t.Fatalf("attach: %v", err)
				}
			case 1:
				if err := g.BeginDetach(c, 0); err != nil {
					t.Fatalf("detach: %v", err)
				}
				detaching = 0
			}
			if detaching >= 0 && g.FinishDetach(c, detaching) {
				detaching = -1
			}
		}
		dvfsSchedule(pm, c, i)
	}
	want := pm.Report(g.Cycle(), 0).Total
	if want <= 0 {
		t.Fatal("metered total is zero")
	}
	if d := (sum - want) / want; d > 1e-9 || d < -1e-9 {
		t.Errorf("per-epoch power readings integrate to %g, metered total %g (rel err %g)", sum, want, d)
	}
	// The DVFS report must also account everything the base counters saw:
	// total residency across states equals wall cycles (checked via power
	// never reading zero while static energy accrues every cycle).
	if g.PowerReport().Total < want {
		t.Errorf("PowerReport %g below migration-free total %g", g.PowerReport().Total, want)
	}
}

func conservationSpec(t *testing.T) []AppSpec {
	return []AppSpec{
		{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{0, 1, 2}},
		{Bench: bench(t, "DXTC"), SMs: 32, Groups: []int{3, 4, 5}},
	}
}

func TestPowerEnergyConservationHealthy(t *testing.T) {
	conservationRun(t, powerOptions(), conservationSpec(t), false)
}

func TestPowerEnergyConservationFaulted(t *testing.T) {
	opt := powerOptions()
	opt.Faults = fault.Spec{SMs: 2, Groups: 1, MigNACK: 0.05}
	opt.FaultSeed = 7
	conservationRun(t, opt, conservationSpec(t), false)
}

func TestPowerEnergyConservationChurn(t *testing.T) {
	conservationRun(t, powerOptions(), conservationSpec(t), true)
}

// dvfsOutputs runs the standard two-app mix with an active DVFS schedule and
// captures every observable, including the byte-exact trace stream.
func dvfsOutputs(t *testing.T, opt Options) ffOutputs {
	t.Helper()
	cfg := testConfig()
	tr := trace.New(1 << 14)
	opt.Trace = tr
	opt.Power = &power.Config{}
	g, err := New(cfg, []AppSpec{
		{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	pm := g.PowerManager()
	var out ffOutputs
	for i := 0; g.Cycle() < uint64(cfg.MaxCycles); i++ {
		if err := g.RunChecked(uint64(cfg.EpochCycles)); err != nil {
			t.Fatalf("RunChecked: %v", err)
		}
		out.Epochs = append(out.Epochs, g.EndEpoch()...)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants at cycle %d: %v", g.Cycle(), err)
		}
		pm.Sample(g.Cycle())
		dvfsSchedule(pm, g.Cycle(), i)
	}
	out.Totals = g.Totals()
	out.Active = g.SMActiveCycles()
	out.DataMig, out.SMMig = g.ReallocationOverhead()
	out.Cycle = g.Cycle()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.Trace = buf.String()
	if g.PowerReport().Transitions == 0 {
		t.Fatal("DVFS schedule produced no transitions; the differential is vacuous")
	}
	return out
}

// TestFastForwardEquivalenceDVFS: with domains actively throttled (gated SM
// issue, stretched HBM bursts, transition windows), the fast-forward engine
// must still be a pure elision — all observables byte-identical, including
// the KPower event stream.
func TestFastForwardEquivalenceDVFS(t *testing.T) {
	on := dvfsOutputs(t, testOptions())
	off := testOptions()
	off.NoFastForward = true
	diffOutputs(t, on, dvfsOutputs(t, off))
}

// TestPowerReportMatchesSerialReplay: the DVFS energy report itself is
// deterministic across fast-forward modes (covered by the trace identity
// above only for events, not the meter), so compare the breakdowns directly.
func TestPowerBreakdownFastForwardIdentity(t *testing.T) {
	run := func(noFF bool) power.Breakdown {
		cfg := testConfig()
		opt := testOptions()
		opt.NoFastForward = noFF
		opt.Power = &power.Config{}
		g, err := New(cfg, []AppSpec{
			{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{0, 1, 2, 3}},
			{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		pm := g.PowerManager()
		for i := 0; g.Cycle() < uint64(cfg.MaxCycles); i++ {
			if err := g.RunChecked(uint64(cfg.EpochCycles)); err != nil {
				t.Fatal(err)
			}
			g.EndEpoch()
			pm.Sample(g.Cycle())
			dvfsSchedule(pm, g.Cycle(), i)
		}
		return g.PowerReport()
	}
	on, off := run(false), run(true)
	if on != off {
		t.Errorf("power breakdown diverges across fast-forward modes:\n  ff on:  %+v\n  ff off: %+v", on, off)
	}
}
