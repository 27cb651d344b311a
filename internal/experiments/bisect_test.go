package experiments

import (
	"strings"
	"testing"

	"ugpu/internal/gpu"
)

// bisectOpts returns options sized for the bisector tests: 5 epochs so a
// mid-run perturbation has clean epochs on both sides.
func bisectOpts() Options {
	o := Default()
	o.Cfg.MaxCycles = 100_000
	o.Cfg.EpochCycles = 20_000
	o.Mixes = 1
	o.FootprintScale = 64
	return o
}

func TestParseBisectSpec(t *testing.T) {
	a, b, err := ParseBisectSpec("ff+trace, noff")
	if err != nil {
		t.Fatalf("ParseBisectSpec: %v", err)
	}
	if a.NoFastForward || !a.Trace {
		t.Errorf("arm A = %+v, want ff+trace", a)
	}
	if !b.NoFastForward || b.Trace {
		t.Errorf("arm B = %+v, want noff", b)
	}
	for _, bad := range []string{"", "ff", "ff,noff,trace", "ff,bogus", ",noff"} {
		if _, _, err := ParseBisectSpec(bad); err == nil {
			t.Errorf("ParseBisectSpec(%q) accepted", bad)
		}
	}
}

// TestBisectModesAgree: fast-forward on vs off (and tracing on vs off) are
// required to be state-identical, so the bisector must report agreement.
func TestBisectModesAgree(t *testing.T) {
	o := bisectOpts()
	a := BisectArm{Name: "ff+notrace"}
	b := BisectArm{Name: "noff+trace", NoFastForward: true, Trace: true}
	res, err := o.Bisect(a, b)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !res.Agree {
		t.Fatalf("modes diverged: %s", res)
	}
	if res.Epochs != 5 {
		t.Errorf("compared %d epochs, want 5", res.Epochs)
	}
}

// TestBisectPinpointsInjectedDivergence is the harness acceptance test
// (ISSUE 9): an intentionally injected single-component divergence — the
// perturbation hook bumps one L2-TLB counter right after epoch 2 completes —
// must be pinpointed to exactly that epoch and that component.
func TestBisectPinpointsInjectedDivergence(t *testing.T) {
	o := bisectOpts()
	a := BisectArm{Name: "clean"}
	b := BisectArm{Name: "perturbed", Perturb: (*gpu.GPU).PerturbStateForTest, PerturbEpoch: 2}
	res, err := o.Bisect(a, b)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if res.Agree {
		t.Fatal("bisector missed the injected divergence")
	}
	if res.Epoch != 2 {
		t.Errorf("divergent epoch = %d, want 2", res.Epoch)
	}
	if res.Component != "l2tlb" {
		t.Errorf("divergent component = %q, want \"l2tlb\"", res.Component)
	}
	if !res.Boundary {
		t.Error("perturbation fires in boundary processing; Boundary = false")
	}
	// Epoch boundaries drift past exact 20K multiples (the policy's modeled
	// algorithm latency extends epochs), so assert consistency, not a
	// hard-coded cycle: a boundary divergence is found at the chain entry's
	// own cycle, which lies at or beyond the nominal epoch end.
	if res.Cycle != res.EpochCycle || res.EpochCycle < 3*20_000 {
		t.Errorf("EpochCycle/Cycle = %d/%d, want equal values >= 60000 (epoch 2's boundary)", res.EpochCycle, res.Cycle)
	}
	if !strings.Contains(res.String(), "l2tlb") {
		t.Errorf("summary %q does not name the component", res)
	}
}

// TestBisectPinpointsMidEpochDivergence drives the stride+refine path: both
// arms schedule a wheel event 7777 cycles into epoch 3 (scheduled callbacks
// digest as presence bits, so the arms stay digest-identical until it fires),
// but only arm B's event mutates state. The bisector must localize the
// divergence to epoch 3, component "l2tlb", at the exact firing cycle.
func TestBisectPinpointsMidEpochDivergence(t *testing.T) {
	const delta = 7_777
	o := bisectOpts()
	a := BisectArm{Name: "noop-event",
		Perturb: func(g *gpu.GPU) { g.SchedulePerturbForTest(delta, false) }, PerturbEpoch: 2}
	b := BisectArm{Name: "mutating-event",
		Perturb: func(g *gpu.GPU) { g.SchedulePerturbForTest(delta, true) }, PerturbEpoch: 2}
	res, err := o.Bisect(a, b)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if res.Agree {
		t.Fatal("bisector missed the injected divergence")
	}
	if res.Epoch != 3 {
		t.Errorf("divergent epoch = %d, want 3", res.Epoch)
	}
	if res.Component != "l2tlb" {
		t.Errorf("divergent component = %q, want \"l2tlb\"", res.Component)
	}
	if res.Boundary {
		t.Error("mid-epoch divergence reported as boundary")
	}
	// The event fires delta cycles after epoch 2's boundary, which sits just
	// past 60K (algorithm-latency drift): the refined cycle must land inside
	// epoch 3, delta-ish cycles in, and strictly before its end boundary.
	if res.Cycle <= 3*20_000 || res.Cycle >= res.EpochCycle {
		t.Errorf("divergent cycle = %d, want inside epoch 3 (boundary %d)", res.Cycle, res.EpochCycle)
	}
}

// TestBisectHonoursFaultSpec: -bisect with -faults bisects the faulted
// machine, as FaultSweep's custom arm runs it. The arms inject the spec,
// fast-forward on vs off still agree on the faulted run, and a perturbation
// on top of the faults is still localized.
func TestBisectHonoursFaultSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("five faulted runs")
	}
	o := bisectOpts()
	o.FaultSpec, o.FaultSeed = "sm=2,group=1,mig=0.05", 7
	r, err := o.bisectRunner(BisectArm{Name: "ff"}, o.Cfg, o.heteroMixes()[0])
	if err != nil {
		t.Fatalf("bisectRunner: %v", err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if out.Faults.SMFails != 2 || out.Faults.GroupFails != 1 {
		t.Fatalf("bisect arm failed %d SMs and %d groups, want 2 and 1", out.Faults.SMFails, out.Faults.GroupFails)
	}

	res, err := o.Bisect(BisectArm{Name: "ff"}, BisectArm{Name: "noff", NoFastForward: true})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !res.Agree {
		t.Errorf("faulted ff vs noff diverged: %s", res)
	}

	res, err = o.Bisect(BisectArm{Name: "clean"},
		BisectArm{Name: "perturbed", Perturb: (*gpu.GPU).PerturbStateForTest, PerturbEpoch: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if res.Agree || res.Epoch != 2 || res.Component != "l2tlb" {
		t.Errorf("faulted perturbation localized as %s, want epoch 2, component l2tlb", res)
	}

	o.FaultSpec = "sm=banana"
	if _, err := o.Bisect(BisectArm{Name: "ff"}, BisectArm{Name: "noff", NoFastForward: true}); err == nil {
		t.Error("Bisect accepted a malformed fault spec")
	}
}
