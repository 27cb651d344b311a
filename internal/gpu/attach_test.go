package gpu

import (
	"reflect"
	"testing"

	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// runToQuiescence drains a detach: run in epoch-sized slices until
// FinishDetach reports the slot vacant (bounded so a leak fails the test
// instead of hanging it).
func runToQuiescence(t *testing.T, g *GPU, id int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if g.FinishDetach(g.Cycle(), id) {
			return
		}
		g.Run(5_000)
	}
	t.Fatalf("app %d never quiesced: memInFlight=%d snapshot=%s",
		id, g.MemInFlight(id), g.TakeSnapshot())
}

func TestAttachDetachLifecycle(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	g.Run(20_000)
	g.EndEpoch()

	allocatedBefore := g.VM().Stats().Allocated

	// Detach app 0 (PVC) mid-run.
	if err := g.BeginDetach(g.Cycle(), 0); err != nil {
		t.Fatal(err)
	}
	if len(g.Apps()[0].SMs) != 0 {
		t.Fatalf("detaching app still owns %d SMs", len(g.Apps()[0].SMs))
	}
	runToQuiescence(t, g, 0)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after detach: %v", err)
	}
	if n := g.VM().PageCount(0); n != 0 {
		t.Fatalf("departed tenant still holds %d pages", n)
	}
	if free := g.FreeSMs(); len(free) != 40 {
		t.Fatalf("%d free SMs after detach, want 40", len(free))
	}

	// The survivor keeps running and can absorb the freed capacity.
	if granted := g.GrantSMs(g.Cycle(), 1, 20); granted != 20 {
		t.Fatalf("granted %d SMs to survivor, want 20", granted)
	}
	g.Run(10_000)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after grant: %v", err)
	}

	// Attach a new tenant into the vacant slot.
	pvc, err := workload.ByAbbr("PVC")
	if err != nil {
		t.Fatal(err)
	}
	id, err := g.AttachApp(g.Cycle(), AppSpec{Bench: pvc, SMs: 20, Groups: []int{0, 1, 2, 3}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("attach reused slot %d, want 0", id)
	}
	g.Run(20_000)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after attach: %v", err)
	}
	st := g.EndEpoch()
	if st[0].Instructions == 0 {
		t.Fatal("reattached tenant executed no instructions")
	}
	if st[0].DRAMLines == 0 {
		t.Fatal("reattached tenant reads no DRAM (baseline not reset?)")
	}
	// Frame accounting: detach freed everything, attach remapped a same-size
	// footprint, so net allocation is unchanged.
	if got := g.VM().Stats().Allocated; got != allocatedBefore {
		t.Fatalf("allocated frames = %d after detach+attach, want %d", got, allocatedBefore)
	}
}

func TestAttachFromEmptyGPU(t *testing.T) {
	g, err := New(testConfig(), nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.FreeSMs()); got != testConfig().NumSMs {
		t.Fatalf("empty GPU has %d free SMs, want %d", got, testConfig().NumSMs)
	}
	dxtc := bench(t, "DXTC")
	id, err := g.AttachApp(0, AppSpec{Bench: dxtc, SMs: 40, Groups: []int{0, 1, 2, 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := g.EndEpoch(); st[id].Instructions == 0 {
		t.Fatal("attached tenant executed no instructions")
	}
	// Second tenant lands in a fresh slot.
	id2, err := g.AttachApp(g.Cycle(), AppSpec{Bench: dxtc, SMs: 20, Groups: []int{4, 5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 1 {
		t.Fatalf("second attach got slot %d, want 1", id2)
	}
	g.Run(10_000)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachValidation(t *testing.T) {
	g := evenSplit(t, "PVC", "DXTC")
	pvc := bench(t, "PVC")
	if _, err := g.AttachApp(0, AppSpec{Bench: pvc, SMs: 0, Groups: []int{0}}, 0); err == nil {
		t.Error("attach accepted zero SMs")
	}
	if _, err := g.AttachApp(0, AppSpec{Bench: pvc, SMs: 1}, 0); err == nil {
		t.Error("attach accepted empty group set")
	}
	if _, err := g.AttachApp(0, AppSpec{Bench: pvc, SMs: 1, Groups: []int{99}}, 0); err == nil {
		t.Error("attach accepted invalid group")
	}
	// evenSplit owns all 80 SMs: no free capacity.
	if _, err := g.AttachApp(0, AppSpec{Bench: pvc, SMs: 1, Groups: []int{0}}, 0); err == nil {
		t.Error("attach accepted with no free SMs")
	}
	if err := g.BeginDetach(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.BeginDetach(0, 0); err == nil {
		t.Error("double BeginDetach accepted")
	}
}

// TestDetachDeterminism: a detach+reattach sequence is byte-identical across
// runs (frame recycling order, seeding, and quiescence are deterministic).
func TestDetachDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int) {
		g := evenSplit(t, "PVC", "DXTC")
		g.Run(20_000)
		g.EndEpoch()
		if err := g.BeginDetach(g.Cycle(), 0); err != nil {
			t.Fatal(err)
		}
		runToQuiescence(t, g, 0)
		pvc := bench(t, "PVC")
		if _, err := g.AttachApp(g.Cycle(), AppSpec{Bench: pvc, SMs: 20, Groups: []int{0, 1}}, 3); err != nil {
			t.Fatal(err)
		}
		g.Run(20_000)
		st := g.EndEpoch()
		return st[0].Instructions, st[0].DRAMLines, int(g.Cycle())
	}
	i1, d1, c1 := run()
	i2, d2, c2 := run()
	if i1 != i2 || d1 != d2 || c1 != c2 {
		t.Fatalf("detach+reattach not deterministic: (%d,%d,%d) vs (%d,%d,%d)", i1, d1, c1, i2, d2, c2)
	}
}

// TestLaunchMatchesAttach: a GPU built with its tenants is the same machine
// as an empty GPU that attaches each spec at cycle 0 with the slot id as
// seed tag. Both must agree on the state digest at every epoch boundary,
// and their traces must agree once the attach events are dropped (only a
// live attach records one).
func TestLaunchMatchesAttach(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		name  string
		specs []AppSpec
	}{
		{"disjoint", []AppSpec{
			{Bench: bench(t, "PVC"), SMs: 30, Groups: []int{0, 1, 2}},
			{Bench: bench(t, "DXTC"), SMs: 40, Groups: []int{3, 4, 5, 6, 7}},
		}},
		{"mps-shared", []AppSpec{
			{Bench: bench(t, "LBM"), SMs: 40, Groups: all},
			{Bench: bench(t, "DXTC"), SMs: 40, Groups: all},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(launch bool) (*GPU, *trace.Tracer) {
				opt := testOptions()
				opt.Trace = trace.New(1 << 16)
				specs := tc.specs
				if !launch {
					specs = nil
				}
				g, err := New(testConfig(), specs, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !launch {
					for i, s := range tc.specs {
						if id, err := g.AttachApp(0, s, uint64(i)); err != nil || id != i {
							t.Fatalf("AttachApp(%d) = %d, %v", i, id, err)
						}
					}
				}
				return g, opt.Trace
			}
			a, atr := build(true)
			b, btr := build(false)
			for epoch := 0; epoch <= 4; epoch++ {
				if da, db := a.StateDigest(), b.StateDigest(); da != db {
					t.Fatalf("epoch %d: launched digest %x, attached %x", epoch, da, db)
				}
				a.Run(10_000)
				b.Run(10_000)
				a.EndEpoch()
				b.EndEpoch()
			}
			if atr.Overwritten() != 0 || btr.Overwritten() != 0 {
				t.Fatal("trace ring wrapped")
			}
			dropAttach := func(evs []trace.Event) []trace.Event {
				var out []trace.Event
				for _, e := range evs {
					if e.Kind != trace.KAttach {
						out = append(out, e)
					}
				}
				return out
			}
			all := btr.Events()
			ea, eb := atr.Events(), dropAttach(all)
			if len(ea) == 0 {
				t.Fatal("launched trace is empty")
			}
			if n := len(all) - len(eb); n != len(tc.specs) {
				t.Fatalf("attached trace holds %d attach events, want %d", n, len(tc.specs))
			}
			if !reflect.DeepEqual(ea, eb) {
				t.Fatalf("traces differ: launched %d events, attached %d without attach events", len(ea), len(eb))
			}
		})
	}
}
