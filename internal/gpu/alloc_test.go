package gpu

// Steady-state allocation assertions. The simulation hot path is
// allocation-free, and the observability layer must not regress that, in
// either state:
//
//   - disabled (nil tracer): the emit sites cost one nil-check each and the
//     hot path stays at exactly zero allocations per cycle;
//   - enabled: the preallocated ring and fixed counter arrays absorb every
//     event, so even a traced steady-state run allocates nothing.
//
// These run as tests (not benchmarks) so `make check` enforces them.

import (
	"testing"

	"ugpu/internal/trace"
)

// steadyAllocs measures allocations per 10-cycle steady-state step after a
// 20k-cycle warm-up (caches, pools, TLBs, freelists primed).
func steadyAllocs(t *testing.T, tr *trace.Tracer) float64 {
	t.Helper()
	g := pairGPU(t, tr)
	g.Run(20_000)
	return testing.AllocsPerRun(200, func() { g.Run(10) })
}

func TestSteadyStateZeroAllocTracerDisabled(t *testing.T) {
	if got := steadyAllocs(t, nil); got != 0 {
		t.Errorf("disabled tracer: %.1f allocs per steady-state step, want 0", got)
	}
}

func TestSteadyStateZeroAllocTracerEnabled(t *testing.T) {
	tr := trace.New(1 << 12) // small ring: wrap-around must not allocate either
	if got := steadyAllocs(t, tr); got != 0 {
		t.Errorf("enabled tracer: %.1f allocs per steady-state step, want 0", got)
	}
	if tr.Len() == 0 && tr.Overwritten() == 0 {
		t.Error("enabled tracer recorded nothing over a 20k-cycle run")
	}
}

// TestEpochBoundaryZeroAlloc extends the steady-state assertion across epoch
// boundaries: EndEpoch reuses its deltas/stats buffers, so a run step plus
// an epoch snapshot must stay allocation-free too.
//
// The interleaved run span is kept short on purpose. Even after warm-up the
// tick path still allocates roughly twice per hundred cycles as freelists and
// per-bank queues hit new high-water marks (a pre-existing, slowly decaying
// amortized cost the steady-state tests above absorb the same way). With a
// 5-cycle span those background allocations stay far below one per run, so
// AllocsPerRun's integer division floors them to zero, while a real EndEpoch
// regression — re-allocating its deltas or stats slice — costs at least one
// allocation per call and reads as >= 1.0.
func TestEpochBoundaryZeroAlloc(t *testing.T) {
	g := pairGPU(t, nil)
	g.Run(20_000)
	g.EndEpoch() // size the reused buffers
	if got := testing.AllocsPerRun(100, func() {
		g.Run(5)
		if stats := g.EndEpoch(); len(stats) != 2 {
			t.Fatalf("EndEpoch returned %d app entries, want 2", len(stats))
		}
	}); got != 0 {
		t.Errorf("epoch boundary: %.1f allocs per run+EndEpoch step, want 0", got)
	}
}

// TestCheckInvariantsZeroAlloc pins the epoch-boundary audit as
// allocation-free on a populated two-tenant GPU: the VM audit walks dense
// tables with stamps instead of building sets, the SM-ownership pass
// reuses a scratch slice, and the parked-LLC-request pass (run here on a
// slice holding a legal parked queue) only reads.
func TestCheckInvariantsZeroAlloc(t *testing.T) {
	g := pairGPU(t, nil)
	g.Run(20_000)
	if g.VM().PageCount(0) == 0 || g.VM().PageCount(1) == 0 {
		t.Fatal("tenants hold no pages")
	}
	fillSliceMSHR(g, 0)
	parkLine(g, 0, 5)
	if got := testing.AllocsPerRun(100, func() {
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("CheckInvariants: %.1f allocs per call, want 0", got)
	}
}
