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
// The interleaved run span is kept short on purpose. After a 20k-cycle
// warm-up the tick path still allocates about three times per thousand
// cycles, as DRAM bank queues, replay queues and wheel buckets hit new
// high-water marks (a slowly decaying amortized cost, gone by 60k cycles,
// that the steady-state tests above absorb the same way). With a 5-cycle
// span those background allocations stay far below one per run, so
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

// TestReallocationZeroAlloc extends the contract across reallocation. After
// a warm-up that has moved SMs both ways and started page migrations
// (SetGroups), a span of steps that moves SMs again and commits page
// migrations allocates nothing: the SM handoff is a long-lived callback, a
// reassigned SM reuses the warps its last tenant left (orphans once their
// loads land), and a migration reuses its plan buffers, its slot, the HBM's
// job record, and typed wheel events instead of closures. The 100-step span
// leaves AllocsPerRun's integer floor no room for a per-SM or per-page
// allocation.
func TestReallocationZeroAlloc(t *testing.T) {
	g := pairGPU(t, nil)
	move := func(from, to, n int) {
		t.Helper()
		if err := g.MoveSMs(g.Cycle(), from, to, n); err != nil {
			t.Fatal(err)
		}
	}
	g.Run(20_000)
	move(0, 1, 4)
	g.Run(20_000)
	move(1, 0, 4)
	g.Run(20_000)
	// App 1 cedes group 4 to app 0, whose pages start moving onto it.
	if err := g.SetGroups(g.Cycle(), 1, []int{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetGroups(g.Cycle(), 0, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	sms := len(g.Apps()[1].SMs)
	migs := g.VM().Stats().Migrations
	step := 0
	if got := testing.AllocsPerRun(100, func() {
		if step++; step == 2 { // the first measured step
			move(0, 1, 4)
		}
		g.Run(100)
	}); got != 0 {
		t.Errorf("reallocation: %.1f allocs per step, want 0", got)
	}
	if n := len(g.Apps()[1].SMs) - sms; n != 4 {
		t.Errorf("%d of 4 moved SMs reached their new tenant in the span", n)
	}
	if g.VM().Stats().Migrations == migs {
		t.Error("no page migration committed in the span")
	}
}

// TestFreeSMsAllocatesOnce: on an idle 80-SM GPU FreeSMs lists every SM
// with one allocation, the result sized up front.
func TestFreeSMsAllocatesOnce(t *testing.T) {
	g, err := New(testConfig(), nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if got := testing.AllocsPerRun(100, func() { n = len(g.FreeSMs()) }); got != 1 {
		t.Errorf("FreeSMs: %.1f allocs per call, want 1", got)
	}
	if n != testConfig().NumSMs {
		t.Errorf("FreeSMs listed %d SMs, want %d", n, testConfig().NumSMs)
	}
}
