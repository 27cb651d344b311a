package gpu

import (
	"errors"
	"strings"
	"testing"
)

// fillSliceMSHR allocates fresh lines (far above any simulated address) in
// the slice's MSHR until it is full.
func fillSliceMSHR(g *GPU, slice int) {
	m := g.slices[slice].mshr
	for line := uint64(1) << 50; !m.Full(); line++ {
		m.Add(line, &memReq{slice: slice, pa: line << g.lineShift})
	}
}

// parkLine parks a request for line on the slice, keeping parkedTotal in
// step.
func parkLine(g *GPU, slice int, line uint64) {
	sl := g.slices[slice]
	sl.parked = append(sl.parked, &memReq{slice: slice, pa: line << g.lineShift})
	g.parkedTotal++
}

// TestCheckInvariantsParkedLLC breaks each condition of the parked-request
// invariant in turn and checks the error names it.
func TestCheckInvariantsParkedLLC(t *testing.T) {
	expect := func(g *GPU, want string) {
		t.Helper()
		var inv *InvariantError
		err := g.CheckInvariants()
		if !errors.As(err, &inv) || inv.Name != "llc-parked" || !strings.Contains(inv.Detail, want) {
			t.Errorf("CheckInvariants = %v, want llc-parked naming %q", err, want)
		}
	}
	const slice = 3

	// A legal parked state: full MSHR, head line not outstanding.
	g := evenSplit(t, "SRAD", "DXTC")
	fillSliceMSHR(g, slice)
	parkLine(g, slice, 5)
	parkLine(g, slice, 1<<50) // only the head must be non-outstanding
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("legal parked state: %v", err)
	}

	// Requests parked while the MSHR has a free entry.
	m := g.slices[slice].mshr
	m.Recycle(m.Remove(1 << 50))
	expect(g, "not full")

	// The parked head's line is already outstanding.
	g = evenSplit(t, "SRAD", "DXTC")
	fillSliceMSHR(g, slice)
	parkLine(g, slice, 1<<50)
	expect(g, "outstanding")

	// parkedTotal out of step with the slices' queues.
	g = evenSplit(t, "SRAD", "DXTC")
	fillSliceMSHR(g, slice)
	parkLine(g, slice, 5)
	g.parkedTotal++
	expect(g, "parkedTotal")
}

// TestParkedLLCInvariantUnderPressure shrinks the LLC MSHRs so requests
// park often, and audits the machine every few cycles: whenever anything is
// parked, the parked-request invariant holds, so a per-cycle retry could
// never have made progress.
func TestParkedLLCInvariantUnderPressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueEntries = 2
	g, err := New(cfg, []AppSpec{
		{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "PVC"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	sawParked := 0
	for i := 0; i < 300; i++ {
		g.Run(37)
		if g.parkedTotal > 0 {
			sawParked++
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", g.cycle, err)
		}
	}
	t.Logf("%d of 300 audits saw parked requests", sawParked)
	if sawParked == 0 {
		t.Fatal("no request ever parked; the test exercises nothing")
	}
}
