package gpu

import (
	"errors"
	"strings"
	"testing"

	"ugpu/internal/dram"
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

// spillTo queues a request for pa on its slice's spill queue, keeping the
// channel mark and toDramTotal in step, and returns the slice.
func spillTo(g *GPU, pa uint64) int {
	slice := g.sliceOf(pa)
	sl := g.slices[slice]
	sl.toDram = append(sl.toDram, &dram.Request{Addr: pa, Loc: g.mapper.Decode(pa)})
	g.toDramTotal++
	ch := slice / g.slicesPerCh
	g.spilled[ch/64] |= 1 << (ch % 64)
	return slice
}

// TestCheckInvariantsSpill breaks each condition of the spill invariant in
// turn and checks the error names it.
func TestCheckInvariantsSpill(t *testing.T) {
	expect := func(g *GPU, want string) {
		t.Helper()
		var inv *InvariantError
		err := g.CheckInvariants()
		if !errors.As(err, &inv) || inv.Name != "llc-spill" || !strings.Contains(inv.Detail, want) {
			t.Errorf("CheckInvariants = %v, want llc-spill naming %q", err, want)
		}
	}
	g := evenSplit(t, "SRAD", "DXTC")
	spillTo(g, 0x1000)
	spillTo(g, 0x1000+128)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("legal spill state: %v", err)
	}

	// The channel mark cleared while a request waits.
	c := g.sliceOf(0x1000) / g.slicesPerCh
	g.spilled[c/64] &^= 1 << (c % 64)
	expect(g, "mark")

	// toDramTotal out of step with the slices' queues.
	g = evenSplit(t, "SRAD", "DXTC")
	spillTo(g, 0x1000)
	g.toDramTotal++
	expect(g, "toDramTotal")

	// A request on a slice of another channel (marks moved along).
	g = evenSplit(t, "SRAD", "DXTC")
	slice := spillTo(g, 0x1000)
	other := (slice + g.slicesPerCh) % len(g.slices)
	g.slices[other].toDram, g.slices[slice].toDram = g.slices[slice].toDram, nil
	ch, och := slice/g.slicesPerCh, other/g.slicesPerCh
	g.spilled[ch/64] &^= 1 << (ch % 64)
	g.spilled[och/64] |= 1 << (och % 64)
	expect(g, "not its own")
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

// TestSpillInvariantUnderPressure runs two memory-bound apps, whose LLC
// misses often find their HBM channel queue full, and audits the machine
// every few cycles: whenever requests are spilled, the spill invariant
// holds, so retrySlices' per-channel marks are exact.
func TestSpillInvariantUnderPressure(t *testing.T) {
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "PVC"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "LBM"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	sawSpilled := 0
	for i := 0; i < 300; i++ {
		g.Run(37)
		if g.toDramTotal > 0 {
			sawSpilled++
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", g.cycle, err)
		}
	}
	t.Logf("%d of 300 audits saw spilled requests", sawSpilled)
	if sawSpilled == 0 {
		t.Fatal("no request ever spilled; the test exercises nothing")
	}
}
