package power

import (
	"testing"

	"ugpu/internal/trace"
)

// govFixture builds a manager with scripted counters and a capturing tracer.
// busy drives the SMActive hook: each domain reports busy active cycles per
// sampled cycle (so power is controllable from the test).
type govFixture struct {
	m      *Manager
	tr     *trace.Tracer
	busy   float64 // active SM-cycles per wall cycle per domain
	cycles uint64
}

func newGovFixture(t *testing.T, cfg Config) *govFixture {
	t.Helper()
	f := &govFixture{tr: trace.New(1 << 16)}
	m, err := NewManager(16, 8, cfg, f.tr)
	if err != nil {
		t.Fatal(err)
	}
	m.SetHooks(Hooks{
		SMActive: func(dom int) uint64 { return uint64(float64(f.cycles) * f.busy) },
		Channel:  func(ch int) (uint64, uint64) { return 0, 0 },
	})
	f.m = m
	return f
}

// step advances one epoch and runs the governor.
func (f *govFixture) step(g *Governor, epoch uint64, slices []Slice) {
	f.cycles += epoch
	g.Step(f.cycles, slices)
}

// clampEvents counts KPower clamp-enter/exit events in the captured trace.
func (f *govFixture) clampEvents() (enter, exit int) {
	for _, e := range f.tr.Events() {
		if e.Kind != trace.KPower {
			continue
		}
		switch EventKind(e.A0) {
		case EventClampEnter:
			enter++
		case EventClampExit:
			exit++
		}
	}
	return
}

// TestGovernorZeroTenantsParksFloor: an empty slice list (zero-tenant GPU)
// parks every domain at its lowest operating point, and attaching a tenant
// later restores its domains to nominal.
func TestGovernorZeroTenantsParksFloor(t *testing.T) {
	f := newGovFixture(t, Config{})
	g := NewGovernor(f.m, 4, 0)
	f.step(g, 5000, nil)
	floorSM := len(f.m.SMStates()) - 1
	floorCh := len(f.m.HBMStates()) - 1
	for d := 0; d < f.m.NumSMDomains(); d++ {
		if got := f.m.SMState(d); got != floorSM {
			t.Errorf("zero tenants: SM domain %d state %d, want floor %d", d, got, floorSM)
		}
	}
	for c := 0; c < f.m.NumChannels(); c++ {
		if got := f.m.ChannelState(c); got != floorCh {
			t.Errorf("zero tenants: channel %d state %d, want floor %d", c, got, floorCh)
		}
	}
	// Steady state: a second empty step changes nothing.
	before := f.m.Transitions()
	f.step(g, 5000, nil)
	if f.m.Transitions() != before {
		t.Errorf("empty steady state still transitioning: %d -> %d", before, f.m.Transitions())
	}
	// A tenant attaches on domain 0 / channels 0-1: its domains come back to
	// nominal, the rest stay parked.
	s := Slice{Slot: 0, Gen: 1, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0, 1}}
	f.step(g, 5000, []Slice{s})
	if got := f.m.SMState(0); got != 0 {
		t.Errorf("attached tenant's SM domain at state %d, want nominal", got)
	}
	if got := f.m.SMState(1); got != floorSM {
		t.Errorf("unowned SM domain left the floor: state %d", got)
	}
}

// TestGovernorSingleStateNoOp: single-entry operating-point tables (the
// baseline arm's config) freeze every domain at nominal — zero transitions no
// matter what the slices look like.
func TestGovernorSingleStateNoOp(t *testing.T) {
	f := newGovFixture(t, Config{
		SMStates:  DefaultSMStates()[:1],
		HBMStates: DefaultHBMStates()[:1],
	})
	f.busy = 4
	g := NewGovernor(f.m, 4, 1) // absurdly tight cap
	slices := []Slice{
		{Slot: 0, Gen: 1, MemDegree: 3.0, SMDomains: []int{0, 1}, Channels: []int{0}},
		{Slot: 1, Gen: 2, LC: true, MemDegree: 0.1, SMDomains: []int{2}, Channels: []int{1}},
	}
	for i := 0; i < 10; i++ {
		f.step(g, 5000, slices)
	}
	f.step(g, 5000, nil) // even parking has nowhere to go
	if f.m.Transitions() != 0 {
		t.Errorf("single-state tables produced %d transitions, want 0", f.m.Transitions())
	}
	// The cap controller saturates its (zero-travel) depth and clamps once.
	if g.maxDepth() != 0 {
		t.Fatalf("maxDepth = %d, want 0 for single-state tables", g.maxDepth())
	}
	if !g.Clamped() {
		t.Error("unsatisfiable cap with no travel did not clamp")
	}
}

// TestGovernorMemoryBoundDownclocksSMs: a persistently memory-bound BE slice
// has its SM domains stepped down after the classification streak, while its
// channels (demand above chanLow) stay nominal; a compute-bound slice is the
// mirror image.
func TestGovernorClassificationSteps(t *testing.T) {
	f := newGovFixture(t, Config{})
	g := NewGovernor(f.m, 4, 0)
	memBound := Slice{Slot: 0, Gen: 1, MemDegree: 2.0, SMDomains: []int{0}, Channels: []int{0}}
	compute := Slice{Slot: 1, Gen: 2, MemDegree: 0.2, SMDomains: []int{1}, Channels: []int{1}}
	for i := 0; i < 8; i++ {
		f.step(g, 5000, []Slice{memBound, compute})
	}
	if got := f.m.SMState(0); got == 0 {
		t.Error("memory-bound slice's SM domain still at nominal after 8 epochs")
	}
	if got := f.m.ChannelState(0); got != 0 {
		t.Errorf("memory-bound slice's channel throttled to %d, want nominal", got)
	}
	if got := f.m.SMState(1); got != 0 {
		t.Errorf("compute-bound slice's SM domain throttled to %d, want nominal", got)
	}
	if got := f.m.ChannelState(1); got == 0 {
		t.Error("compute-bound slice's channel still at nominal after 8 epochs")
	}
	// Degrees normalize to 0.8 — below memLow (SMs recover) and above
	// chanHigh (channels recover): both slices return to nominal.
	memBound.MemDegree, compute.MemDegree = 0.8, 0.8
	for i := 0; i < 8; i++ {
		f.step(g, 5000, []Slice{memBound, compute})
	}
	if got := f.m.SMState(0); got != 0 {
		t.Errorf("recovered slice's SM domain stuck at %d", got)
	}
	if got := f.m.ChannelState(1); got != 0 {
		t.Errorf("recovered slice's channel stuck at %d", got)
	}
}

// TestGovernorCapShavesBEBeforeLC: an all-slices-resident GPU under a tight
// cap throttles best-effort slices to the floor before latency-critical ones
// move at all; an all-LC population under the same cap does get shaved (LC is
// protected from the efficiency pass, not from the budget).
func TestGovernorCapShavesBEBeforeLC(t *testing.T) {
	f := newGovFixture(t, Config{})
	f.busy = 4 // every domain fully busy: high measured power
	be := Slice{Slot: 0, Gen: 1, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0}}
	lc := Slice{Slot: 1, Gen: 2, LC: true, MemDegree: 1.0, SMDomains: []int{1}, Channels: []int{1}}
	g := NewGovernor(f.m, 4, 50) // far below measured
	maxSM := len(f.m.SMStates()) - 1
	maxCh := len(f.m.HBMStates()) - 1
	// Walk the cap depth until the BE slice is at both floors.
	for i := 0; i < maxSM+maxCh; i++ {
		f.step(g, 5000, []Slice{be, lc})
		if f.m.SMState(1) != 0 || f.m.ChannelState(1) != 0 {
			t.Fatalf("epoch %d: LC shaved (sm=%d ch=%d) before BE at floor (sm=%d ch=%d)",
				i, f.m.SMState(1), f.m.ChannelState(1), f.m.SMState(0), f.m.ChannelState(0))
		}
	}
	if f.m.SMState(0) != maxSM || f.m.ChannelState(0) != maxCh {
		t.Fatalf("BE slice not at floor after %d epochs: sm=%d ch=%d",
			maxSM+maxCh, f.m.SMState(0), f.m.ChannelState(0))
	}
	// Further depth now reaches the LC slice.
	for i := 0; i < maxSM+maxCh; i++ {
		f.step(g, 5000, []Slice{be, lc})
	}
	if f.m.SMState(1) == 0 && f.m.ChannelState(1) == 0 {
		t.Error("LC slice untouched with BE at floor and power still over budget")
	}

	// All-LC overload under the same tight cap: LC throttles via the cap path
	// even though the efficiency pass never touches LC.
	f2 := newGovFixture(t, Config{})
	f2.busy = 4
	g2 := NewGovernor(f2.m, 4, 50)
	lcs := []Slice{
		{Slot: 0, Gen: 1, LC: true, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0}},
		{Slot: 1, Gen: 2, LC: true, MemDegree: 1.0, SMDomains: []int{1}, Channels: []int{1}},
	}
	for i := 0; i < 2*(maxSM+maxCh)+2; i++ {
		f2.step(g2, 5000, lcs)
	}
	if f2.m.SMState(0) == 0 {
		t.Error("all-LC GPU under unsatisfiable cap never throttled")
	}
	if !g2.Clamped() {
		t.Error("all-LC GPU at the floor with power over budget not clamped")
	}
}

// TestGovernorClampSingleEvent: a cap below the static floor drives the
// controller to max depth, emits exactly one clamp-enter event, and holds
// there without oscillating; lifting the cap emits exactly one clamp-exit.
func TestGovernorClampSingleEvent(t *testing.T) {
	f := newGovFixture(t, Config{})
	f.busy = 1
	g := NewGovernor(f.m, 4, 0.001) // below static power
	s := Slice{Slot: 0, Gen: 1, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0}}
	for i := 0; i < 30; i++ {
		f.step(g, 5000, []Slice{s})
	}
	if !g.Clamped() {
		t.Fatal("cap below static power did not clamp")
	}
	if g.CapDepth() != g.maxDepth() {
		t.Errorf("CapDepth = %d, want maxDepth %d", g.CapDepth(), g.maxDepth())
	}
	enter, exit := f.clampEvents()
	if enter != 1 || exit != 0 {
		t.Errorf("clamp events over 30 over-budget epochs: enter=%d exit=%d, want 1/0", enter, exit)
	}
	depth := g.CapDepth()
	for i := 0; i < 5; i++ {
		f.step(g, 5000, []Slice{s})
		if g.CapDepth() != depth {
			t.Fatalf("clamped depth oscillated: %d -> %d", depth, g.CapDepth())
		}
	}
	// Lift the cap: exactly one exit, depth unwinds.
	g.SetCap(0)
	f.step(g, 5000, []Slice{s})
	enter, exit = f.clampEvents()
	if enter != 1 || exit != 1 {
		t.Errorf("after lifting cap: enter=%d exit=%d, want 1/1", enter, exit)
	}
	if g.CapDepth() != 0 {
		t.Errorf("uncapped CapDepth = %d, want 0", g.CapDepth())
	}
}

// TestGovernorGenerationResetsHysteresis: a new tenant in a recycled slot
// (changed Gen) starts with fresh hysteresis — the departed tenant's streaks
// and state do not leak.
func TestGovernorGenerationResetsHysteresis(t *testing.T) {
	f := newGovFixture(t, Config{})
	g := NewGovernor(f.m, 4, 0)
	memBound := Slice{Slot: 0, Gen: 1, MemDegree: 2.0, SMDomains: []int{0}, Channels: []int{0}}
	for i := 0; i < 8; i++ {
		f.step(g, 5000, []Slice{memBound})
	}
	if f.m.SMState(0) == 0 {
		t.Fatal("setup: memory-bound slice never throttled")
	}
	// New tenant, same slot, compute-bound: domain returns to nominal on the
	// next step (the slot's remembered smState must not survive the Gen flip).
	next := Slice{Slot: 0, Gen: 2, MemDegree: 0.2, SMDomains: []int{0}, Channels: []int{0}}
	f.step(g, 5000, []Slice{next})
	if got := f.m.SMState(0); got != 0 {
		t.Errorf("recycled slot inherited old tenant's SM throttle: state %d", got)
	}
}

// TestGovernorStateFloorApplied: a gray-degradation floor forces every
// domain down to at least the floor index on the next step, persists across
// later steps (the efficiency pass would otherwise restore compute-bound
// domains to nominal), and clears back to governed behavior.
func TestGovernorStateFloorApplied(t *testing.T) {
	f := newGovFixture(t, Config{})
	g := NewGovernor(f.m, 4, 0)
	// Compute-bound slice: without a floor the governor keeps SMs at nominal.
	s := Slice{Slot: 0, Gen: 1, MemDegree: 0.2, SMDomains: []int{0, 1}, Channels: []int{0}}
	f.step(g, 5000, []Slice{s})
	if got := f.m.SMState(0); got != 0 {
		t.Fatalf("setup: compute-bound SM domain at state %d, want nominal", got)
	}

	g.SetStateFloor(3, 1)
	if sm, ch := g.StateFloor(); sm != 3 || ch != 1 {
		t.Fatalf("StateFloor = (%d,%d), want (3,1)", sm, ch)
	}
	for i := 0; i < 4; i++ {
		f.step(g, 5000, []Slice{s})
		for d := 0; d < f.m.NumSMDomains(); d++ {
			if got := f.m.SMState(d); got < 3 {
				t.Fatalf("step %d: SM domain %d at state %d, want >= floor 3", i, d, got)
			}
		}
		for c := 0; c < f.m.NumChannels(); c++ {
			if got := f.m.ChannelState(c); got < 1 {
				t.Fatalf("step %d: channel %d at state %d, want >= floor 1", i, c, got)
			}
		}
	}

	// Clearing the floor lets the efficiency pass restore nominal.
	g.SetStateFloor(0, 0)
	for i := 0; i < 8; i++ {
		f.step(g, 5000, []Slice{s})
	}
	if got := f.m.SMState(0); got != 0 {
		t.Errorf("cleared floor: compute-bound SM domain stuck at state %d", got)
	}
}

// TestGovernorStateFloorClamped: a floor deeper than the ladder clamps to
// the deepest configured state instead of indexing out of range, and
// negative floors are treated as zero.
func TestGovernorStateFloorClamped(t *testing.T) {
	f := newGovFixture(t, Config{})
	g := NewGovernor(f.m, 4, 0)
	maxSM := len(f.m.SMStates()) - 1
	maxCh := len(f.m.HBMStates()) - 1
	s := Slice{Slot: 0, Gen: 1, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0}}

	g.SetStateFloor(99, 99)
	f.step(g, 5000, []Slice{s})
	if got := f.m.SMState(0); got != maxSM {
		t.Errorf("over-deep floor: SM state %d, want clamp to %d", got, maxSM)
	}
	if got := f.m.ChannelState(0); got != maxCh {
		t.Errorf("over-deep floor: channel state %d, want clamp to %d", got, maxCh)
	}

	g.SetStateFloor(-5, -5)
	if sm, ch := g.StateFloor(); sm != 0 || ch != 0 {
		t.Errorf("negative floor stored as (%d,%d), want (0,0)", sm, ch)
	}
}

// TestGovernorStateFloorComposesWithCap: with both a gray floor and a power
// cap active, domains sit at least as deep as the floor, and the cap
// controller keeps working on top of it (deeper is allowed, shallower not).
func TestGovernorStateFloorComposesWithCap(t *testing.T) {
	f := newGovFixture(t, Config{})
	f.busy = 4
	g := NewGovernor(f.m, 4, 50)
	g.SetStateFloor(2, 1)
	s := Slice{Slot: 0, Gen: 1, MemDegree: 1.0, SMDomains: []int{0}, Channels: []int{0}}
	for i := 0; i < 12; i++ {
		f.step(g, 5000, []Slice{s})
		if got := f.m.SMState(0); got < 2 {
			t.Fatalf("step %d: cap pass lifted SM above the gray floor: state %d", i, got)
		}
		if got := f.m.ChannelState(0); got < 1 {
			t.Fatalf("step %d: cap pass lifted channel above the gray floor: state %d", i, got)
		}
	}
	if g.CapDepth() == 0 {
		t.Error("unsatisfiable cap never built depth with a floor in force")
	}
}
