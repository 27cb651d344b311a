package power

import (
	"strings"
	"testing"
)

// TestGateOpenMatchesOpenCount pins the determinism contract's core identity:
// openCount is the closed form of gateOpen summed over any span, for every
// ratio in the default tables and a few adversarial ones. The fast-forward
// engine settles parked SMs with openCount while live SMs step gateOpen
// cycle by cycle; any divergence breaks FF-on/off byte-identity.
func TestGateOpenMatchesOpenCount(t *testing.T) {
	ratios := [][2]uint32{{1, 1}, {3, 4}, {1, 2}, {1, 4}, {2, 3}, {5, 7}, {1, 1000}}
	for _, r := range ratios {
		num, den := r[0], r[1]
		var sum uint64
		const span = 10_000
		for c := uint64(0); c < span; c++ {
			if gateOpen(c, num, den) {
				sum++
			}
		}
		if got := openCount(0, span, num, den); got != sum {
			t.Errorf("ratio %d/%d: openCount(0,%d)=%d, per-cycle sum=%d", num, den, span, got, sum)
		}
		// Arbitrary interior spans must agree too (FF spans never start at 0).
		for _, w := range [][2]uint64{{17, 17}, {17, 18}, {999, 4321}, {5000, span}} {
			var s uint64
			for c := w[0]; c < w[1]; c++ {
				if gateOpen(c, num, den) {
					s++
				}
			}
			if got := openCount(w[0], w[1], num, den); got != s {
				t.Errorf("ratio %d/%d span [%d,%d): openCount=%d, sum=%d", num, den, w[0], w[1], got, s)
			}
		}
		// The gate must deliver exactly num open cycles per den-cycle period.
		if got := openCount(0, uint64(den)*100, num, den); got != uint64(num)*100 {
			t.Errorf("ratio %d/%d: %d open cycles over 100 periods, want %d", num, den, got, uint64(num)*100)
		}
	}
}

// TestSMOpenMatchesSMOpenCycles drives a manager through state changes and
// checks the per-cycle and closed-form views stay equal, including across the
// transition window (gate closed before d.until).
func TestSMOpenMatchesSMOpenCycles(t *testing.T) {
	m, err := NewManager(8, 4, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle-major sweep, matching the simulator: every SM queries cycle c
	// before anyone queries c+1 (SMOpen may restore a domain's fast path at
	// the end of its transition window, so it must never see time go
	// backward).
	check := func(from, to uint64) {
		t.Helper()
		var sum [8]uint64
		for c := from; c < to; c++ {
			for sm := 0; sm < 8; sm++ {
				if m.SMOpen(sm, c) {
					sum[sm]++
				}
			}
		}
		for sm := 0; sm < 8; sm++ {
			if got := m.SMOpenCycles(sm, from, to); got != sum[sm] {
				t.Fatalf("SM %d span [%d,%d): SMOpenCycles=%d, per-cycle sum=%d (dom state %d)",
					sm, from, to, got, sum[sm], m.SMState(m.SMDomainOf(sm)))
			}
		}
	}
	check(0, 1000) // all nominal: everything open
	m.Sample(1000)
	m.SetSMState(1000, 0, 2) // domain 0 (SMs 0..3) to 1/2
	m.SetSMState(1000, 1, 3) // domain 1 (SMs 4..7) to 1/4
	check(1000, 1250)        // inside the DefaultTransitionCycles window: closed
	check(1000, 1500)        // exactly the window
	check(1250, 1800)        // straddles window end
	check(1500, 3000)        // settled throttled state
	m.Sample(3000)
	m.SetSMState(3000, 0, 0) // back to nominal: window, then fast path restores
	check(3000, 3700)
	check(3700, 5000)
	if !m.SMOpen(0, 5000) {
		t.Error("nominal SM gate closed after transition completed")
	}
	if m.Transitions() != 3 {
		t.Errorf("Transitions() = %d, want 3", m.Transitions())
	}
}

// TestSMOpenCyclesWindowClipping pins the until-window edge cases of the
// closed form directly.
func TestSMOpenCyclesWindowClipping(t *testing.T) {
	m, err := NewManager(4, 4, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSMState(0, 0, 1) // 3/4 from cycle 0, gate closed before DefaultTransitionCycles (500)
	if got := m.SMOpenCycles(0, 0, 500); got != 0 {
		t.Errorf("span inside transition window: %d open cycles, want 0", got)
	}
	if got := m.SMOpenCycles(0, 0, 900); got != openCount(500, 900, 3, 4) {
		t.Errorf("straddling span: %d, want %d", got, openCount(500, 900, 3, 4))
	}
	if got := m.SMOpenCycles(0, 700, 700); got != 0 {
		t.Errorf("empty span: %d, want 0", got)
	}
}

// TestValidStates exercises every rejection of the state-table validator.
func TestValidStates(t *testing.T) {
	cases := []struct {
		name string
		ss   []PState
		want string
	}{
		{"empty", []PState{}, "empty"},
		{"zero num", []PState{{Num: 0, Den: 1, Voltage: 1}}, "not in (0,1]"},
		{"overclock", []PState{{Num: 1, Den: 1, Voltage: 1}, {Num: 5, Den: 4, Voltage: 1.1}}, "not in (0,1]"},
		{"zero voltage", []PState{{Num: 1, Den: 1}}, "voltage"},
		{"state0 not nominal", []PState{{Num: 1, Den: 2, Voltage: 1}}, "nominal"},
	}
	for _, c := range cases {
		err := validStates("SM", c.ss)
		if err == nil {
			t.Errorf("%s: validStates accepted %v", c.name, c.ss)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := validStates("SM", DefaultSMStates()); err != nil {
		t.Errorf("default SM table rejected: %v", err)
	}
	if err := validStates("HBM", DefaultHBMStates()); err != nil {
		t.Errorf("default HBM table rejected: %v", err)
	}
	if _, err := NewManager(0, 4, Config{}, nil); err == nil {
		t.Error("NewManager accepted zero SMs")
	}
}

// TestMeterVoltageScaling checks the energy attribution arithmetic with
// scripted counters: residency and activity land in the state they were spent
// in, dynamic terms scale by V² and static terms by V.
func TestMeterVoltageScaling(t *testing.T) {
	var smActive, chAccess, chActs uint64
	// Transition windows gate issue but not attribution: the hooks below
	// script the counters directly.
	m, err := NewManager(4, 1, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetHooks(Hooks{
		SMActive: func(dom int) uint64 { return smActive },
		Channel:  func(ch int) (uint64, uint64) { return chAccess, chActs },
	})
	w := DefaultWeights()

	// Epoch 1 at nominal: 1000 cycles, 600 active SM-cycles, 50 accesses,
	// 10 activates.
	smActive, chAccess, chActs = 600, 50, 10
	m.Sample(1000)
	// Switch everything to the lowest state, run epoch 2 with the same
	// activity deltas.
	m.SetSMState(1000, 0, 3)      // V=0.70
	m.SetChannelState(1000, 0, 2) // V=0.80
	smActive, chAccess, chActs = 1200, 100, 20
	b := m.Report(2000, 5) // 5 migrated lines

	vSM := DefaultSMStates()[3].Voltage
	vCh := DefaultHBMStates()[2].Voltage
	idle1 := float64(1000*4 - 600)
	idle2 := float64(1000*4 - 600)
	wantCore := 600*w.SMActiveCycle + idle1*w.SMIdleCycle + // epoch 1 nominal
		600*w.SMActiveCycle*vSM*vSM + idle2*w.SMIdleCycle*vSM + // epoch 2 throttled
		2000*w.CoreStatic
	wantHBM := 10*w.DRAMActivate + 50*w.DRAMAccess + 1000*w.DRAMStatic +
		10*w.DRAMActivate*vCh*vCh + 50*w.DRAMAccess*vCh*vCh + 1000*w.DRAMStatic*vCh +
		5*w.DRAMMigration
	almost := func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if !almost(b.Core, wantCore) {
		t.Errorf("Core = %g, want %g", b.Core, wantCore)
	}
	if !almost(b.HBM, wantHBM) {
		t.Errorf("HBM = %g, want %g", b.HBM, wantHBM)
	}
	if !almost(b.Total, b.Core+b.HBM) {
		t.Errorf("Total = %g, want Core+HBM = %g", b.Total, b.Core+b.HBM)
	}
	if b.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2", b.Transitions)
	}
}

// TestEpochPowerWindow checks the governor's feedback signal: mean watts over
// the window since the previous call, stable when re-read at the same cycle.
func TestEpochPowerWindow(t *testing.T) {
	var smActive uint64
	m, err := NewManager(4, 1, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetHooks(Hooks{
		SMActive: func(dom int) uint64 { return smActive },
		Channel:  func(ch int) (uint64, uint64) { return 0, 0 },
	})
	smActive = 4000 // fully busy domain
	p1 := m.EpochPower(1000)
	if p1 <= 0 {
		t.Fatalf("EpochPower = %g, want > 0", p1)
	}
	if again := m.EpochPower(1000); again != p1 {
		t.Errorf("EpochPower re-read at same cycle = %g, want %g", again, p1)
	}
	if m.LastPower() != p1 {
		t.Errorf("LastPower = %g, want %g", m.LastPower(), p1)
	}
	// A fully idle second epoch must read lower than the busy first.
	p2 := m.EpochPower(2000)
	if p2 >= p1 {
		t.Errorf("idle epoch power %g not below busy epoch %g", p2, p1)
	}
	// Sanity: a fully busy 4-SM window costs (4·SMActive + CoreStatic +
	// one channel's DRAMStatic) per cycle, times DefaultWattsPerUnit.
	w := DefaultWeights()
	want := (4*w.SMActiveCycle + w.CoreStatic + w.DRAMStatic) * DefaultWattsPerUnit
	if d := p1 - want; d > 1e-6 || d < -1e-6 {
		t.Errorf("busy epoch power = %g, want %g", p1, want)
	}
}
