// Package power is the power-management subsystem (ISSUE 8): a deterministic
// DVFS model with discrete frequency/voltage states per SM frequency domain
// and per HBM channel, cycle-accounted transition latency, an energy meter
// that attributes the event-energy model's terms to the state they were spent
// in, and (in governor.go) a per-GPU governor plus power-cap controller.
//
// # Determinism contract
//
// Every quantity here is a pure function of the simulated cycle and the state
// decisions made at epoch boundaries — no wall-clock time, no randomness.
// The SM issue gate is a Bresenham accumulator evaluated on the absolute
// cycle number, so whether a given SM may issue on cycle c depends only on
// (c, state ratio): the fast-forward engine's lazy stall settlement and the
// per-cycle path agree exactly (SMOpenCycles is the closed form of SMOpen
// summed over a span). HBM throttling stretches each burst's bus occupancy
// at issue time, which the channel's busFreeAt already carries into
// NextActivity bounds; a frequency transition reserves the bus until the
// transition completes. State changes are only legal at epoch boundaries,
// after parked SMs have been settled, so no closed-form span ever straddles
// a ratio change it cannot see.
//
// # Cost contract
//
// A GPU built without a power config carries a nil *Manager and pays one
// pointer nil-check per emit site. With a manager, the per-SM per-cycle gate
// is one slice load and one branch while a domain sits at nominal frequency
// (the common case), and two divisions while throttled.
package power

import (
	"fmt"

	"ugpu/internal/trace"
)

// PState is one discrete frequency/voltage operating point. Frequency is the
// rational fraction Num/Den of nominal (state 0 must be 1/1); Voltage is
// relative to nominal and scales dynamic energy by V² and static energy by V.
type PState struct {
	Name    string
	Num     int
	Den     int
	Voltage float64
}

// DefaultSMStates is the built-in SM-domain DVFS table: nominal plus three
// throttle points. Ratios are small rationals so the issue gate's Bresenham
// arithmetic stays exact.
func DefaultSMStates() []PState {
	return []PState{
		{Name: "sm-p0", Num: 1, Den: 1, Voltage: 1.00},
		{Name: "sm-p1", Num: 3, Den: 4, Voltage: 0.90},
		{Name: "sm-p2", Num: 1, Den: 2, Voltage: 0.80},
		{Name: "sm-p3", Num: 1, Den: 4, Voltage: 0.70},
	}
}

// DefaultHBMStates is the built-in HBM-channel DVFS table. A state's burst
// occupancy is ceil(BurstCycles·Den/Num), mirroring the degraded-channel
// serve-factor mechanism.
func DefaultHBMStates() []PState {
	return []PState{
		{Name: "hbm-p0", Num: 1, Den: 1, Voltage: 1.00},
		{Name: "hbm-p1", Num: 3, Den: 4, Voltage: 0.90},
		{Name: "hbm-p2", Num: 1, Den: 2, Voltage: 0.80},
	}
}

// EnergyWeights are the event-energy model's per-event weights, shared with
// the post-hoc Figure 12b model of internal/metrics. Units are arbitrary
// "energy units"; DefaultWattsPerUnit calibrates them to watts.
type EnergyWeights struct {
	SMActiveCycle float64 // dynamic + per-SM static, per active cycle
	SMIdleCycle   float64 // static of an idle SM
	CoreStatic    float64 // per cycle: NoC, LLC, scheduler static
	DRAMActivate  float64
	DRAMAccess    float64 // per read/write burst
	DRAMMigration float64 // per MIGRATION command
	DRAMStatic    float64 // per channel-cycle
}

// DefaultWeights returns the model's calibrated weights (Fig 12b shape:
// core ≈ 88%, HBM ≈ 12%).
func DefaultWeights() EnergyWeights {
	return EnergyWeights{
		SMActiveCycle: 1.0,
		SMIdleCycle:   0.35,
		CoreStatic:    14.0,
		DRAMActivate:  3.0,
		DRAMAccess:    2.0,
		DRAMMigration: 2.4,
		DRAMStatic:    0.009,
	}
}

// DefaultWattsPerUnit converts model energy-units-per-cycle to watts assuming
// a 1 GHz nominal clock; it is chosen so a fully busy 80-SM device sits near
// a 300 W TDP (~100 units/cycle at nominal frequency).
const DefaultWattsPerUnit = 3.0

// DefaultTransitionCycles is the PLL-relock / voltage-settle latency charged
// for every domain state change: the SM gate stays closed (no issue) and the
// channel bus stays reserved until the transition completes.
const DefaultTransitionCycles = 500

// DefaultSMsPerDomain groups SMs into frequency domains of this size (the
// partitioning algorithm's SM step, so one slice's SMs land on whole
// domains in the common case).
const DefaultSMsPerDomain = 4

// ChannelDomainBase offsets HBM channel ids in KPower trace units so SM
// domains and channels share one id space.
const ChannelDomainBase = 1 << 16

// EventKind is the a0 discriminator of a KPower trace event.
type EventKind int64

const (
	// EventSM: an SM frequency domain changed state. unit=domain,
	// a1=old state index, a2=new.
	EventSM EventKind = iota
	// EventHBM: an HBM channel changed state. unit=ChannelDomainBase+channel,
	// a1=old state index, a2=new.
	EventHBM
	// EventCap: a per-GPU power cap was assigned. unit=GPU index,
	// a1=old watts, a2=new watts (both rounded).
	EventCap
	// EventClampEnter: the cap controller hit the frequency floor with power
	// still over budget. a1=cap depth, a2=cap watts (rounded).
	EventClampEnter
	// EventClampExit: measured power fell back under the cap.
	EventClampExit
)

// Config selects the DVFS tables. A nil table falls back to the package
// default; the model constants (DefaultSMsPerDomain,
// DefaultTransitionCycles, DefaultWeights, DefaultWattsPerUnit) are fixed.
type Config struct {
	// SMStates and HBMStates are the per-domain operating-point tables
	// (state 0 must be nominal 1/1). A single-entry table freezes that
	// domain kind at nominal: the governor has nothing to choose.
	SMStates  []PState
	HBMStates []PState
}

func (c Config) withDefaults() Config {
	if c.SMStates == nil {
		c.SMStates = DefaultSMStates()
	}
	if c.HBMStates == nil {
		c.HBMStates = DefaultHBMStates()
	}
	return c
}

func validStates(kind string, ss []PState) error {
	if len(ss) == 0 {
		return fmt.Errorf("power: %s state table is empty", kind)
	}
	for i, s := range ss {
		if s.Num <= 0 || s.Den <= 0 || s.Num > s.Den {
			return fmt.Errorf("power: %s state %d ratio %d/%d is not in (0,1]", kind, i, s.Num, s.Den)
		}
		if s.Voltage <= 0 {
			return fmt.Errorf("power: %s state %d voltage %g is not positive", kind, i, s.Voltage)
		}
	}
	if ss[0].Num != ss[0].Den {
		return fmt.Errorf("power: %s state 0 must be nominal 1/1, got %d/%d", kind, ss[0].Num, ss[0].Den)
	}
	return nil
}

// Hooks are the GPU-side probes and effectors a Manager needs: reading the
// counters its energy meter attributes, and pushing channel timing into the
// DRAM model. All are called synchronously on the simulation goroutine.
type Hooks struct {
	// SMActive returns the cumulative active cycles of the domain's SMs
	// (the GPU settles parked SMs first, so the figure is exact).
	SMActive func(dom int) uint64
	// Channel returns a channel's cumulative (reads+writes, activates).
	Channel func(ch int) (access, activates uint64)
	// ChannelState applies a channel frequency change to the DRAM model:
	// stretch each burst by Den/Num and reserve the bus until the
	// transition completes.
	ChannelState func(ch int, num, den int, until uint64)
}

// domain is one DVFS domain's state plus its per-state energy attribution.
type domain struct {
	state int    // current operating-point index (target during a transition)
	until uint64 // gate closed / bus reserved before this cycle
	num   uint32 // cached ratio of ss[state]
	den   uint32
	full  bool // fast path: nominal ratio and no transition ever pending

	lastCycle  uint64 // meter anchors (counters as of the last Sample)
	lastActive uint64
	lastAccess uint64
	lastAct    uint64
	resCycles  []uint64 // per-state wall-cycle residency
	active     []uint64 // per-state active cycles (SM) / accesses (channel)
	activates  []uint64 // per-state row activates (channel only)
}

// Manager owns the DVFS state of one GPU: SM frequency domains, HBM channel
// domains, the issue gate, and the energy meter. One Manager belongs to one
// GPU (one goroutine), like a Tracer.
type Manager struct {
	cfg   Config
	tr    *trace.Tracer
	hooks Hooks

	smDomOf []int32 // SM id -> domain index
	smSize  []int   // SMs per domain (last may be short)
	smDom   []domain
	chDom   []domain

	sampledTo   uint64
	transitions uint64
	smNotFull   int    // SM domains currently off the nominal fast path
	lastPowerAt uint64 // EpochPower anchors
	lastPowerE  float64
	lastPower   float64
}

// NewManager builds the DVFS state for a GPU with the given geometry. The
// tracer (which may be nil) receives one KPower event per state transition.
func NewManager(numSMs, numChannels int, cfg Config, tr *trace.Tracer) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := validStates("SM", cfg.SMStates); err != nil {
		return nil, err
	}
	if err := validStates("HBM", cfg.HBMStates); err != nil {
		return nil, err
	}
	if numSMs <= 0 || numChannels <= 0 {
		return nil, fmt.Errorf("power: geometry %d SMs / %d channels is not positive", numSMs, numChannels)
	}
	m := &Manager{cfg: cfg, tr: tr}
	nDom := (numSMs + DefaultSMsPerDomain - 1) / DefaultSMsPerDomain
	m.smDomOf = make([]int32, numSMs)
	m.smSize = make([]int, nDom)
	for i := range m.smDomOf {
		m.smDomOf[i] = int32(i / DefaultSMsPerDomain)
		m.smSize[i/DefaultSMsPerDomain]++
	}
	m.smDom = make([]domain, nDom)
	m.chDom = make([]domain, numChannels)
	for i := range m.smDom {
		m.smDom[i] = newDomain(len(cfg.SMStates), cfg.SMStates[0])
	}
	for i := range m.chDom {
		m.chDom[i] = newDomain(len(cfg.HBMStates), cfg.HBMStates[0])
	}
	return m, nil
}

func newDomain(states int, nominal PState) domain {
	return domain{
		num: uint32(nominal.Num), den: uint32(nominal.Den), full: true,
		resCycles: make([]uint64, states),
		active:    make([]uint64, states),
		activates: make([]uint64, states),
	}
}

// SetHooks wires the GPU-side probes; must be called before any Sample.
func (m *Manager) SetHooks(h Hooks) { m.hooks = h }

// NumSMDomains is the SM frequency-domain count.
func (m *Manager) NumSMDomains() int { return len(m.smDom) }

// NumChannels is the HBM channel-domain count.
func (m *Manager) NumChannels() int { return len(m.chDom) }

// SMDomainOf maps an SM id to its frequency domain.
func (m *Manager) SMDomainOf(smID int) int { return int(m.smDomOf[smID]) }

// SMStates returns the SM operating-point table.
func (m *Manager) SMStates() []PState { return m.cfg.SMStates }

// HBMStates returns the HBM operating-point table.
func (m *Manager) HBMStates() []PState { return m.cfg.HBMStates }

// SMState returns a domain's current operating-point index.
func (m *Manager) SMState(dom int) int { return m.smDom[dom].state }

// ChannelState returns a channel's current operating-point index.
func (m *Manager) ChannelState(ch int) int { return m.chDom[ch].state }

// Transitions is the total number of domain state changes so far.
func (m *Manager) Transitions() uint64 { return m.transitions }

// SMAllNominal reports that every SM domain is on the nominal fast path
// (no throttle, no transition window): the GPU's tick loop may skip the
// per-SM gate check entirely. A domain returning to nominal rejoins the fast
// path lazily, on its first SMOpen query past the transition window.
func (m *Manager) SMAllNominal() bool { return m.smNotFull == 0 }

// gateOpen reports whether the Bresenham issue gate is open on cycle c for a
// frequency of num/den: open iff the accumulator floor(c·num/den) advances.
// At nominal (num==den) it is open every cycle.
func gateOpen(c uint64, num, den uint32) bool {
	return (c+1)*uint64(num)/uint64(den) != c*uint64(num)/uint64(den)
}

// openCount is the closed form of gateOpen summed over [from, to).
func openCount(from, to uint64, num, den uint32) uint64 {
	return to*uint64(num)/uint64(den) - from*uint64(num)/uint64(den)
}

// SMOpen reports whether smID may issue on cycle c: its domain's gate is
// open and no frequency transition is in flight. This is the per-SM
// per-cycle hot path; the nominal-and-settled case is one branch.
func (m *Manager) SMOpen(smID int, c uint64) bool {
	d := &m.smDom[m.smDomOf[smID]]
	if d.full {
		return true
	}
	if c < d.until {
		return false
	}
	if d.num == d.den {
		// Transition back to nominal completed; restore the fast path
		// (single-owner mutation, deterministic in c).
		d.full = true
		m.smNotFull--
		return true
	}
	return gateOpen(c, d.num, d.den)
}

// SMOpenCycles counts the open cycles for smID in [from, to) — the closed
// form the fast-forward engine uses to settle a parked SM's stall
// accounting. It is exact provided no state change occurred inside the span,
// which the epoch-boundary-only transition rule guarantees.
func (m *Manager) SMOpenCycles(smID int, from, to uint64) uint64 {
	if from >= to {
		return 0
	}
	d := &m.smDom[m.smDomOf[smID]]
	// Clip the transition window before taking the fast path: a sibling SM's
	// per-cycle SMOpen may have restored d.full after the window closed, but
	// this span may still start inside it (until is never reset).
	if d.until > from {
		if d.until >= to {
			return 0
		}
		from = d.until
	}
	if d.full || d.num == d.den {
		return to - from
	}
	return openCount(from, to, d.num, d.den)
}

// sampleSM attributes the cycles and active cycles since the last sample to
// the domain's current state.
func (m *Manager) sampleSM(dom int, cycle uint64) {
	d := &m.smDom[dom]
	if cycle < d.lastCycle {
		return
	}
	act := d.lastActive
	if m.hooks.SMActive != nil {
		act = m.hooks.SMActive(dom)
	}
	d.resCycles[d.state] += cycle - d.lastCycle
	d.active[d.state] += act - d.lastActive
	d.lastCycle = cycle
	d.lastActive = act
}

// sampleChannel attributes a channel's accesses and activates since the last
// sample to its current state.
func (m *Manager) sampleChannel(ch int, cycle uint64) {
	d := &m.chDom[ch]
	if cycle < d.lastCycle {
		return
	}
	access, acts := d.lastAccess, d.lastAct
	if m.hooks.Channel != nil {
		access, acts = m.hooks.Channel(ch)
	}
	d.resCycles[d.state] += cycle - d.lastCycle
	d.active[d.state] += access - d.lastAccess
	d.activates[d.state] += acts - d.lastAct
	d.lastCycle = cycle
	d.lastAccess = access
	d.lastAct = acts
}

// Sample attributes all domains' counters up to cycle. Called at epoch
// boundaries before any state change and before reading energy.
func (m *Manager) Sample(cycle uint64) {
	for i := range m.smDom {
		m.sampleSM(i, cycle)
	}
	for i := range m.chDom {
		m.sampleChannel(i, cycle)
	}
	if cycle > m.sampledTo {
		m.sampledTo = cycle
	}
}

// SetSMState moves an SM domain to the given operating point. Legal only at
// epoch boundaries (after Sample); the gate closes for
// DefaultTransitionCycles. A no-op when the domain is already there.
func (m *Manager) SetSMState(cycle uint64, dom, state int) {
	d := &m.smDom[dom]
	if state == d.state {
		return
	}
	m.sampleSM(dom, cycle)
	old := d.state
	s := m.cfg.SMStates[state]
	d.state = state
	d.num, d.den = uint32(s.Num), uint32(s.Den)
	d.until = cycle + DefaultTransitionCycles
	if d.full {
		d.full = false
		m.smNotFull++
	}
	m.transitions++
	m.tr.Emit(trace.KPower, cycle, -1, int32(dom), int64(EventSM), int64(old), int64(state))
}

// SetChannelState moves an HBM channel to the given operating point,
// stretching its burst occupancy and reserving the bus through the
// transition via the ChannelState hook.
func (m *Manager) SetChannelState(cycle uint64, ch, state int) {
	d := &m.chDom[ch]
	if state == d.state {
		return
	}
	m.sampleChannel(ch, cycle)
	old := d.state
	s := m.cfg.HBMStates[state]
	d.state = state
	d.num, d.den = uint32(s.Num), uint32(s.Den)
	d.until = cycle + DefaultTransitionCycles
	d.full = false
	m.transitions++
	if m.hooks.ChannelState != nil {
		m.hooks.ChannelState(ch, s.Num, s.Den, d.until)
	}
	m.tr.Emit(trace.KPower, cycle, -1, int32(ChannelDomainBase+ch), int64(EventHBM), int64(old), int64(state))
}

// Emit records a KPower event that is not a domain transition (cap
// assignment, clamp enter/exit) on the manager's tracer.
func (m *Manager) Emit(kind EventKind, cycle uint64, unit int32, old, new int64) {
	m.tr.Emit(trace.KPower, cycle, -1, unit, int64(kind), old, new)
}

// Breakdown is the DVFS-scaled energy report. At an all-nominal history it
// reproduces the base metrics energy model exactly (pinned by test).
type Breakdown struct {
	// Core is SM active + idle energy plus the un-domained core static
	// floor, each term scaled by its state's frequency-gating and voltage.
	Core float64
	// HBM is activate + access + migration + channel static energy.
	HBM float64
	// Total is Core + HBM.
	Total float64
	// Transitions is the domain state-change count.
	Transitions uint64
}

// smEnergy continues the running sum acc over every SM domain's attributed
// active and idle energy, each state's terms scaled by its voltage.
func (m *Manager) smEnergy(acc float64) float64 {
	w := DefaultWeights()
	for i := range m.smDom {
		d := &m.smDom[i]
		size := float64(m.smSize[i])
		for s := range d.resCycles {
			v := m.cfg.SMStates[s].Voltage
			active := float64(d.active[s])
			idle := float64(d.resCycles[s])*size - active
			acc += active*w.SMActiveCycle*v*v + idle*w.SMIdleCycle*v
		}
	}
	return acc
}

// hbmEnergy continues the running sum acc over every channel domain's
// attributed activate, access and static energy.
func (m *Manager) hbmEnergy(acc float64) float64 {
	w := DefaultWeights()
	for i := range m.chDom {
		d := &m.chDom[i]
		for s := range d.resCycles {
			v := m.cfg.HBMStates[s].Voltage
			acc += float64(d.activates[s])*w.DRAMActivate*v*v +
				float64(d.active[s])*w.DRAMAccess*v*v +
				float64(d.resCycles[s])*w.DRAMStatic*v
		}
	}
	return acc
}

// energyMetered sums the attributed dynamic+static energy of all domains
// (excludes migration and un-sampled residual) in one accumulator.
func (m *Manager) energyMetered() float64 {
	return m.hbmEnergy(m.smEnergy(0)) + float64(m.sampledTo)*DefaultWeights().CoreStatic
}

// Report finalizes attribution at cycle and returns the DVFS-scaled energy
// breakdown; migratedLines adds the (un-domained) migration transfer energy.
func (m *Manager) Report(cycle uint64, migratedLines uint64) Breakdown {
	m.Sample(cycle)
	w := DefaultWeights()
	core := m.smEnergy(0) + float64(m.sampledTo)*w.CoreStatic
	hbm := m.hbmEnergy(0) + float64(migratedLines)*w.DRAMMigration
	return Breakdown{Core: core, HBM: hbm, Total: core + hbm, Transitions: m.transitions}
}

// EpochPower samples to cycle and returns the mean power in watts over the
// window since the previous call (the governor's feedback signal). Migration
// energy is excluded: it is not in any DVFS domain's control.
func (m *Manager) EpochPower(cycle uint64) float64 {
	m.Sample(cycle)
	if cycle <= m.lastPowerAt {
		return m.lastPower
	}
	e := m.energyMetered()
	m.lastPower = (e - m.lastPowerE) / float64(cycle-m.lastPowerAt) * DefaultWattsPerUnit
	m.lastPowerE = e
	m.lastPowerAt = cycle
	return m.lastPower
}

// LastPower is the most recent EpochPower reading without advancing the
// window (the cluster arbiter's view).
func (m *Manager) LastPower() float64 { return m.lastPower }
