package power

// The per-GPU governor (ISSUE 8 tentpole part 2/3): steps at epoch
// boundaries, reads the same profiling signal that drives unbalanced
// partitioning (the demand/supply memory-boundedness degree), and applies
// the paper's insight to frequency instead of allocation — a memory-bound
// slice's SMs are mostly stalled on DRAM, so downclocking them converts
// full-price stalled-active cycles into cheap gated cycles with little IPC
// cost, while a compute-bound slice's channels idle and can run slower.
// Hysteresis (classification streaks plus a post-change hold) keeps
// decisions stable; a power-cap controller layered on top shaves best-effort
// slices to their frequency floor before touching latency-critical ones.

// Slice is one resident tenant's view for a governor step, in ascending
// slot order.
type Slice struct {
	// Slot is the application slot.
	Slot int
	// Gen identifies the tenant occupying the slot (job id in serving,
	// the slot itself closed-world); a change resets the slot's hysteresis.
	Gen int
	// LC marks a latency-critical tenant: the efficiency pass never
	// downclocks it and the cap controller shaves it only after every
	// best-effort slice is at the floor.
	LC bool
	// MemDegree is the slice's demand/supply ratio from the partitioning
	// model (>1 = memory-bound).
	MemDegree float64
	// SMDomains and Channels are the frequency domains the slice's
	// allocation touches this epoch.
	SMDomains []int
	Channels  []int
}

// The governor's thresholds. Degrees are the demand/supply ratio of the
// partitioning model (>1 = memory-bound).
const (
	// memHigh: a slice at or above this degree for streakEpochs epochs has
	// its SMs stepped down one state. It sits just above the memory-bound
	// classification boundary (degree 1): above it, issue-rate cuts convert
	// stalled-active cycles to gated ones with little IPC cost.
	memHigh = 1.15
	// memLow: a slice at or below this degree is stepped back up.
	memLow = 1.05
	// chanLow: a slice at or below this degree (ample bandwidth headroom)
	// for streakEpochs epochs has its channels stepped down.
	chanLow = 0.45
	// chanHigh: a slice at or above this degree has its channels restored.
	chanHigh = 0.75
	// streakEpochs is how many consecutive epochs a classification must
	// hold before a step.
	streakEpochs = 2
	// holdEpochs is the post-change cooldown before the next step.
	holdEpochs = 1
	// capHysteresis is the fraction of the cap below which the controller
	// starts undoing cap-forced steps (the [h·cap, cap] band is stable).
	capHysteresis = 0.90
)

// slotGov is one slot's hysteresis state.
type slotGov struct {
	gen       int
	memStreak int
	upStreak  int
	dnChan    int
	upChan    int
	hold      int
	holdChan  int
	smState   int
	chState   int
}

// Governor owns the DVFS policy for one GPU. It is purely epoch-boundary
// code: Step never runs inside a simulated span.
type Governor struct {
	m   *Manager
	cap float64 // power budget in watts (0 = uncapped)

	slots    []slotGov
	capDepth int
	clamped  bool

	// floorSM/floorCh are externally forced minimum state indices (gray
	// degradation): every domain runs at least this many states below
	// nominal until the floor is cleared. The governor's own efficiency and
	// cap passes compose on top — they may slow a domain further, never
	// bring it back above the floor.
	floorSM int
	floorCh int

	desSM []int // scratch: per-domain desired state
	desCh []int
}

// NewGovernor builds a governor over the manager's domains for up to
// maxSlots resident tenants, under a power budget of capW watts (0 =
// uncapped; the cluster arbiter overrides it per epoch via SetCap).
func NewGovernor(m *Manager, maxSlots int, capW float64) *Governor {
	g := &Governor{
		m:     m,
		cap:   capW,
		slots: make([]slotGov, maxSlots),
		desSM: make([]int, m.NumSMDomains()),
		desCh: make([]int, m.NumChannels()),
	}
	for i := range g.slots {
		g.slots[i].gen = -1
	}
	return g
}

// SetCap replaces the power budget (cluster arbitration path).
func (g *Governor) SetCap(watts float64) { g.cap = watts }

// Clamped reports whether the cap controller is at the frequency floor with
// measured power still over budget.
func (g *Governor) Clamped() bool { return g.clamped }

// CapDepth is the number of cap-forced extra down-steps currently applied.
func (g *Governor) CapDepth() int { return g.capDepth }

// SetStateFloor forces minimum SM and HBM state indices on every domain
// (gray-failure degradation; 0,0 clears). Floors persist across Step calls,
// so governed GPUs stay degraded until the floor is lifted — without this
// the efficiency pass would restore nominal states at the next boundary.
// Values beyond the deepest configured state clamp there at application.
func (g *Governor) SetStateFloor(sm, ch int) {
	if sm < 0 {
		sm = 0
	}
	if ch < 0 {
		ch = 0
	}
	g.floorSM, g.floorCh = sm, ch
}

// StateFloor returns the forced minimum (SM, HBM) state indices in force.
func (g *Governor) StateFloor() (sm, ch int) { return g.floorSM, g.floorCh }

// maxDepth is the cap controller's travel: BE slices to both floors first,
// then LC slices to both floors.
func (g *Governor) maxDepth() int {
	return 2 * ((len(g.m.cfg.SMStates) - 1) + (len(g.m.cfg.HBMStates) - 1))
}

// Step runs one governor epoch: update per-slice hysteresis, run the cap
// feedback loop, and apply the resulting per-domain states. slices must be
// in ascending slot order; an empty list parks every domain at the floor
// (a zero-tenant GPU burns only throttled idle power). Deterministic: all
// inputs are simulation state, all iteration is index-ordered.
func (g *Governor) Step(cycle uint64, slices []Slice) {
	m := g.m
	maxSM := len(m.cfg.SMStates) - 1
	maxCh := len(m.cfg.HBMStates) - 1
	g.stepCap(cycle)

	// Efficiency pass: per-slice hysteresis toward the classification.
	for i := range slices {
		s := &slices[i]
		st := &g.slots[s.Slot]
		if st.gen != s.Gen {
			*st = slotGov{gen: s.Gen}
		}
		// LC slices never have their SMs stepped down.
		limSM := maxSM
		if s.LC {
			limSM = 0
		}
		if s.MemDegree >= memHigh {
			st.memStreak++
		} else {
			st.memStreak = 0
		}
		if s.MemDegree <= memLow {
			st.upStreak++
		} else {
			st.upStreak = 0
		}
		if st.hold > 0 {
			st.hold--
		} else if st.memStreak >= streakEpochs && st.smState < limSM {
			st.smState++
			st.hold = holdEpochs
			st.memStreak = 0
		} else if st.upStreak >= streakEpochs && st.smState > 0 {
			st.smState--
			st.hold = holdEpochs
			st.upStreak = 0
		}
		if st.smState > limSM {
			// A slice reclassified LC under the same generation recovers
			// immediately.
			st.smState = limSM
		}
		// Channels: the mirror image. LC slices keep nominal bandwidth.
		limCh := maxCh
		if s.LC {
			limCh = 0
		}
		if s.MemDegree <= chanLow {
			st.dnChan++
		} else {
			st.dnChan = 0
		}
		if s.MemDegree >= chanHigh {
			st.upChan++
		} else {
			st.upChan = 0
		}
		if st.holdChan > 0 {
			st.holdChan--
		} else if st.dnChan >= streakEpochs && st.chState < limCh {
			st.chState++
			st.holdChan = holdEpochs
			st.dnChan = 0
		} else if st.upChan >= streakEpochs && st.chState > 0 {
			st.chState--
			st.holdChan = holdEpochs
			st.upChan = 0
		}
		if st.chState > limCh {
			st.chState = limCh
		}
	}

	// Resolve per-domain desired states: unowned domains park at the
	// floor; shared domains take the fastest owner's wish.
	for i := range g.desSM {
		g.desSM[i] = maxSM
	}
	for i := range g.desCh {
		g.desCh[i] = maxCh
	}
	beSM, beCh, lcSM, lcCh := g.capExtra(maxSM, maxCh)
	for i := range slices {
		s := &slices[i]
		st := &g.slots[s.Slot]
		wantSM, wantCh := st.smState, st.chState
		if s.LC {
			wantSM = min(wantSM+lcSM, maxSM)
			wantCh = min(wantCh+lcCh, maxCh)
		} else {
			wantSM = min(wantSM+beSM, maxSM)
			wantCh = min(wantCh+beCh, maxCh)
		}
		for _, d := range s.SMDomains {
			if wantSM < g.desSM[d] {
				g.desSM[d] = wantSM
			}
		}
		for _, c := range s.Channels {
			if wantCh < g.desCh[c] {
				g.desCh[c] = wantCh
			}
		}
	}
	floorSM := min(g.floorSM, maxSM)
	floorCh := min(g.floorCh, maxCh)
	for d, want := range g.desSM {
		if want < floorSM {
			want = floorSM
		}
		m.SetSMState(cycle, d, want)
	}
	for c, want := range g.desCh {
		if want < floorCh {
			want = floorCh
		}
		m.SetChannelState(cycle, c, want)
	}
}

// capExtra splits capDepth into extra down-steps: BE SMs, then BE channels,
// then LC SMs, then LC channels.
func (g *Governor) capExtra(maxSM, maxCh int) (beSM, beCh, lcSM, lcCh int) {
	d := g.capDepth
	beSM = min(d, maxSM)
	d -= beSM
	beCh = min(d, maxCh)
	d -= beCh
	lcSM = min(d, maxSM)
	d -= lcSM
	lcCh = min(d, maxCh)
	return
}

// stepCap runs the power-cap feedback loop: one depth step per epoch toward
// the budget, a hysteresis band so a borderline load does not oscillate, and
// a single clamp-enter trace event when the floor cannot satisfy the cap.
func (g *Governor) stepCap(cycle uint64) {
	if g.cap <= 0 {
		g.capDepth = 0
		if g.clamped {
			g.clamped = false
			g.m.Emit(EventClampExit, cycle, 0, int64(g.capDepth), 0)
		}
		return
	}
	p := g.m.EpochPower(cycle)
	switch {
	case p > g.cap:
		if g.capDepth < g.maxDepth() {
			g.capDepth++
		} else if !g.clamped {
			g.clamped = true
			g.m.Emit(EventClampEnter, cycle, 0, int64(g.capDepth), int64(g.cap))
		}
	case p <= g.cap*capHysteresis && g.capDepth > 0:
		g.capDepth--
	}
	if g.clamped && p <= g.cap {
		g.clamped = false
		g.m.Emit(EventClampExit, cycle, 0, int64(g.capDepth), int64(g.cap))
	}
}
