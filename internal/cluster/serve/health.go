package clusterserve

// Gray-failure resilience (ISSUE 10): the frontend's health scorer and
// quarantine state machine. A gray-degraded GPU still answers — it steps,
// accepts offers, completes jobs — but slower, which fail-stop failover
// cannot see. The scorer compares each backend's per-epoch normalized
// progress against the peer median and corroborates with fault-event bursts
// and queue growth; streaks plus a dead band keep the verdict from flapping.
// A convicted GPU walks healthy → suspect → quarantined → probing → healthy:
// suspects take no new latency-critical work, quarantine proactively drains
// LC tenants (live progress preserved — nothing rolls back to a checkpoint),
// best-effort tenants stay at relaxed expectations, and re-admission needs
// K consecutive clean probe epochs.
//
// Everything here runs serially inside the frontend boundary in backend
// index order, so verdicts, transitions, and drains are byte-identical at
// any stepping parallelism with fast-forward on or off.

import (
	"fmt"
	"sort"

	"ugpu/internal/fault"
	"ugpu/internal/metrics"
	"ugpu/internal/serve"
	"ugpu/internal/trace"
)

// HealthState is one backend's position in the quarantine state machine.
type HealthState uint8

const (
	// HealthHealthy: full service; LC and BE both dispatchable.
	HealthHealthy HealthState = iota
	// HealthSuspect: under suspicion; existing tenants stay, but no new
	// latency-critical work is dispatched here.
	HealthSuspect
	// HealthQuarantined: convicted; LC tenants drained to peers, BE may
	// stay. Leaves only through probing.
	HealthQuarantined
	// HealthProbing: a quarantined GPU looking clean; still closed to LC
	// until it scores clean for probeEpochs straight epochs.
	HealthProbing
)

// String returns the short lowercase state name.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	case HealthProbing:
		return "probing"
	}
	return fmt.Sprintf("health(%d)", uint8(s))
}

// HealthConfig tunes the scorer and state machine; zero fields take
// defaults.
type HealthConfig struct {
	// EnterRatio: a backend whose progress falls below EnterRatio x the
	// peer median scores a bad epoch (default 0.5). At or above exitRatio x
	// median it scores a good epoch. Between the two is the dead band —
	// neither streak moves, so a score oscillating around one threshold
	// cannot flap the state.
	EnterRatio float64
	// SuspectAfter is the consecutive bad epochs that turn healthy into
	// suspect (default 2); quarantineAfter further bad epochs turn suspect
	// into quarantined. A suspect also needs SuspectAfter consecutive good
	// epochs to be cleared back to healthy.
	SuspectAfter int
	// GrowStreak is the consecutive epochs of queue growth (at or above a
	// full per-GPU queue share) that corroborate a sub-exitRatio progress
	// score into a bad epoch (default 3). Raise it on clusters that run
	// near saturation, where every healthy queue grows under a burst.
	GrowStreak int
}

// The scorer's fixed thresholds.
const (
	// exitRatio: progress at or above exitRatio x the peer median scores a
	// good epoch.
	exitRatio = 0.75
	// quarantineAfter is the bad epochs past SuspectAfter that turn a
	// suspect into quarantined.
	quarantineAfter = 2
	// probeEpochs is the consecutive clean probe epochs a quarantined GPU
	// must score before LC work is re-admitted.
	probeEpochs = 4
	// nackBurst: a per-epoch fault-event delta (NoC drops + migration
	// NACKs) at or above this is a bad epoch regardless of progress — a
	// flaky-link victim can hide a progress dip behind retries, but not
	// the retry burst itself.
	nackBurst = 8
	// minPeers is the minimum number of alive backends with a progress
	// signal (including the one under test) for verdicts to be rendered;
	// below it every epoch is neutral (a median of one peer convicts
	// nobody).
	minPeers = 3
)

func (c HealthConfig) withDefaults() HealthConfig {
	if c.EnterRatio == 0 {
		c.EnterRatio = 0.5
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2
	}
	if c.GrowStreak == 0 {
		c.GrowStreak = 3
	}
	return c
}

// HealthTransition is one recorded state-machine move (tests and the
// false-positive/negative accounting read the log).
type HealthTransition struct {
	Cycle int
	GPU   int
	From  HealthState
	To    HealthState
}

// backendHealth is one backend's scorer state.
type backendHealth struct {
	state      HealthState
	badStreak  int
	goodStreak int
	quarEpochs int // epochs spent in the current Quarantined stay
	quarStart  int // cycle quarantine (incl. probing) began, -1 outside
	quarCycles uint64
	lastFaults uint64
	lastQDepth int
	growStreak int
	lastScore  float64
}

// verdict is one epoch's classification of one backend.
type verdict uint8

const (
	vNeutral verdict = iota // no signal, too few peers, or cap-throttled
	vGood
	vBad
)

// applyGray flips each backend's degradation to match the planned windows:
// [Start, End) in cycles, applied and cleared at the epoch boundary. A
// boundary-grained window is exactly how a real throttling episode lands in
// an epoch-profiled system — the scorer only ever sees whole-epoch effects.
func (f *Frontend) applyGray(cycle int) {
	if len(f.grayPlan) == 0 {
		return
	}
	for i := range f.backends {
		if !f.alive[i] {
			continue
		}
		want := -1
		for k := range f.grayPlan {
			gf := &f.grayPlan[k]
			if gf.GPU == i && uint64(cycle) >= gf.Start && uint64(cycle) < gf.End {
				want = k
				break
			}
		}
		if want == f.grayCur[i] {
			continue
		}
		f.grayCur[i] = want
		if want >= 0 {
			gf := f.grayPlan[want]
			f.backends[i].SetDegrade(gf.SMStep, gf.HBMStep, gf.NoCDrop)
			f.cfg.Trace.Emit(trace.KGrayFault, uint64(cycle), -1, int32(i),
				1, int64(gf.SMStep), int64(gf.NoCDrop*1e6))
		} else {
			f.backends[i].SetDegrade(0, 0, 0)
			f.cfg.Trace.Emit(trace.KGrayFault, uint64(cycle), -1, int32(i), 0, 0, 0)
		}
	}
}

// updateHealth renders one epoch's verdict per alive backend and advances
// the state machines, in backend index order.
func (f *Frontend) updateHealth(cycle int) error {
	if f.health == nil {
		return nil
	}
	hc := f.healthCfg
	sigs := make([]serve.HealthSignal, len(f.backends))
	var peers []float64
	for _, i := range f.aliveIdx() {
		sigs[i] = f.backends[i].Health()
		if sigs[i].Residents > 0 {
			peers = append(peers, sigs[i].Progress)
		}
	}
	med := median(peers)
	for _, i := range f.aliveIdx() {
		bh := &f.health[i]
		sig := sigs[i]
		faultDelta := sig.FaultEvents - bh.lastFaults
		bh.lastFaults = sig.FaultEvents
		// Queue-delay growth: depth rising while at least a full per-GPU
		// queue share is waiting. Three consecutive growth epochs
		// corroborate sickness (a healthy backend's queue drains between
		// boundaries; a slow one's only grows).
		if sig.QueueDepth > bh.lastQDepth && sig.QueueDepth >= f.cfg.QueueCap {
			bh.growStreak++
		} else if sig.QueueDepth <= bh.lastQDepth {
			bh.growStreak = 0
		}
		bh.lastQDepth = sig.QueueDepth

		// One epoch's verdict. Cap-throttled epochs are neutral: an
		// operator-imposed DVFS clamp slows a GPU exactly like a gray fault,
		// and convicting it would quarantine every capped device. A hard
		// NACK burst overrides the neutrality guards — dropped messages and
		// rejected migrations mean the fabric is misbehaving regardless of
		// cap state, tenancy, or peer count, and healthy hardware never
		// produces them.
		v := vNeutral
		hard := faultDelta >= nackBurst
		if hard {
			v = vBad
			if sig.Residents > 0 && med > 0 {
				bh.lastScore = sig.Progress / med
			}
		} else if sig.CapDepth == 0 && sig.Residents > 0 && len(peers) >= minPeers && med > 0 {
			ratio := sig.Progress / med
			bh.lastScore = ratio
			// Queue growth corroborates a progress dip — it never convicts
			// alone. A saturating arrival burst grows every healthy queue;
			// only growth on a GPU that is also falling out of the good band
			// is evidence of sickness.
			growing := bh.growStreak >= hc.GrowStreak && ratio < exitRatio
			switch {
			case ratio < hc.EnterRatio || growing:
				v = vBad
			case ratio >= exitRatio:
				v = vGood
			}
		}

		switch bh.state {
		case HealthHealthy:
			switch v {
			case vBad:
				bh.badStreak++
				if bh.badStreak >= hc.SuspectAfter {
					// Soft evidence respects the suspicion cap: convicting a
					// GPU shifts its LC load onto the survivors and depresses
					// their scores, so an uncapped scorer can cascade one
					// true conviction into a cluster-wide quarantine. A capped
					// streak resets — once a slot frees (the convicted peer
					// re-admitted and is absorbing load again) the survivor
					// must re-earn a full fresh streak, which a merely
					// load-shocked GPU never does. Hard NACK evidence
					// bypasses the cap: only a real injector produces it.
					if hard || f.unhealthyCount() < f.maxSuspects {
						f.setHealth(cycle, i, HealthSuspect)
						bh.goodStreak = 0
					} else {
						bh.badStreak = 0
					}
				}
			case vGood:
				bh.badStreak = 0
			}
		case HealthSuspect:
			switch v {
			case vBad:
				bh.badStreak++
				bh.goodStreak = 0
				if bh.badStreak >= hc.SuspectAfter+quarantineAfter {
					if err := f.quarantine(cycle, i); err != nil {
						return err
					}
				}
			case vGood:
				bh.goodStreak++
				if bh.goodStreak >= hc.SuspectAfter {
					f.setHealth(cycle, i, HealthHealthy)
					bh.badStreak, bh.goodStreak = 0, 0
				}
			}
		case HealthQuarantined:
			bh.quarEpochs++
			if v != vBad {
				// First non-bad epoch after conviction: start probing. A
				// drained GPU with no best-effort residents has no signal at
				// all (neutral) — it still probes, but without clean scored
				// epochs it parks in probing and never re-admits LC.
				f.setHealth(cycle, i, HealthProbing)
				bh.goodStreak = 0
			}
		case HealthProbing:
			switch v {
			case vBad:
				f.setHealth(cycle, i, HealthQuarantined)
				bh.quarEpochs, bh.goodStreak = 0, 0
			case vGood:
				bh.goodStreak++
				if bh.goodStreak >= probeEpochs {
					f.setHealth(cycle, i, HealthHealthy)
					bh.quarCycles += uint64(cycle - bh.quarStart)
					bh.quarStart = -1
					bh.badStreak, bh.goodStreak, bh.quarEpochs = 0, 0, 0
				}
			}
		}
	}
	return nil
}

// unhealthyCount counts backends outside the healthy state — including
// crashed ones that were convicted first, whose frozen state keeps a slot
// occupied (their capacity loss is just as real).
func (f *Frontend) unhealthyCount() int {
	n := 0
	for i := range f.health {
		if f.health[i].state != HealthHealthy {
			n++
		}
	}
	return n
}

// setHealth records one state transition (log + trace).
func (f *Frontend) setHealth(cycle, gpu int, to HealthState) {
	bh := &f.health[gpu]
	from := bh.state
	bh.state = to
	f.healthLog = append(f.healthLog, HealthTransition{Cycle: cycle, GPU: gpu, From: from, To: to})
	f.cfg.Trace.Emit(trace.KHealth, uint64(cycle), -1, int32(gpu),
		int64(from), int64(to), int64(bh.lastScore*1000))
}

// quarantine convicts one backend: with GrayAsCrash it is killed like a
// fail-stop crash (the comparison arm — tenants roll back to checkpoints
// and pay retries); otherwise its latency-critical tenants are proactively
// drained with live progress and re-queued at the frontend, front of the LC
// queue in arrival order, with no retry charge and no backoff — the jobs
// did nothing wrong.
func (f *Frontend) quarantine(cycle, gpu int) error {
	f.setHealth(cycle, gpu, HealthQuarantined)
	bh := &f.health[gpu]
	bh.quarEpochs = 0
	if f.cfg.GrayAsCrash {
		// Fail-stop response: quarStart stays -1 — a dead GPU's time is
		// availability loss, not quarantine.
		f.crashGPU(uint64(cycle), gpu)
		return nil
	}
	bh.quarStart = cycle
	resumes, err := f.backends[gpu].EvictLC(cycle)
	if err != nil {
		return err
	}
	sort.Slice(resumes, func(a, b int) bool { return resumes[a].Job.ID < resumes[b].Job.ID })
	var saved float64
	for i := len(resumes) - 1; i >= 0; i-- {
		r := resumes[i]
		tk := f.tracks[r.Job.ID]
		if r.Served > tk.served && r.Work > 0 {
			// Progress beyond the last checkpoint — exactly what a crash
			// would have rolled back — in alone-cycles.
			saved += float64(r.Served-tk.served) * float64(tk.job.AloneCycles) / float64(r.Work)
		}
		tk.served, tk.work = r.Served, r.Work
		tk.start, tk.preempts = r.Start, r.Preempts
		tk.gpu = -1
		tk.state = tsQueued
		tk.enqueued = cycle
		tk.drained = true
		f.lcQ = append([]*track{tk}, f.lcQ...)
	}
	f.graySaved += saved
	f.cfg.Trace.Emit(trace.KQuarantineDrain, uint64(cycle), -1, int32(gpu),
		int64(len(resumes)), int64(saved), 0)
	return nil
}

// closeQuarantine caps an open quarantine interval at a crash: the GPU-cycles
// after the crash are downtime, not quarantine, and must not be counted
// twice. Called from crashGPU.
func (f *Frontend) closeQuarantine(cycle uint64, gpu int) {
	if f.health == nil {
		return
	}
	bh := &f.health[gpu]
	if bh.quarStart >= 0 {
		bh.quarCycles += cycle - uint64(bh.quarStart)
		bh.quarStart = -1
	}
}

// lcEligible reports whether a backend may receive new latency-critical
// work: healthy, or health scoring disabled.
func (f *Frontend) lcEligible(gpu int) bool {
	return f.health == nil || f.health[gpu].state == HealthHealthy
}

// grayStats folds the health log against the injected schedule: a window is
// detected when its GPU went healthy → suspect between the window start and
// a two-epoch grace past its end (epoch-sampled signals lag the raw window
// edges); suspicions with no overlapping window are false positives, and
// windows never flagged are misses. Quarantine time sums closed intervals
// plus any interval still open at the horizon.
func (f *Frontend) grayStats(cycle uint64) metrics.GrayStats {
	epoch := uint64(f.cfg.Sim.EpochCycles)
	grace := 2 * epoch
	st := metrics.GrayStats{GrayFaults: len(f.grayPlan), GraySavedWork: f.graySaved}
	matched := make([]bool, len(f.grayPlan))
	var latSum float64
	for _, tr := range f.healthLog {
		if tr.From != HealthHealthy || tr.To != HealthSuspect {
			continue
		}
		hit := false
		for k := range f.grayPlan {
			gf := &f.grayPlan[k]
			if gf.GPU != tr.GPU || uint64(tr.Cycle) < gf.Start || uint64(tr.Cycle) >= gf.End+grace {
				continue
			}
			hit = true
			if !matched[k] {
				matched[k] = true
				st.GrayDetected++
				latSum += float64(uint64(tr.Cycle)-gf.Start) / float64(epoch)
			}
			break
		}
		if !hit {
			st.GrayFalsePositives++
		}
	}
	st.GrayMissed = len(f.grayPlan) - st.GrayDetected
	if st.GrayDetected > 0 {
		st.GrayDetectEpochs = latSum / float64(st.GrayDetected)
	}
	for i := range f.health {
		bh := &f.health[i]
		st.QuarantinedGPUCycles += bh.quarCycles
		if bh.quarStart >= 0 {
			st.QuarantinedGPUCycles += cycle - uint64(bh.quarStart)
		}
	}
	return st
}

// HealthLog returns the recorded state transitions (tests).
func (f *Frontend) HealthLog() []HealthTransition { return f.healthLog }

// HealthStates returns each backend's current health state (tests); nil
// when health scoring is disabled.
func (f *Frontend) HealthStates() []HealthState {
	if f.health == nil {
		return nil
	}
	out := make([]HealthState, len(f.health))
	for i := range f.health {
		out[i] = f.health[i].state
	}
	return out
}

// GrayPlan returns the gray-fault schedule in force (tests).
func (f *Frontend) GrayPlan() []fault.GrayFault { return f.grayPlan }

// checkHealthInvariants: no latency-critical job may sit on a quarantined
// or probing backend — quarantine drained them and dispatch is gated.
func (f *Frontend) checkHealthInvariants(cycle int) error {
	if f.health == nil {
		return nil
	}
	for i := range f.health {
		if !f.alive[i] {
			continue
		}
		st := f.health[i].state
		if (st == HealthQuarantined || st == HealthProbing) && f.backends[i].LCLoad() > 0 {
			return fmt.Errorf("clusterserve: cycle %d: %d LC jobs on %s GPU %d",
				cycle, f.backends[i].LCLoad(), st, i)
		}
	}
	return nil
}

// median of a slice (not modified); 0 when empty. Even lengths average the
// two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
