// Package serve implements the online serving layer of ISSUE 3: a
// discrete-event scheduler that drives one GPU as a service. Tenants arrive
// over time (internal/workload's seeded arrival schedules), wait in
// per-class queues under an admission controller, execute on a dynamically
// partitioned GPU slice (live attach), and depart when their instruction
// budget is served (live detach through the two-phase drain of
// internal/gpu/attach.go). SLO accounting — queueing delay, per-job slowdown
// versus the alone-run reference, percentiles, goodput, rejection and
// preemption rates — lands in internal/metrics.
//
// Everything is deterministic: arrival schedules are pure functions of
// (spec, seed), boundary processing iterates in slot/arrival order, and the
// alone-IPC reference values are identical no matter which goroutine of a
// parallel sweep measured them. Identical seeds therefore produce
// byte-identical reports at any sweep parallelism, with or without fault
// injection.
package serve

import (
	"fmt"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/digest"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/power"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// Policy selects the admission/placement discipline.
type Policy int

const (
	// InOrder admits strictly in arrival order (one logical FIFO with
	// head-of-line blocking) and never preempts.
	InOrder Policy = iota
	// ClassAware drains the latency-critical queue first and preempts
	// best-effort tenants when LC work is blocked.
	ClassAware
	// LoadAware is ClassAware plus a bandwidth gate: memory-bound
	// best-effort jobs are deferred (skipped, not rejected) while measured
	// DRAM load is high, letting compute-bound work behind them through.
	LoadAware
)

func (p Policy) String() string {
	switch p {
	case InOrder:
		return "in-order"
	case ClassAware:
		return "class-aware"
	case LoadAware:
		return "load-aware"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "in-order", "inorder", "fifo":
		return InOrder, nil
	case "class-aware", "class":
		return ClassAware, nil
	case "load-aware", "load":
		return LoadAware, nil
	}
	return 0, fmt.Errorf("serve: unknown policy %q (want in-order, class-aware, or load-aware)", s)
}

// Policies lists every admission policy in presentation order.
func Policies() []Policy { return []Policy{InOrder, ClassAware, LoadAware} }

const (
	// maxResident bounds concurrently resident tenants.
	maxResident = 4
	// loadThreshold is the DRAM lines/channel/cycle level above which
	// LoadAware defers memory-bound best-effort admission.
	loadThreshold = 0.10
)

// Config parameterises one serve run.
type Config struct {
	// Sim is the simulator configuration; MaxCycles is the serving horizon
	// and EpochCycles the scheduling quantum.
	Sim config.Config
	// Opt configures the GPU mechanisms (migration mode, faults, ...).
	Opt gpu.Options
	// Arrivals generates the request stream (ignored when Jobs is set).
	Arrivals workload.ArrivalSpec
	// Seed seeds the arrival schedule.
	Seed int64
	// Jobs, when non-nil, replays an explicit schedule instead of Arrivals.
	Jobs []workload.Job
	// Policy is the admission/placement discipline.
	Policy Policy
	// QueueCap bounds each class queue; arrivals beyond it are rejected
	// (default 16).
	QueueCap int
	// Alone supplies solo-IPC references; nil builds one from Sim/Opt.
	// Sweeps share one instance so each benchmark is measured once.
	Alone *metrics.AloneIPC
	// PowerCap is the GPU power budget in watts for the DVFS governor
	// (0 = uncapped). Effective only when Opt carries a power config; the
	// cluster arbiter adjusts it per epoch via SetPowerCap.
	PowerCap float64
}

// Validate checks the serving capacity knobs before any GPU is built,
// returning a *config.FieldError naming the first violated constraint (the
// same typed error cluster.New surfaces for simulator geometry), or nil.
// Zero values mean "use the default" and pass; negative capacities and
// rates never do — rejecting them here fails fast instead of
// wedging the admission loop with a queue that can never hold a job.
func (c Config) Validate() error {
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if c.QueueCap < 0 {
		return &config.FieldError{Field: "serve.QueueCap", Value: c.QueueCap,
			Reason: "must be >= 0 (0 means the default of 16)"}
	}
	if c.PowerCap < 0 {
		return &config.FieldError{Field: "serve.PowerCap", Value: int(c.PowerCap),
			Reason: "must be >= 0 watts (0 means uncapped)"}
	}
	if c.Jobs == nil {
		if err := c.Arrivals.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Config) withDefaults() {
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Alone == nil {
		c.Alone = metrics.NewAloneIPC(c.Sim, c.Opt)
	}
}

// Report is a serve run's outcome.
type Report struct {
	Policy  Policy
	Cycles  uint64
	Epochs  int
	Arrived int

	Attaches    int
	Detaches    int
	Preemptions int
	Rejections  int

	// Outcomes holds one entry per observed arrival, in arrival order.
	Outcomes []metrics.JobOutcome
	// SLO is the folded report over Outcomes.
	SLO metrics.SLOReport

	// Served is the total instructions credited to tenants.
	Served uint64
	// Energy is the DVFS-scaled energy breakdown (zero value when the run
	// had no power config).
	Energy power.Breakdown
	// MeanPower is the run-average power in watts (0 without a power config).
	MeanPower float64

	// Digest is the per-epoch state digest chain (empty when
	// Config.Sim.DigestEvery is 0); its final link also lands in
	// SLO.StateDigest so sweep tables can print one comparable value.
	Digest digest.Chain
}

// jobState tracks one arrival through the system.
type jobState struct {
	job      workload.Job
	work     uint64 // instruction budget (AloneCycles x alone IPC)
	served   uint64 // instructions credited so far
	slot     int    // resident slot, -1 when queued/done
	admitSeq int    // global admission counter (preemption tie-break)
	admitAt  int    // latest admission cycle
	start    int    // first admission cycle, -1 if never admitted
	finish   int    // completion cycle, -1
	rejected bool
	preempts int
	// recovered marks a crash-recovered job front-offered by the cluster
	// frontend: it holds queue priority over ordinary arrivals, and later
	// front offers must slot in behind it, not in front of it (Offer).
	recovered bool
}

// Server drives one GPU through an arrival schedule. Build with New, run
// with Run.
type Server struct {
	cfg  Config
	g    *gpu.GPU
	jobs []*jobState

	nextArr  int // first not-yet-arrived index into jobs
	lcQ, beQ []*jobState

	resident [gpu.MaxApps]*jobState
	last     []gpu.EpochStats
	admitSeq int
	served   uint64
	gov      *power.Governor

	epochs      int
	attaches    int
	detaches    int
	preemptions int
	rejections  int

	// Gray-degradation knobs in force (health.go) and the last epoch's
	// health observable.
	degSM  int
	degHBM int
	degNoC float64
	sig    HealthSignal

	// doneQ is the drain queue of finished jobs for backend mode
	// (TakeCompleted); unread in single-GPU serving.
	doneQ []Completion

	// State digest chain (digest.go), recorded every Sim.DigestEvery epochs.
	digestRec   digest.Recorder
	digestChain digest.Chain
}

// New validates the configuration, generates the arrival schedule, and
// builds an initially empty GPU.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	jobs := cfg.Jobs
	if jobs == nil {
		var err error
		jobs, err = cfg.Arrivals.Generate(cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	g, err := gpu.New(cfg.Sim, nil, cfg.Opt)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, g: g}
	s.jobs = make([]*jobState, len(jobs))
	for i, j := range jobs {
		s.jobs[i] = &jobState{job: j, slot: -1, start: -1, finish: -1}
	}
	return s, nil
}

// GPU exposes the device (tests).
func (s *Server) GPU() *gpu.GPU { return s.g }

// Run executes the serve loop to the horizon, one StepEpoch per epoch, and
// folds the outcomes.
func (s *Server) Run() (*Report, error) {
	horizon := uint64(s.cfg.Sim.MaxCycles)
	epoch := uint64(s.cfg.Sim.EpochCycles)
	if epoch == 0 || epoch > horizon {
		epoch = horizon
	}
	for s.g.Cycle() < horizon {
		if err := s.StepEpoch(min(epoch, horizon-s.g.Cycle())); err != nil {
			return nil, err
		}
	}
	return s.report(), nil
}

// boundary is the per-epoch scheduling pass. Order matters for determinism
// and is fixed: profile, credit, complete, reclaim, arrivals, preemption,
// admission, repartition, audit.
func (s *Server) boundary(cycle int) error {
	stats := s.g.EndEpoch()
	s.last = stats
	s.captureHealthSignal(cycle, stats)

	// Credit serving progress and collect completions, in slot order.
	for slot := 0; slot < len(stats); slot++ {
		js := s.resident[slot]
		if js == nil {
			continue
		}
		js.served += stats[slot].Instructions
		s.served += stats[slot].Instructions
		if js.served >= js.work {
			js.finish = cycle
			s.g.Tracer().Emit(trace.KJobDone, uint64(cycle), int32(slot), int32(js.job.ID),
				int64(js.served), int64(js.finish-js.job.Arrival), 0)
			if err := s.detach(cycle, slot); err != nil {
				return err
			}
			s.recordCompletion(js)
		}
	}

	// Reclaim quiesced departures (pages freed, slot vacated).
	for i, app := range s.g.Apps() {
		if app.Detaching() {
			s.g.FinishDetach(uint64(cycle), i)
		}
	}

	// New arrivals enter their class queue; a full queue rejects.
	for s.nextArr < len(s.jobs) && s.jobs[s.nextArr].job.Arrival <= cycle {
		js := s.jobs[s.nextArr]
		s.nextArr++
		switch {
		case js.job.Class == workload.LatencyCritical && len(s.lcQ) < s.cfg.QueueCap:
			s.lcQ = append(s.lcQ, js)
		case js.job.Class == workload.BestEffort && len(s.beQ) < s.cfg.QueueCap:
			s.beQ = append(s.beQ, js)
		default:
			js.rejected = true
			s.rejections++
			s.g.Tracer().Emit(trace.KReject, uint64(cycle), -1, int32(js.job.ID),
				int64(js.job.Class), 0, 0)
		}
	}

	// Preemption: blocked latency-critical work evicts best-effort tenants
	// (class-aware and load-aware only).
	if s.cfg.Policy != InOrder {
		for i := 0; i < len(s.lcQ); i++ {
			if s.canAdmit() {
				break
			}
			ok, err := s.preemptOneBE(cycle)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
	}

	// Admission: drain the policy-ordered queue while capacity lasts.
	highLoad := s.dramLoad() > loadThreshold
	for s.canAdmit() {
		js := s.nextCandidate(highLoad)
		if js == nil {
			break
		}
		if err := s.admit(cycle, js); err != nil {
			return err
		}
	}

	// Repartition survivors over the full machine.
	if err := s.repartition(cycle); err != nil {
		return err
	}
	if err := s.g.CheckInvariants(); err != nil {
		return fmt.Errorf("serve: cycle %d: %w", cycle, err)
	}

	// The DVFS governor steps last so domain ownership reflects this
	// boundary's admissions and repartition.
	s.stepPower(uint64(cycle))
	return nil
}

// stepPower runs the DVFS governor for one epoch boundary: resident tenants
// become governor slices (LC flag from the job's QoS class, generation from
// the job ID so hysteresis resets on tenant churn). Vacated slots drop out
// of the slice list and their domains park at the frequency floor.
func (s *Server) stepPower(cycle uint64) {
	pm := s.g.PowerManager()
	if pm == nil {
		return
	}
	if s.gov == nil {
		s.gov = power.NewGovernor(pm, gpu.MaxApps, s.cfg.PowerCap)
	}
	// Re-assert the gray-degradation floor every boundary: it covers the
	// lazily created governor above and survives any cap/floor churn.
	s.gov.SetStateFloor(s.degSM, s.degHBM)
	bw := core.BandwidthFor(s.cfg.Sim)
	var slices []power.Slice
	for slot, js := range s.resident {
		if js == nil {
			continue
		}
		sl := power.Slice{
			Slot: slot,
			Gen:  js.job.ID,
			LC:   js.job.Class == workload.LatencyCritical,
		}
		if slot < len(s.last) {
			sl.MemDegree = bw.Degree(core.ProfileOf(s.last[slot]))
		}
		sl.SMDomains, sl.Channels = s.g.AppendPowerDomains(slot, nil, nil)
		slices = append(slices, sl)
	}
	s.gov.Step(cycle, slices)
}

// SetPowerCap replaces the GPU's power budget in watts (cluster arbitration
// path; 0 = uncapped). A no-op without a power config.
func (s *Server) SetPowerCap(watts float64) {
	s.cfg.PowerCap = watts
	if s.gov != nil {
		s.gov.SetCap(watts)
	}
}

// LastPower is the governor's most recent epoch-mean power reading in watts
// (0 before the first boundary or without a power config).
func (s *Server) LastPower() float64 {
	if pm := s.g.PowerManager(); pm != nil {
		return pm.LastPower()
	}
	return 0
}

// Governor exposes the DVFS governor (nil until the first boundary of a
// power-enabled run).
func (s *Server) Governor() *power.Governor { return s.gov }

// Served is the total instructions credited to tenants so far.
func (s *Server) Served() uint64 { return s.served }

// detach begins the two-phase removal of a resident tenant.
func (s *Server) detach(cycle, slot int) error {
	if err := s.g.BeginDetach(uint64(cycle), slot); err != nil {
		return err
	}
	s.resident[slot] = nil
	s.detaches++
	return nil
}

// preemptOneBE evicts the most recently admitted best-effort tenant and
// requeues its job (front of the BE queue, progress retained). It reports
// whether a victim existed, and fails when the GPU refuses to detach it.
func (s *Server) preemptOneBE(cycle int) (bool, error) {
	victim := -1
	for slot, js := range s.resident {
		if js == nil || js.job.Class != workload.BestEffort {
			continue
		}
		if victim < 0 || js.admitSeq > s.resident[victim].admitSeq {
			victim = slot
		}
	}
	if victim < 0 {
		return false, nil
	}
	js := s.resident[victim]
	if err := s.g.BeginDetach(uint64(cycle), victim); err != nil {
		return false, err
	}
	// Bugfix (ISSUE 4): count the preemption only after BeginDetach
	// succeeds. The old order incremented first and left the counters
	// inflated on a failed detach — a job that was never actually evicted
	// (and is later preempted for real, or re-admitted) would be
	// double-counted in both js.preempts and the report's preemption rate.
	js.preempts++
	s.preemptions++
	s.g.Tracer().Emit(trace.KPreempt, uint64(cycle), int32(victim), int32(js.job.ID),
		int64(js.preempts), 0, 0)
	s.resident[victim] = nil
	s.detaches++
	s.beQ = append([]*jobState{js}, s.beQ...)
	return true, nil
}

// activeSlots lists slots with a resident tenant, ascending.
func (s *Server) activeSlots() []int {
	var out []int
	for slot, js := range s.resident {
		if js != nil {
			out = append(out, slot)
		}
	}
	return out
}

// hasSlot reports whether a vacant slot exists or a fresh one can be added.
func (s *Server) hasSlot() bool {
	apps := s.g.Apps()
	for _, app := range apps {
		if app.Vacant() {
			return true
		}
	}
	return len(apps) < gpu.MaxApps
}

// canAdmit reports whether one more tenant fits: a slot, a channel group,
// and at least one SM (free or carvable from a multi-SM resident).
func (s *Server) canAdmit() bool {
	actives := len(s.activeSlots())
	if actives >= maxResident {
		return false
	}
	if !s.hasSlot() {
		return false
	}
	if len(s.g.AliveGroups()) < actives+1 {
		return false
	}
	if len(s.g.FreeSMs()) > 0 {
		return true
	}
	for _, slot := range s.activeSlots() {
		if len(s.g.Apps()[slot].SMs) > 1 {
			return true
		}
	}
	return false
}

// dramLoad is last epoch's DRAM throughput in lines per channel-cycle.
func (s *Server) dramLoad() float64 {
	if len(s.last) == 0 {
		return 0
	}
	var lines uint64
	cycles := uint64(0)
	for _, st := range s.last {
		lines += st.DRAMLines
		cycles = st.Cycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(lines) / float64(cycles) / float64(s.cfg.Sim.NumChannels())
}

// nextCandidate picks the next job to admit under the policy, removing it
// from its queue. nil means no admissible candidate.
func (s *Server) nextCandidate(highLoad bool) *jobState {
	switch s.cfg.Policy {
	case InOrder:
		// One logical FIFO: the earlier arrival of the two queue heads (job
		// IDs are arrival-ordered, so compare IDs). Head-of-line blocks.
		if len(s.lcQ) == 0 && len(s.beQ) == 0 {
			return nil
		}
		if len(s.beQ) == 0 || (len(s.lcQ) > 0 && s.lcQ[0].job.ID < s.beQ[0].job.ID) {
			return s.popLC()
		}
		return s.popBE(0)
	case ClassAware:
		if len(s.lcQ) > 0 {
			return s.popLC()
		}
		if len(s.beQ) > 0 {
			return s.popBE(0)
		}
		return nil
	case LoadAware:
		if len(s.lcQ) > 0 {
			return s.popLC()
		}
		for i, js := range s.beQ {
			if highLoad && js.job.Bench.Class == workload.MemoryBound {
				continue // deferred, not rejected: it stays in place
			}
			return s.popBE(i)
		}
		return nil
	}
	return nil
}

func (s *Server) popLC() *jobState {
	js := s.lcQ[0]
	s.lcQ[0] = nil
	s.lcQ = s.lcQ[1:]
	return js
}

func (s *Server) popBE(i int) *jobState {
	js := s.beQ[i]
	s.beQ = append(s.beQ[:i], s.beQ[i+1:]...)
	return js
}

// groupPlan computes a minimal-movement assignment of the alive channel
// groups to slots (ascending slot order): each slot keeps as many of its
// current groups as its fair share allows (lowest first, so surpluses shed
// highest-first), and deficits fill from the unassigned pool lowest-first.
// A slot with no App yet (the predicted slot of an admission in progress)
// simply draws its whole share from the pool.
//
// Against the obvious alternative — re-splitting the alive list contiguously
// every boundary — this keeps steady-state boundaries free of SetGroups
// churn: reassigning a group costs a TLB/cache flush and a footprint
// migration, and a contiguous re-split moves almost every tenant's groups
// whenever the population changes.
func (s *Server) groupPlan(slots []int) map[int][]int {
	alive := s.g.AliveGroups()
	chunks := splitGroups(alive, len(slots))
	aliveSet := make(map[int]bool, len(alive))
	for _, gr := range alive {
		aliveSet[gr] = true
	}
	apps := s.g.Apps()
	plan := make(map[int][]int, len(slots))
	used := make(map[int]bool, len(alive))
	for i, slot := range slots {
		var kept []int
		if slot < len(apps) {
			for _, gr := range apps[slot].Groups {
				if aliveSet[gr] && !used[gr] && len(kept) < len(chunks[i]) {
					kept = append(kept, gr)
					used[gr] = true
				}
			}
		}
		plan[slot] = kept
	}
	var pool []int
	for _, gr := range alive {
		if !used[gr] {
			pool = append(pool, gr)
		}
	}
	for i, slot := range slots {
		for len(plan[slot]) < len(chunks[i]) {
			plan[slot] = append(plan[slot], pool[0])
			pool = pool[1:]
		}
		sortInts(plan[slot])
	}
	return plan
}

// splitGroups deals groups into k contiguous chunks whose sizes differ by at
// most one (earlier chunks take the remainder).
func splitGroups(groups []int, k int) [][]int {
	out := make([][]int, k)
	base, rem := len(groups)/k, len(groups)%k
	at := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		out[i] = groups[at : at+n]
		at += n
	}
	return out
}

// admit carves a slice for the job and attaches it: channel groups are
// re-split over actives plus the newcomer, and SMs come from the free pool —
// shedding from the richest residents (context-switch semantics) when the
// pool is empty.
func (s *Server) admit(cycle int, js *jobState) error {
	if js.work == 0 {
		ipc, err := s.cfg.Alone.Get(js.job.Bench)
		if err != nil {
			return err
		}
		js.work = uint64(float64(js.job.AloneCycles) * ipc)
		if js.work == 0 {
			js.work = 1
		}
	}

	actives := s.activeSlots()
	// Predict the slot AttachApp will claim so the group split is stable
	// across this boundary's later repartition.
	slot := -1
	for i, app := range s.g.Apps() {
		if app.Vacant() {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(s.g.Apps())
	}
	order := append(append([]int(nil), actives...), slot)
	sortInts(order)
	plan := s.groupPlan(order)
	for _, sl := range order {
		if sl == slot {
			continue
		}
		if err := s.g.SetGroups(uint64(cycle), sl, plan[sl]); err != nil {
			return err
		}
	}
	mine := plan[slot]

	// Fair SM share; carve from the richest residents if the pool is dry.
	fair := s.g.AvailableSMs() / (len(actives) + 1)
	if fair < 1 {
		fair = 1
	}
	free := len(s.g.FreeSMs())
	for free < 1 {
		richest := -1
		for _, sl := range actives {
			if n := len(s.g.Apps()[sl].SMs); n > 1 && (richest < 0 || n > len(s.g.Apps()[richest].SMs)) {
				richest = sl
			}
		}
		if richest < 0 {
			return fmt.Errorf("serve: admission with no carvable SMs")
		}
		free += s.g.ShedSMs(uint64(cycle), richest, 1)
	}
	want := fair
	if want > free {
		want = free
	}

	got, err := s.g.AttachApp(uint64(cycle), gpu.AppSpec{
		Bench:  js.job.Bench,
		SMs:    want,
		Groups: mine,
	}, uint64(js.job.ID))
	if err != nil {
		return err
	}
	if got != slot {
		return fmt.Errorf("serve: predicted slot %d, attach used %d", slot, got)
	}
	s.admitSeq++
	js.slot = slot
	js.admitSeq = s.admitSeq
	js.admitAt = cycle
	if js.start < 0 {
		js.start = cycle
	}
	s.resident[slot] = js
	s.attaches++
	s.g.Tracer().Emit(trace.KAdmit, uint64(cycle), int32(slot), int32(js.job.ID),
		int64(js.job.Class), int64(want), int64(cycle-js.job.Arrival))
	return nil
}

// repartition rebalances the machine over the current residents: channel
// groups re-split evenly, free SMs granted to the under-provisioned, then
// drain/switch moves between residents toward an equal share.
func (s *Server) repartition(cycle int) error {
	actives := s.activeSlots()
	if len(actives) == 0 {
		return nil
	}
	plan := s.groupPlan(actives)
	for _, slot := range actives {
		if err := s.g.SetGroups(uint64(cycle), slot, plan[slot]); err != nil {
			return err
		}
	}

	avail := s.g.AvailableSMs()
	base, rem := avail/len(actives), avail%len(actives)
	apps := s.g.Apps()
	want := make([]int, len(apps))
	for i := range want {
		want[i] = -1
	}
	for i, slot := range actives {
		want[slot] = base
		if i < rem {
			want[slot]++
		}
	}
	// Free pool first.
	for _, slot := range actives {
		app := apps[slot]
		if cur := len(app.SMs) + app.Inbound(); cur < want[slot] {
			s.g.GrantSMs(uint64(cycle), slot, want[slot]-cur)
		}
	}
	// Then drain/switch between residents.
	return s.g.BalanceSMs(uint64(cycle), want)
}

// report folds observed outcomes.
func (s *Server) report() *Report {
	r := &Report{
		Policy:      s.cfg.Policy,
		Cycles:      s.g.Cycle(),
		Epochs:      s.epochs,
		Arrived:     s.nextArr,
		Attaches:    s.attaches,
		Detaches:    s.detaches,
		Preemptions: s.preemptions,
		Rejections:  s.rejections,
	}
	r.Outcomes = make([]metrics.JobOutcome, 0, s.nextArr)
	for _, js := range s.jobs[:s.nextArr] {
		r.Outcomes = append(r.Outcomes, metrics.JobOutcome{
			Class:       js.job.Class,
			Arrival:     js.job.Arrival,
			Start:       js.start,
			Finish:      js.finish,
			AloneCycles: js.job.AloneCycles,
			Rejected:    js.rejected,
			Preemptions: js.preempts,
		})
	}
	r.SLO = metrics.BuildSLOReport(r.Outcomes, metrics.DefaultSLO(), s.cfg.Sim.MaxCycles)
	r.Served = s.served
	if len(s.digestChain) > 0 {
		r.Digest = s.digestChain
		r.SLO.StateDigest = s.digestChain.Final()
	}
	if pm := s.g.PowerManager(); pm != nil {
		r.Energy = s.g.PowerReport()
		if c := s.g.Cycle(); c > 0 {
			r.MeanPower = r.Energy.Total / float64(c) * power.DefaultWattsPerUnit
		}
	}
	return r
}

// sortInts is a tiny insertion sort (order slices are at most MaxApps long).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
