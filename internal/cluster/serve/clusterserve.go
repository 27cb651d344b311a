// Package clusterserve implements cluster-level failover for the online
// serving layer (ISSUE 7): a frontend routes the seeded arrival stream of
// internal/workload across N per-GPU serve.Servers (backend mode), injects
// whole-GPU crashes from a seeded schedule, restores crashed tenants from
// the victim's last periodic checkpoint, re-dispatches them to survivors
// under a per-job retry budget with exponential backoff, and sheds load
// through a tiered brownout controller when the surviving capacity cannot
// absorb the stream.
//
// Determinism: the per-epoch GPU stepping fans out over internal/parallel
// (each backend and its tracer are single-owner per task) while every
// frontend decision — crash processing, completion draining, checkpoints,
// arrivals, brownout transitions, dispatch — happens serially at epoch
// boundaries in a fixed order over index-ordered state. Identical seeds
// therefore produce byte-identical merged traces and identical reports at
// any -parallel worker count, with fast-forward on or off.
//
// Honest accounting: a crash rolls every tenant of the victim back to its
// last checkpointed progress; the discarded service (in alone-cycles) is
// summed into SLOReport.LostWork, downtime into Availability, and the
// crash-to-redispatch interval into MTTRCycles. No job is ever silently
// dropped — every arrival ends completed, rejected, or shed with a reason.
package clusterserve

import (
	"fmt"
	"sort"

	"ugpu/internal/config"
	"ugpu/internal/digest"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/parallel"
	"ugpu/internal/power"
	"ugpu/internal/serve"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// RelaxFactor is the brownout tier-2 LC target multiplier: completions
// under tier >= 2 are judged against RelaxFactor x the LC slowdown target.
const RelaxFactor = 2.0

// retryBudget bounds re-dispatch attempts per crash-recovered job;
// exhaustion sheds the job with ShedRetryExhausted.
const retryBudget = 3

// Config parameterises one cluster serving run.
type Config struct {
	// GPUs is the cluster size (default 4).
	GPUs int
	// Sim/Opt configure each backend GPU identically.
	Sim config.Config
	Opt gpu.Options
	// Arrivals generates the cluster-wide request stream (ignored when Jobs
	// is set); Seed seeds it.
	Arrivals workload.ArrivalSpec
	Seed     int64
	// Jobs, when non-nil, replays an explicit schedule instead of Arrivals.
	Jobs []workload.Job
	// QueueCap configures each backend (serve.Config); every backend
	// admits in arrival order.
	QueueCap int

	// Crashes is the number of whole-GPU crashes to inject (schedule seeded
	// by Seed via fault.PlanGPUCrashes, clamped to GPUs-1 so a survivor
	// remains). Every alive backend is checkpointed every two epochs, and
	// crashed tenants resume from the last checkpoint.
	Crashes int
	// CrashPlan, when non-nil, replays an explicit crash schedule instead
	// of Crashes (tests; may kill every GPU).
	CrashPlan []fault.Crash
	// Brownout enables the tiered overload controller: tier 1 sheds new
	// best-effort arrivals, tier 2 additionally relaxes the LC target by
	// RelaxFactor, tier 3 circuit-breaks all arrivals until the frontend
	// queue delay recovers. Tier 1 trips when the frontend mean queue delay
	// reaches 2 x EpochCycles, tier t at twice tier t-1's delay; exit is
	// hysteretic at half the tier's entry threshold.
	Brownout bool

	// Gray is the seeded gray-degradation spec (fault.ParseGraySpec): GPUs
	// that keep answering but run slow for a bounded window. The zero spec
	// injects nothing. Seed also seeds the window planner; GrayPlan, when
	// non-nil, replays an explicit schedule instead (tests).
	Gray     fault.GraySpec
	GrayPlan []fault.GrayFault
	// Health, when non-nil, enables the gray-failure health scorer and
	// quarantine state machine (health.go). Without it the frontend is
	// blind to gray degradation — the "do nothing" comparison arm.
	Health *HealthConfig
	// GrayAsCrash makes a quarantine conviction kill the GPU like a
	// fail-stop crash instead of draining it — the "treat as crash"
	// comparison arm. Requires Health.
	GrayAsCrash bool

	// PowerCap is the cluster-wide power budget in watts (0 = uncapped),
	// arbitrated across alive GPUs each boundary: every survivor gets an
	// equal share, and headroom measured on under-consuming GPUs is
	// re-granted to over-consumers. Effective only when Opt carries a power
	// config (each backend's governor enforces its assigned share).
	PowerCap float64

	// Parallel bounds the worker pool stepping the backends (0 =
	// GOMAXPROCS; 1 = serial). Reports and traces are identical for any
	// value.
	Parallel int
	// Alone supplies solo-IPC references shared by every backend; nil
	// builds one from Sim/Opt.
	Alone *metrics.AloneIPC
	// Trace receives frontend events (crash, checkpoint, redispatch,
	// brownout, shed); nil disables. BackendTracers, when non-nil, must
	// have one (possibly nil) tracer per GPU and receives each backend's
	// device/serving stream.
	Trace          *trace.Tracer
	BackendTracers []*trace.Tracer
}

// Validate checks the cluster knobs, returning a *config.FieldError naming
// the first violated constraint (the backend serve.Config and simulator
// geometry are validated through serve.Config.Validate, then the arrival
// spec when Jobs is nil), or nil.
func (c Config) Validate() error {
	if c.GPUs < 0 {
		return &config.FieldError{Field: "clusterserve.GPUs", Value: c.GPUs,
			Reason: "must be >= 0 (0 means the default of 4)"}
	}
	if c.Crashes < 0 {
		return &config.FieldError{Field: "clusterserve.Crashes", Value: c.Crashes,
			Reason: "must be >= 0"}
	}
	if c.PowerCap < 0 {
		return &config.FieldError{Field: "clusterserve.PowerCap", Value: int(c.PowerCap),
			Reason: "must be >= 0 watts (0 means uncapped)"}
	}
	if c.Gray.GPUs < 0 || c.Gray.SMStep < 0 || c.Gray.HBMStep < 0 {
		return &config.FieldError{Field: "clusterserve.Gray", Value: c.Gray.GPUs,
			Reason: "victim count and P-state depths must be >= 0"}
	}
	if c.Gray.NoCDrop < 0 || c.Gray.NoCDrop >= 1 || c.Gray.NoCDrop != c.Gray.NoCDrop {
		return &config.FieldError{Field: "clusterserve.Gray.NoCDrop", Value: int(c.Gray.NoCDrop * 1e6),
			Reason: "must be a probability in [0,1) (value shown in ppm)"}
	}
	if c.Gray.Window < 0 || c.Gray.Window > 1 || c.Gray.Window != c.Gray.Window {
		return &config.FieldError{Field: "clusterserve.Gray.Window", Value: int(c.Gray.Window * 100),
			Reason: "must be a horizon fraction in (0,1] or 0 for the default (value shown in percent)"}
	}
	if c.GrayAsCrash && c.Health == nil {
		return &config.FieldError{Field: "clusterserve.GrayAsCrash", Value: 1,
			Reason: "requires Health (the conviction that triggers the crash comes from the scorer)"}
	}
	if c.BackendTracers != nil && len(c.BackendTracers) != c.effectiveGPUs() {
		return &config.FieldError{Field: "clusterserve.BackendTracers", Value: len(c.BackendTracers),
			Reason: fmt.Sprintf("must have one entry per GPU (%d)", c.effectiveGPUs())}
	}
	if err := c.backendConfig(nil).Validate(); err != nil {
		return err
	}
	if c.Jobs == nil {
		return c.Arrivals.Validate()
	}
	return nil
}

func (c Config) effectiveGPUs() int {
	if c.GPUs <= 0 {
		return 4
	}
	return c.GPUs
}

// backendConfig is the serve.Config every backend is built from. The empty
// non-nil Jobs slice selects backend mode (arrivals only via Offer); the
// frontend owns the real schedule.
func (c Config) backendConfig(tr *trace.Tracer) serve.Config {
	opt := c.Opt
	opt.Trace = tr
	return serve.Config{
		Sim:      c.Sim,
		Opt:      opt,
		Arrivals: c.Arrivals,
		Seed:     c.Seed,
		Jobs:     []workload.Job{},
		QueueCap: c.QueueCap,
		Alone:    c.Alone,
		PowerCap: c.PowerCap / float64(c.effectiveGPUs()),
	}
}

func (c *Config) withDefaults() {
	if c.GPUs <= 0 {
		c.GPUs = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Alone == nil {
		c.Alone = metrics.NewAloneIPC(c.Sim, c.Opt)
	}
}

// AllDeadError is the terminal failure of a run that lost every GPU: the
// frontend stops stepping, but Run still returns the report accumulated to
// the point of death (availability, MTTR, lost work are all accounted).
type AllDeadError struct {
	Cycle uint64 // cycle of the crash that killed the last GPU
}

func (e *AllDeadError) Error() string {
	return fmt.Sprintf("clusterserve: all GPUs dead at cycle %d", e.Cycle)
}

// trackState is one job's position in the frontend state machine.
type trackState uint8

const (
	tsPending    trackState = iota // not yet arrived
	tsQueued                       // in a frontend class queue
	tsDispatched                   // offered to a backend (resident or queued there)
	tsCompleted
	tsRejected
	tsShed
)

// track is the frontend's view of one job: its durable (checkpointed)
// progress and its routing state. On a crash the durable fields are exactly
// what survives.
type track struct {
	job   workload.Job
	state trackState
	gpu   int // backend index while dispatched, else -1

	// Durable progress: refreshed from checkpoints and completions, never
	// from a crashed GPU's live state.
	served   uint64
	work     uint64
	start    int
	preempts int

	finish    int
	shed      metrics.ShedReason
	relax     float64 // LC target multiplier in force at completion
	retries   int
	notBefore uint64 // backoff: no re-dispatch before this cycle
	crashOf   int    // crashLog index this job is recovering from, -1
	enqueued  int    // cycle it last entered a frontend queue
	// drained marks a job proactively evicted from a quarantined GPU: it
	// keeps front-of-queue priority on its next dispatch (it already beat
	// the arrivals behind it) without being charged a crash retry.
	drained bool
}

// Frontend routes the arrival stream across the backends. Build with New,
// run with Run.
type Frontend struct {
	cfg      Config
	backends []*serve.Server
	alive    []bool
	nAlive   int

	crashPlan []fault.Crash
	nextCrash int
	// retryCap is retryBudget, lowered only by tests that exhaust it on a
	// small cluster.
	retryCap int

	tracks  []*track
	nextArr int
	lcQ     []*track
	beQ     []*track

	lastCkpt int
	// ckptEvery is the cycle interval between periodic checkpoints: two
	// epochs, raised only by tests. Shorter intervals lose less work per
	// crash at more snapshot cost.
	ckptEvery int

	tier      int
	belowFor  int
	brownouts int
	maxTier   int

	crashLog   []metrics.CrashOutcome
	recovering []int // per crash: jobs still awaiting re-dispatch
	lostWork   float64

	// Gray-failure state (health.go): the degradation schedule, the index
	// of the window currently applied per GPU (-1 none), the scorer state
	// (nil when Health is nil), the transition log, and the alone-cycles of
	// live progress quarantine drains preserved.
	grayPlan  []fault.GrayFault
	grayCur   []int
	health    []backendHealth
	healthCfg HealthConfig
	healthLog []HealthTransition
	graySaved float64
	// maxSuspects caps how many backends may sit outside the healthy state
	// (suspect, quarantined, or probing) on soft evidence — progress ratios
	// and queue growth — at once: max(1, GPUs/4). Closing a GPU to LC work
	// shifts its load onto the survivors, which depresses *their* progress
	// scores; without a cap one true conviction can cascade into
	// quarantining the cluster. Hard evidence — a NACK burst, something
	// healthy hardware cannot emit — bypasses the cap. Tests raise it.
	maxSuspects int

	caps []float64 // per-GPU power budget currently assigned (watts)

	epochs   int
	shed     int
	rejected int

	// Cluster state digest chain (digest.go), recorded every
	// Sim.DigestEvery epochs.
	digestChain digest.Chain
}

// New validates the configuration, generates the cluster-wide arrival
// schedule and crash plan, and builds the backends.
func New(cfg Config) (*Frontend, error) {
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
	f := &Frontend{cfg: cfg, nAlive: cfg.GPUs, retryCap: retryBudget, ckptEvery: 2 * cfg.Sim.EpochCycles}
	f.backends = make([]*serve.Server, cfg.GPUs)
	f.alive = make([]bool, cfg.GPUs)
	for i := range f.backends {
		var tr *trace.Tracer
		if cfg.BackendTracers != nil {
			tr = cfg.BackendTracers[i]
		}
		bcfg := cfg.backendConfig(tr)
		if !bcfg.Opt.Faults.Empty() {
			// Intra-GPU fault injection composes with whole-GPU crashes;
			// offset the seed so each backend degrades independently.
			bcfg.Opt.FaultSeed += int64(i)
		}
		b, err := serve.New(bcfg)
		if err != nil {
			return nil, fmt.Errorf("clusterserve: backend %d: %w", i, err)
		}
		f.backends[i] = b
		f.alive[i] = true
	}
	f.tracks = make([]*track, len(jobs))
	for i, j := range jobs {
		f.tracks[i] = &track{job: j, gpu: -1, start: -1, finish: -1, crashOf: -1}
	}
	f.caps = make([]float64, cfg.GPUs)
	if cfg.PowerCap > 0 {
		for i := range f.caps {
			f.caps[i] = cfg.PowerCap / float64(cfg.GPUs)
		}
	}
	f.crashPlan = cfg.CrashPlan
	if f.crashPlan == nil && cfg.Crashes > 0 {
		f.crashPlan = fault.PlanGPUCrashes(cfg.Seed, cfg.GPUs, cfg.Crashes,
			uint64(cfg.Sim.MaxCycles))
	}
	f.grayPlan = cfg.GrayPlan
	if f.grayPlan == nil && !cfg.Gray.Empty() {
		f.grayPlan = fault.PlanGrayFaults(cfg.Seed, cfg.GPUs, cfg.Gray,
			uint64(cfg.Sim.MaxCycles))
	}
	f.grayCur = make([]int, cfg.GPUs)
	for i := range f.grayCur {
		f.grayCur[i] = -1
	}
	if cfg.Health != nil {
		f.healthCfg = cfg.Health.withDefaults()
		f.maxSuspects = max(1, cfg.GPUs/4)
		f.health = make([]backendHealth, cfg.GPUs)
		for i := range f.health {
			f.health[i].quarStart = -1
		}
	}
	return f, nil
}

// Report is a cluster serving run's outcome.
type Report struct {
	GPUs   int
	Cycles uint64
	Epochs int

	Arrived   int
	Completed int
	Rejected  int
	Shed      int

	// Brownouts counts tier transitions; MaxTier is the deepest tier
	// reached (0 = the controller never engaged).
	Brownouts int
	MaxTier   int

	// Crashes is the crash log with per-crash recovery points.
	Crashes []metrics.CrashOutcome
	// LostWork is the alone-cycles of progress rolled back by crashes.
	LostWork float64

	// Outcomes holds one entry per observed arrival, in arrival order.
	Outcomes []metrics.JobOutcome
	// SLO folds Outcomes plus the failover stats (availability, MTTR,
	// lost work).
	SLO metrics.SLOReport

	// Served is the total instructions credited across every backend
	// (crashed GPUs count up to their crash).
	Served uint64
	// Energy is the summed DVFS energy breakdown across every backend (zero
	// value when the run had no power config).
	Energy power.Breakdown
	// MeanPower is the cluster mean power in watts over the run.
	MeanPower float64

	// Digest is the cluster-level per-epoch digest chain and BackendDigests
	// the per-GPU chains (crashed GPUs keep theirs up to the crash); all
	// empty when Sim.DigestEvery is 0. The cluster chain's final link also
	// lands in SLO.StateDigest.
	Digest         digest.Chain
	BackendDigests []digest.Chain
}

// Run executes the cluster serve loop to the horizon. On total cluster
// death it returns the report accumulated so far alongside *AllDeadError.
func (f *Frontend) Run() (*Report, error) {
	horizon := uint64(f.cfg.Sim.MaxCycles)
	epoch := uint64(f.cfg.Sim.EpochCycles)
	runner := parallel.New(f.cfg.Parallel)
	cycle := uint64(0)
	for cycle < horizon {
		step := epoch
		if rem := horizon - cycle; rem < step {
			step = rem
		}
		// Crashes due in this epoch fire before the step: the victim never
		// executes another cycle.
		f.processCrashes(cycle, cycle+step)
		if f.nAlive == 0 {
			return f.report(cycle), &AllDeadError{Cycle: cycle}
		}
		idx := f.aliveIdx()
		if err := runner.ForEach(len(idx), func(k int) error {
			return f.backends[idx[k]].StepEpoch(step)
		}); err != nil {
			return nil, err
		}
		cycle += step
		if err := f.boundary(int(cycle)); err != nil {
			return nil, err
		}
		f.epochs++
		f.maybeDigest(cycle)
	}
	return f.report(cycle), nil
}

// aliveIdx lists alive backend indices, ascending.
func (f *Frontend) aliveIdx() []int {
	var out []int
	for i, ok := range f.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// boundary is the frontend's serial per-epoch pass. Order is fixed for
// determinism: completions, checkpoint, gray windows, health scoring (which
// may drain a quarantined GPU into the LC queue, so it precedes dispatch),
// arrivals, brownout, dispatch, power arbitration, invariants.
func (f *Frontend) boundary(cycle int) error {
	f.drainCompletions(cycle)
	f.maybeCheckpoint(cycle)
	f.applyGray(cycle)
	if err := f.updateHealth(cycle); err != nil {
		return err
	}
	f.admitArrivals(cycle)
	f.updateBrownout(cycle)
	f.dispatch(cycle)
	f.arbitratePower(cycle)
	if err := f.checkHealthInvariants(cycle); err != nil {
		return err
	}
	return f.checkInvariants(cycle)
}

// arbitratePower redistributes the cluster power budget across alive GPUs:
// each gets an equal share of the cap, then GPUs measured well under their
// share donate half their headroom to a pool split equally among GPUs at or
// above the share. Dead GPUs draw nothing, so survivors inherit their
// budget. Every per-GPU cap change emits an EventCap KPower on the frontend
// tracer; iteration is index-ordered, so the floating-point sums are
// deterministic.
func (f *Frontend) arbitratePower(cycle int) {
	if f.cfg.PowerCap <= 0 {
		return
	}
	idx := f.aliveIdx()
	if len(idx) == 0 {
		return
	}
	share := f.cfg.PowerCap / float64(len(idx))
	var over []int
	var pool float64
	next := make(map[int]float64, len(idx))
	for _, i := range idx {
		p := f.backends[i].LastPower()
		if p < share*0.9 {
			give := (share - p) / 2
			next[i] = share - give
			pool += give
		} else {
			next[i] = share
			over = append(over, i)
		}
	}
	if len(over) == 0 {
		// Nobody needs the headroom: leave every survivor at its full share.
		for _, i := range idx {
			next[i] = share
		}
	} else {
		bonus := pool / float64(len(over))
		for _, i := range over {
			next[i] += bonus
		}
	}
	for _, i := range idx {
		if next[i] == f.caps[i] {
			continue
		}
		f.cfg.Trace.Emit(trace.KPower, uint64(cycle), -1, int32(i),
			int64(power.EventCap), int64(f.caps[i]+0.5), int64(next[i]+0.5))
		f.caps[i] = next[i]
		f.backends[i].SetPowerCap(next[i])
	}
}

// drainCompletions collects finished jobs from alive backends in index
// order and folds their durable outcome into the tracks.
func (f *Frontend) drainCompletions(cycle int) {
	for _, i := range f.aliveIdx() {
		for _, c := range f.backends[i].TakeCompleted() {
			tk := f.tracks[c.JobID]
			tk.state = tsCompleted
			tk.gpu = -1
			tk.start = c.Start
			tk.finish = c.Finish
			tk.served = c.Served
			tk.preempts = c.Preempts
			if f.cfg.Brownout && f.tier >= 2 {
				tk.relax = RelaxFactor
			}
		}
	}
}

// maybeCheckpoint snapshots every alive backend when the checkpoint
// interval has elapsed, refreshing each tenant's durable progress. The
// snapshot is pure in-memory state; "persistence" is the frontend keeping
// it in the tracks.
func (f *Frontend) maybeCheckpoint(cycle int) {
	if cycle-f.lastCkpt < f.ckptEvery {
		return
	}
	f.lastCkpt = cycle
	for _, i := range f.aliveIdx() {
		snap := f.backends[i].Snapshot()
		var served uint64
		for _, ts := range snap {
			tk := f.tracks[ts.JobID]
			tk.served = ts.Served
			tk.work = ts.Work
			tk.start = ts.Start
			tk.preempts = ts.Preempts
			served += ts.Served
		}
		f.cfg.Trace.Emit(trace.KCheckpoint, uint64(cycle), -1, int32(i),
			int64(len(snap)), int64(served), 0)
	}
}

// admitArrivals moves due arrivals into the frontend class queues, shedding
// under brownout and rejecting when the frontend queue is saturated.
func (f *Frontend) admitArrivals(cycle int) {
	cap := f.cfg.QueueCap * f.cfg.GPUs
	for f.nextArr < len(f.tracks) && f.tracks[f.nextArr].job.Arrival <= cycle {
		tk := f.tracks[f.nextArr]
		f.nextArr++
		switch {
		case f.cfg.Brownout && f.tier >= 3:
			f.shedJob(cycle, tk, metrics.ShedCircuitBreak)
		case f.cfg.Brownout && f.tier >= 1 && tk.job.Class == workload.BestEffort:
			f.shedJob(cycle, tk, metrics.ShedBrownoutBE)
		default:
			q := &f.lcQ
			if tk.job.Class == workload.BestEffort {
				q = &f.beQ
			}
			if len(*q) >= cap {
				tk.state = tsRejected
				f.rejected++
				f.cfg.Trace.Emit(trace.KReject, uint64(cycle), -1, int32(tk.job.ID),
					int64(tk.job.Class), 0, 0)
				continue
			}
			tk.state = tsQueued
			tk.enqueued = cycle
			*q = append(*q, tk)
		}
	}
}

// shedJob drops a job with a reason (brownout / circuit-break / retry
// exhaustion) and settles any crash-recovery bookkeeping.
func (f *Frontend) shedJob(cycle int, tk *track, why metrics.ShedReason) {
	tk.state = tsShed
	tk.shed = why
	tk.gpu = -1
	f.shed++
	f.cfg.Trace.Emit(trace.KShed, uint64(cycle), -1, int32(tk.job.ID),
		int64(tk.job.Class), int64(why), 0)
	f.settleRecovery(cycle, tk)
}

// settleRecovery marks one crash-recovered job as handled (re-dispatched or
// shed) and closes the crash's MTTR window when it was the last one.
func (f *Frontend) settleRecovery(cycle int, tk *track) {
	if tk.crashOf < 0 {
		return
	}
	ci := tk.crashOf
	tk.crashOf = -1
	f.recovering[ci]--
	if f.recovering[ci] == 0 && f.crashLog[ci].RecoveredAt < 0 {
		f.crashLog[ci].RecoveredAt = cycle
	}
}

// updateBrownout moves the overload tier by at most one step per boundary,
// driven by the mean wait of frontend-queued jobs. Entry to tier t needs
// delay >= (2 x EpochCycles) << (t-1); exit is hysteretic at half the
// current tier's entry threshold, sustained for three boundaries.
func (f *Frontend) updateBrownout(cycle int) {
	if !f.cfg.Brownout {
		return
	}
	trip := int64(2 * f.cfg.Sim.EpochCycles)
	delay := f.queueDelay(cycle)
	if f.tier < 3 && delay >= float64(trip<<uint(f.tier)) {
		f.setTier(cycle, f.tier+1, delay)
		f.belowFor = 0
		return
	}
	if f.tier > 0 && delay < float64(trip<<uint(f.tier-1))/2 {
		f.belowFor++
		if f.belowFor >= 3 {
			f.setTier(cycle, f.tier-1, delay)
			f.belowFor = 0
		}
		return
	}
	f.belowFor = 0
}

func (f *Frontend) setTier(cycle, tier int, delay float64) {
	f.cfg.Trace.Emit(trace.KBrownout, uint64(cycle), -1, -1,
		int64(f.tier), int64(tier), int64(delay))
	f.tier = tier
	f.brownouts++
	if tier > f.maxTier {
		f.maxTier = tier
	}
}

// queueDelay is the mean wait (cycles since enqueue) across both frontend
// queues; empty queues mean zero delay.
func (f *Frontend) queueDelay(cycle int) float64 {
	n := len(f.lcQ) + len(f.beQ)
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, tk := range f.lcQ {
		sum += float64(cycle - tk.enqueued)
	}
	for _, tk := range f.beQ {
		sum += float64(cycle - tk.enqueued)
	}
	return sum / float64(n)
}

// dispatch drains the frontend queues (LC first) onto the least-loaded
// alive backends. A job in backoff is skipped in place; a job no backend
// can take blocks the rest of its class queue (backpressure).
func (f *Frontend) dispatch(cycle int) {
	f.lcQ = f.dispatchQueue(cycle, f.lcQ)
	f.beQ = f.dispatchQueue(cycle, f.beQ)
}

func (f *Frontend) dispatchQueue(cycle int, q []*track) []*track {
	var keep []*track
	for qi, tk := range q {
		if tk.notBefore > uint64(cycle) {
			keep = append(keep, tk) // backing off: skip, don't block
			continue
		}
		target := f.placeJob(cycle, tk)
		if target < 0 {
			// Nothing can take it: keep it and everything behind it.
			keep = append(keep, q[qi:]...)
			return keep
		}
	}
	return keep
}

// placeJob offers one job to alive backends in (load, index) order and
// returns the accepting backend, or -1 when every queue is full.
func (f *Frontend) placeJob(cycle int, tk *track) int {
	idx := f.aliveIdx()
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := f.backends[idx[a]].Load(), f.backends[idx[b]].Load()
		if la != lb {
			return la < lb
		}
		return idx[a] < idx[b]
	})
	for _, i := range idx {
		// Suspect and quarantined GPUs take no new latency-critical work;
		// best-effort may still land anywhere alive (relaxed expectations).
		if tk.job.Class == workload.LatencyCritical && !f.lcEligible(i) {
			continue
		}
		r := serve.Resume{
			Job:      tk.job,
			Served:   tk.served,
			Work:     tk.work,
			Preempts: tk.preempts,
			Start:    tk.start,
		}
		if !f.backends[i].Offer(cycle, r, tk.retries > 0 || tk.drained) {
			continue
		}
		tk.drained = false
		tk.state = tsDispatched
		tk.gpu = i
		if tk.retries > 0 {
			victim := int32(-1)
			if tk.crashOf >= 0 {
				victim = int32(f.crashLog[tk.crashOf].GPU)
			}
			f.cfg.Trace.Emit(trace.KRedispatch, uint64(cycle), victim, int32(tk.job.ID),
				int64(victim), int64(i), int64(tk.retries))
		}
		f.settleRecovery(cycle, tk)
		return i
	}
	return -1
}

// checkInvariants enforces the cluster conservation laws every boundary:
// every arrived job is in exactly one terminal or live state, dispatched
// jobs sit on exactly one alive backend, and the backends hold exactly the
// jobs the frontend thinks they do.
func (f *Frontend) checkInvariants(cycle int) error {
	queued, dispatched, completed, rejected, shed := 0, 0, 0, 0, 0
	for _, tk := range f.tracks[:f.nextArr] {
		switch tk.state {
		case tsQueued:
			queued++
		case tsDispatched:
			dispatched++
			if tk.gpu < 0 || tk.gpu >= len(f.backends) {
				return fmt.Errorf("clusterserve: cycle %d: job %d dispatched to bogus GPU %d",
					cycle, tk.job.ID, tk.gpu)
			}
			if !f.alive[tk.gpu] {
				return fmt.Errorf("clusterserve: cycle %d: job %d resident on dead GPU %d",
					cycle, tk.job.ID, tk.gpu)
			}
		case tsCompleted:
			completed++
		case tsRejected:
			rejected++
		case tsShed:
			shed++
		default:
			return fmt.Errorf("clusterserve: cycle %d: arrived job %d in state %d",
				cycle, tk.job.ID, tk.state)
		}
	}
	if queued != len(f.lcQ)+len(f.beQ) {
		return fmt.Errorf("clusterserve: cycle %d: %d tracks queued but %d jobs in queues",
			cycle, queued, len(f.lcQ)+len(f.beQ))
	}
	if sum := queued + dispatched + completed + rejected + shed; sum != f.nextArr {
		return fmt.Errorf("clusterserve: cycle %d: job conservation violated: %d states != %d arrivals",
			cycle, sum, f.nextArr)
	}
	load := 0
	for _, i := range f.aliveIdx() {
		load += f.backends[i].Load()
	}
	if load != dispatched {
		return fmt.Errorf("clusterserve: cycle %d: backends hold %d jobs, frontend dispatched %d (lost or double-resident job)",
			cycle, load, dispatched)
	}
	return nil
}

// report folds the tracks and crash log into the final report.
func (f *Frontend) report(cycle uint64) *Report {
	r := &Report{
		GPUs:      f.cfg.GPUs,
		Cycles:    cycle,
		Epochs:    f.epochs,
		Arrived:   f.nextArr,
		Rejected:  f.rejected,
		Shed:      f.shed,
		Brownouts: f.brownouts,
		MaxTier:   f.maxTier,
		Crashes:   append([]metrics.CrashOutcome(nil), f.crashLog...),
		LostWork:  f.lostWork,
	}
	r.Outcomes = make([]metrics.JobOutcome, 0, f.nextArr)
	for _, tk := range f.tracks[:f.nextArr] {
		if tk.state == tsCompleted {
			r.Completed++
		}
		r.Outcomes = append(r.Outcomes, metrics.JobOutcome{
			Class:       tk.job.Class,
			Arrival:     tk.job.Arrival,
			Start:       tk.start,
			Finish:      tk.finish,
			AloneCycles: tk.job.AloneCycles,
			Rejected:    tk.state == tsRejected,
			Preemptions: tk.preempts,
			Shed:        tk.shed,
			LCRelax:     tk.relax,
		})
	}
	alive := uint64(0)
	crashed := make(map[int]uint64, len(f.crashLog))
	for _, c := range f.crashLog {
		crashed[c.GPU] = uint64(c.Cycle)
	}
	for i := 0; i < f.cfg.GPUs; i++ {
		if at, dead := crashed[i]; dead {
			alive += at
		} else {
			alive += cycle
		}
	}
	for _, b := range f.backends {
		r.Served += b.Served()
		e := b.GPU().PowerReport()
		r.Energy.Core += e.Core
		r.Energy.HBM += e.HBM
		r.Energy.Total += e.Total
		r.Energy.Transitions += e.Transitions
	}
	if pm := f.backends[0].GPU().PowerManager(); pm != nil && cycle > 0 {
		r.MeanPower = r.Energy.Total / float64(cycle) * power.DefaultWattsPerUnit
	}
	fo := metrics.FailoverStats{
		GPUs:           f.cfg.GPUs,
		Crashes:        r.Crashes,
		AliveGPUCycles: alive,
		LostWork:       f.lostWork,
	}
	if f.health != nil || len(f.grayPlan) > 0 {
		fo.GrayStats = f.grayStats(cycle)
	}
	r.SLO = metrics.BuildSLOReport(r.Outcomes, metrics.DefaultSLO(), f.cfg.Sim.MaxCycles, fo)
	if len(f.digestChain) > 0 {
		r.Digest = f.digestChain
		r.BackendDigests = make([]digest.Chain, len(f.backends))
		for i, b := range f.backends {
			r.BackendDigests[i] = b.DigestChain()
		}
		r.SLO.StateDigest = f.digestChain.Final()
	}
	return r
}
