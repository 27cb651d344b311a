package core

import (
	"fmt"

	"ugpu/internal/config"
	"ugpu/internal/digest"
	"ugpu/internal/dram"
	"ugpu/internal/gpu"
	"ugpu/internal/power"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// FaultSummary aggregates injected faults and the degraded-mode response
// over one run. PerAppLoss is the per-application relative throughput loss:
// 1 - meanIPC(epochs fully after the first fault) / meanIPC(epochs fully
// before it); nil when no discrete fault struck or no clean epochs exist on
// both sides.
type FaultSummary struct {
	SMFails    int
	GroupFails int
	BankFaults int
	NoCDrops   uint64
	MigNACKs   uint64

	EmergencyMigrations uint64
	MigFailures         uint64
	SpillRemaps         uint64

	FirstFaultCycle uint64
	PerAppLoss      []float64
}

// AppResult is one application's outcome over a run.
type AppResult struct {
	Abbr         string
	Instructions uint64
	IPC          float64
}

// Result summarises a policy run over one workload mix.
type Result struct {
	Mix    string
	Policy string
	Cycles uint64
	Apps   []AppResult

	Epochs        int
	Reallocations int

	// Reallocation overhead accounting (Figure 12a).
	DataMigCycles uint64
	SMMigCycles   uint64
	MigFracMean   float64 // mean per-epoch fraction of overhead cycles
	MigFracWorst  float64

	// Mechanism counters for energy and analysis.
	HBM             dram.ChannelStats
	SMActiveCycles  uint64
	PageMigrations  uint64
	FaultMigrations uint64

	// Final is the partition at the end of the run (used to derive
	// UGPU-offline targets for Figure 10).
	Final []Target

	// Faults summarises injected faults and the degraded-mode response
	// (zero value when fault injection is disabled).
	Faults FaultSummary

	// Power is the DVFS-scaled energy breakdown (zero value when the policy
	// runs without a power config).
	Power power.Breakdown

	// Digest is the per-epoch machine-state digest chain, recorded every
	// Config.DigestEvery epochs (empty when DigestEvery is 0). Two runs of
	// the same workload in different execution modes must produce identical
	// chains; digest.FirstDivergence localizes the first epoch where they
	// do not.
	Digest digest.Chain
}

// TotalIPC sums per-application IPC (raw throughput).
func (r Result) TotalIPC() float64 {
	t := 0.0
	for _, a := range r.Apps {
		t += a.IPC
	}
	return t
}

// Runner executes one policy over one mix: it builds the GPU with the
// policy's initial partition, then steps epochs, profiling and applying the
// policy's reallocation decisions.
type Runner struct {
	Cfg config.Config
	Pol Policy
	Mix workload.Mix
	G   *gpu.GPU

	// PerturbFn, when non-nil, is invoked on the GPU right after epoch
	// index PerturbEpoch completes (before that epoch's digest is taken).
	// It is a test hook: the bisector's acceptance test uses it to inject a
	// known single-component divergence at a known epoch and prove the
	// harness finds exactly that epoch and component.
	PerturbFn    func(*gpu.GPU)
	PerturbEpoch int

	groups [][]int // concrete channel-group ids per app (disjoint mode)
	shared bool    // MPS-style: group sets overlap, never reallocated

	// Incremental run state, owned by Step.
	started   bool
	res       Result
	recs      []epochRec
	digestRec digest.Recorder
}

// epochRec is one epoch's per-app IPC record, kept for the fault-loss
// summary.
type epochRec struct {
	start, end uint64
	ipc        []float64
}

// NewRunner builds the GPU for the mix under the policy's initial partition.
// A malformed cfg is rejected as a *config.FieldError before the policy
// sees it. So is a power config with more than one SM or HBM state: a
// closed-world run meters energy but governs nothing (the DVFS governor
// steps only in the serving layer), so its domains would sit at nominal.
func NewRunner(cfg config.Config, pol Policy, mix workload.Mix) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(mix.Apps)
	targets, err := pol.Initial(n, cfg)
	if err != nil {
		return nil, err
	}
	sumGroups, sumSMs := 0, 0
	for _, t := range targets {
		sumGroups += t.Groups
		sumSMs += t.SMs
	}
	if sumSMs > cfg.NumSMs {
		return nil, fmt.Errorf("core: initial partition wants %d SMs, have %d", sumSMs, cfg.NumSMs)
	}
	r := &Runner{Cfg: cfg, Pol: pol, Mix: mix, shared: sumGroups > cfg.ChannelGroups()}
	specs := make([]gpu.AppSpec, n)
	r.groups = make([][]int, n)
	next := 0
	for i, t := range targets {
		var ids []int
		if r.shared {
			for g := 0; g < t.Groups; g++ {
				ids = append(ids, g)
			}
		} else {
			for g := 0; g < t.Groups; g++ {
				ids = append(ids, next)
				next++
			}
		}
		r.groups[i] = ids
		specs[i] = gpu.AppSpec{Bench: mix.Apps[i], SMs: t.SMs, Groups: ids}
	}
	g, err := gpu.New(cfg, specs, pol.Options())
	if err != nil {
		return nil, err
	}
	if pm := g.PowerManager(); pm != nil {
		if sm, hbm := len(pm.SMStates()), len(pm.HBMStates()); sm > 1 || hbm > 1 {
			return nil, &config.FieldError{Field: "Options.Power",
				Value:  fmt.Sprintf("%d SM and %d HBM states", sm, hbm),
				Reason: "a closed-world run only meters energy, so each table must hold the nominal state alone"}
		}
	}
	r.G = g
	return r, nil
}

// clampTargets degrades fault-oblivious policy targets to the surviving
// hardware: total SMs at most AvailableSMs and total groups at most the
// alive-group count, shrinking the best-provisioned apps first while every
// app keeps at least one of each. A no-op on a healthy machine.
func (r *Runner) clampTargets(targets []Target) []Target {
	availSM := r.G.AvailableSMs()
	aliveGr := len(r.G.AliveGroups())
	out := append([]Target(nil), targets...)
	sumSM, sumGr := 0, 0
	for _, t := range out {
		sumSM += t.SMs
		sumGr += t.Groups
	}
	for sumSM > availSM {
		big := 0
		for i := range out {
			if out[i].SMs > out[big].SMs {
				big = i
			}
		}
		if out[big].SMs <= 1 {
			break
		}
		out[big].SMs--
		sumSM--
	}
	for sumGr > aliveGr {
		big := 0
		for i := range out {
			if out[i].Groups > out[big].Groups {
				big = i
			}
		}
		if out[big].Groups <= 1 {
			break
		}
		out[big].Groups--
		sumGr--
	}
	return out
}

// applyTargets converts group counts into concrete group-id moves and
// applies the partition.
func (r *Runner) applyTargets(cycle uint64, targets []Target) error {
	if r.shared {
		return fmt.Errorf("core: policy %s reallocates groups in shared mode", r.Pol.Name())
	}
	// Refresh the group-id mirror from the GPU's actual ownership: fault
	// repair (faults.go) reassigns groups outside the runner's control.
	for i := range r.groups {
		r.groups[i] = append(r.groups[i][:0], r.G.PartitionOf(i).Groups...)
	}
	demanded := targets
	targets = r.clampTargets(targets)
	for i, t := range targets {
		r.G.Tracer().Emit(trace.KEpochDecide, cycle, int32(i), 0,
			int64(demanded[i].SMs), int64(t.SMs), int64(t.Groups))
	}
	var pool []int
	for i, t := range targets {
		for len(r.groups[i]) > t.Groups && len(r.groups[i]) > 1 {
			last := r.groups[i][len(r.groups[i])-1]
			r.groups[i] = r.groups[i][:len(r.groups[i])-1]
			pool = append(pool, last)
		}
	}
	for i, t := range targets {
		for len(r.groups[i]) < t.Groups && len(pool) > 0 {
			r.groups[i] = append(r.groups[i], pool[len(pool)-1])
			pool = pool[:len(pool)-1]
		}
	}
	parts := make([]gpu.Partition, len(targets))
	for i, t := range targets {
		parts[i] = gpu.Partition{SMs: t.SMs, Groups: r.groups[i]}
	}
	return r.G.ApplyPartition(cycle, parts)
}

// Step simulates one epoch: run to the next boundary, profile, take the
// state digest, and let the policy decide and apply a reallocation. It
// reports done=true once MaxCycles is reached. Run loops over Step; the
// differential bisector drives Step directly so it can stop at a chosen
// epoch boundary and replay the divergent epoch cycle-by-cycle.
func (r *Runner) Step() (done bool, err error) {
	if !r.started {
		r.started = true
		r.res = Result{
			Mix:    r.Mix.Name,
			Policy: r.Pol.Name(),
			Apps:   make([]AppResult, len(r.Mix.Apps)),
		}
		for i, b := range r.Mix.Apps {
			r.res.Apps[i].Abbr = b.Abbr
		}
	}
	total := uint64(r.Cfg.MaxCycles)
	if r.G.Cycle() >= total {
		return true, nil
	}
	step := uint64(r.Cfg.EpochCycles)
	if left := total - r.G.Cycle(); left < step {
		step = left
	}
	epochStart := r.G.Cycle()
	if err := r.G.RunChecked(step); err != nil {
		return true, err
	}
	stats := r.G.EndEpoch()
	r.res.Epochs++
	rec := epochRec{start: epochStart, end: r.G.Cycle(), ipc: make([]float64, len(stats))}
	var epochInstr uint64
	for i, e := range stats {
		r.res.Apps[i].Instructions += e.Instructions
		epochInstr += e.Instructions
		rec.ipc[i] = e.IPC()
	}
	r.G.Tracer().Emit(trace.KEpochEnd, r.G.Cycle(), -1, int32(r.res.Epochs-1),
		int64(r.G.Cycle()-epochStart), int64(epochInstr), 0)
	r.recs = append(r.recs, rec)
	if err := r.G.CheckInvariants(); err != nil {
		return true, err
	}
	if r.PerturbFn != nil && r.res.Epochs-1 == r.PerturbEpoch {
		r.PerturbFn(r.G)
	}
	if de := r.Cfg.DigestEvery; de > 0 && (r.res.Epochs-1)%de == 0 {
		r.G.DigestComponents(&r.digestRec)
		r.res.Digest = r.res.Digest.Append(r.G.Cycle(), r.digestRec.Fold())
	}
	dm, sv := r.G.ReallocationOverhead()
	r.res.DataMigCycles += dm
	r.res.SMMigCycles += sv
	frac := float64(dm+sv) / float64(2*step)
	if frac > 1 {
		frac = 1
	}
	r.res.MigFracMean += frac
	if frac > r.res.MigFracWorst {
		r.res.MigFracWorst = frac
	}
	if r.G.Cycle() >= total {
		return true, nil
	}
	if targets, latency, ok := r.Pol.Decide(r.G.Cycle(), stats); ok {
		// The partition algorithm's own latency (paper: <=3388 cycles)
		// elapses before the new targets apply.
		if latency > 0 {
			r.G.Run(uint64(latency))
		}
		if err := r.applyTargets(r.G.Cycle(), targets); err != nil {
			return true, err
		}
		if err := r.G.CheckInvariants(); err != nil {
			return true, err
		}
		r.res.Reallocations++
	}
	return r.G.Cycle() >= total, nil
}

// Run simulates for the configured MaxCycles and returns the result.
func (r *Runner) Run() (Result, error) {
	for {
		done, err := r.Step()
		if err != nil {
			return r.res, err
		}
		if done {
			break
		}
	}
	r.finish()
	return r.res, nil
}

// finish fills the run summary from the machine's final state.
func (r *Runner) finish() {
	res := &r.res
	recs := r.recs
	res.Cycles = r.G.Cycle()
	if res.Epochs > 0 {
		res.MigFracMean /= float64(res.Epochs)
	}
	for i := range res.Apps {
		res.Apps[i].IPC = float64(res.Apps[i].Instructions) / float64(res.Cycles)
	}
	res.HBM = r.G.HBM().TotalStats()
	res.SMActiveCycles = r.G.SMActiveCycles()
	res.Power = r.G.PowerReport()
	res.Final = make([]Target, len(r.Mix.Apps))
	for i := range r.Mix.Apps {
		p := r.G.PartitionOf(i)
		res.Final[i] = Target{SMs: p.SMs + r.G.Apps()[i].Inbound(), Groups: len(p.Groups)}
	}
	vmStats := r.G.VM().Stats()
	res.PageMigrations = vmStats.Migrations
	res.FaultMigrations = r.G.Totals().FaultMigrations

	// Fault summary and per-app throughput loss across the first fault.
	ic := r.G.InjectorCounts()
	fs := r.G.FaultStats()
	res.Faults = FaultSummary{
		SMFails:             ic.SMFails,
		GroupFails:          ic.GroupFails,
		BankFaults:          ic.BankFaults,
		NoCDrops:            ic.NoCDrops,
		MigNACKs:            ic.MigNACKs,
		EmergencyMigrations: fs.EmergencyMigrations,
		MigFailures:         fs.MigFailures,
		SpillRemaps:         fs.SpillRemaps,
		FirstFaultCycle:     r.G.FirstFaultCycle(),
	}
	if ffc := res.Faults.FirstFaultCycle; ffc > 0 {
		loss := make([]float64, len(res.Apps))
		for i := range res.Apps {
			var preSum, postSum float64
			preN, postN := 0, 0
			for _, rec := range recs {
				switch {
				case rec.end <= ffc:
					preSum += rec.ipc[i]
					preN++
				case rec.start >= ffc:
					postSum += rec.ipc[i]
					postN++
				}
			}
			if preN > 0 && postN > 0 {
				pre, post := preSum/float64(preN), postSum/float64(postN)
				if pre > 0 {
					loss[i] = 1 - post/pre
				}
			}
		}
		res.Faults.PerAppLoss = loss
	}
}

// RunPolicy is the one-call helper: build a runner and run it.
func RunPolicy(cfg config.Config, pol Policy, mix workload.Mix) (Result, error) {
	r, err := NewRunner(cfg, pol, mix)
	if err != nil {
		return Result{}, err
	}
	return r.Run()
}
