package experiments

// PowerSweep is the power-management experiment (ISSUE 8, not a paper
// figure): a 2-GPU cluster serves the mixed LC/BE stream of the serve sweep
// under four power regimes sharing one arrival schedule — a no-DVFS
// baseline (single nominal operating point, so the energy meter runs but
// the governor has nothing to choose), the per-GPU DVFS governor uncapped,
// and two cluster power-cap points derived from the baseline's measured
// mean power. The shape to demonstrate: the governor converts the
// full-price stalled-active cycles of memory-bound best-effort slices into
// cheap gated cycles (>= 10% system energy at <= 3% throughput loss, LC SLO
// attainment unchanged), and the cap controller trades further energy for
// throughput along a Pareto frontier while shaving best-effort slices
// before latency-critical ones.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/power"
)

// powerGPUs is the figure's cluster size: two backends are enough to
// exercise the cluster budget arbitration without failover-scale runtimes.
const powerGPUs = 2

// powerArm labels one regime of the sweep.
type powerArm struct {
	name    string
	dvfs    bool
	capFrac float64 // cluster cap as a fraction of baseline mean power
	capW    float64 // absolute cluster cap override (-power-cap)
}

func (o Options) powerArms() []powerArm {
	arms := []powerArm{{name: "baseline"}}
	if !o.DVFS {
		return arms
	}
	arms = append(arms, powerArm{name: "dvfs", dvfs: true})
	if o.PowerCap > 0 {
		arms = append(arms, powerArm{name: "cap", dvfs: true, capW: o.PowerCap})
		return arms
	}
	arms = append(arms,
		powerArm{name: "cap-85", dvfs: true, capFrac: 0.85},
		powerArm{name: "cap-70", dvfs: true, capFrac: 0.70},
	)
	return arms
}

// nominalOnlyPower is the baseline arm's power config: one operating point
// per domain kind, so energy is metered identically to the DVFS arms while
// every governor step is a no-op.
func nominalOnlyPower() *power.Config {
	return &power.Config{
		SMStates:  power.DefaultSMStates()[:1],
		HBMStates: power.DefaultHBMStates()[:1],
	}
}

// PowerSweep regenerates the energy/throughput Pareto comparison. The
// baseline arm runs first, on its own, because the cap arms' budgets
// derive from its measured power; each arm's per-GPU stepping fans out
// over -parallel workers, so output and merged traces are byte-identical
// at any worker count.
func (o Options) PowerSweep() (Figure, error) {
	sv, err := o.servingSetup()
	if err != nil {
		return Figure{}, err
	}
	// The governor and the cap arbiter only act at epoch boundaries, so the
	// serving sweeps' fine epochs keep their feedback loops from being
	// quantised into a handful of steps.
	cfg := sv.cfg
	alone := o.aloneRef(cfg)
	// Lighter stream than the failover figure: the point is steady-state
	// serving with real SLO attainment, not overload — saturated queues
	// would zero every arm's goodput and make the LC-unchanged comparison
	// vacuous.
	sv.arrivals.MeanGap = max(cfg.MaxCycles/32, 1_000)
	sv.arrivals.Horizon = cfg.MaxCycles * 3 / 4

	arms := o.powerArms()
	caps := make([]float64, len(arms))
	armAt := func(i int) clusterArm {
		opt := o.gpuOptions(gpu.DefaultOptions(), fault.Spec{})
		if arms[i].dvfs {
			opt.Power = &power.Config{}
		} else {
			opt.Power = nominalOnlyPower()
		}
		return clusterArm{name: arms[i].name, cfg: clusterserve.Config{
			GPUs:     powerGPUs,
			Sim:      cfg,
			Opt:      opt,
			Arrivals: sv.arrivals,
			Seed:     sv.seed,
			QueueCap: 4,
			PowerCap: caps[i],
			Parallel: o.Parallel,
			Alone:    alone,
		}}
	}
	line := func(i int, rep *clusterserve.Report) string {
		return fmt.Sprintf("  power %-10s energy=%.0f meanW=%.1f ipc=%.3f lcGoodput=%.3f p99=%.2f transitions=%d cap=%.0fW\n",
			arms[i].name, rep.Energy.Total, rep.MeanPower,
			float64(rep.Served)/float64(rep.Cycles),
			rep.SLO.LCGoodput, rep.SLO.P99, rep.Energy.Transitions, caps[i])
	}
	reps, links, err := o.runClusterArms(0, []clusterArm{armAt(0)}, line)
	if err != nil {
		return Figure{}, fmt.Errorf("power %w", err)
	}
	var rest []clusterArm
	for i := 1; i < len(arms); i++ {
		caps[i] = arms[i].capW
		if arms[i].capFrac > 0 {
			caps[i] = arms[i].capFrac * reps[0].MeanPower
		}
		rest = append(rest, armAt(i))
	}
	restReps, restLinks, err := o.runClusterArms(1, rest, line)
	if err != nil {
		return Figure{}, fmt.Errorf("power %w", err)
	}
	reps, links = append(reps, restReps...), append(links, restLinks...)

	labels := make([]string, len(arms))
	for i, a := range arms {
		labels[i] = a.name
	}
	type report = *clusterserve.Report
	rel := func(get func(report) float64) func(report) float64 {
		b := get(reps[0])
		return func(r report) float64 {
			if b > 0 {
				return (b - get(r)) / b * 100
			}
			return 0
		}
	}
	ipc := func(r report) float64 {
		if r.Cycles == 0 {
			return 0
		}
		return float64(r.Served) / float64(r.Cycles)
	}
	energy := func(r report) float64 { return r.Energy.Total }
	capNote := "baseline runs a single nominal operating point (governor no-op); cap arms budget 85%/70% of baseline measured power"
	if o.PowerCap > 0 {
		capNote = fmt.Sprintf("baseline runs a single nominal operating point (governor no-op); cap arm budgets %.0f W (-power-cap)", o.PowerCap)
	}
	fig := Figure{
		ID:    "power",
		Title: "Power management: energy/throughput Pareto under DVFS and power capping",
		Series: []Series{
			series("energy (units)", labels, reps, energy),
			series("energy saved %", labels, reps, rel(energy)),
			series("mean power (W)", labels, reps, func(r report) float64 { return r.MeanPower }),
			series("IPC", labels, reps, ipc),
			series("IPC loss %", labels, reps, rel(ipc)),
			series("lcGoodput", labels, reps, func(r report) float64 { return r.SLO.LCGoodput }),
			series("p99 slowdown", labels, reps, func(r report) float64 { return r.SLO.P99 }),
			series("transitions", labels, reps, func(r report) float64 { return float64(r.Energy.Transitions) }),
			{Name: "cap (W)", Labels: labels, Values: caps},
		},
		Notes: []string{
			fmt.Sprintf("%d GPUs; all arms share one LC/BE arrival schedule (seed %d); energy metered identically in every arm", powerGPUs, sv.seed),
			capNote,
			"the governor downclocks memory-bound slices' SMs and compute-bound slices' channels; LC slices keep nominal frequency",
			"the cluster arbiter splits the cap across alive GPUs and re-grants measured headroom; per-GPU caps emit KPower events",
		},
	}
	fig.Notes = append(fig.Notes, o.digestNote(links, "all arms and backends")...)
	return fig, nil
}
