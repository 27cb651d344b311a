package experiments

// FailoverSweep is the cluster-failover experiment (ISSUE 7, not a paper
// figure): a 4-GPU cluster serves the Poisson stream of the serve sweep
// while a seeded schedule crashes whole GPUs mid-run. Three arms share one
// arrival schedule and one crash schedule: a no-crash baseline, the crash
// with plain re-dispatch, and the crash with the tiered brownout controller
// shedding load during recovery. The shape to demonstrate: crashes cost
// availability and lost work in every arm, but brownout preserves at least
// the no-brownout arm's latency-critical goodput by spending best-effort
// admissions (and, under deep overload, a relaxed LC target) instead of
// letting every queue back up.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/gpu"
)

// failoverGPUs is the figure's cluster size.
const failoverGPUs = 4

// failoverArms are the sweep's configurations: the crash arms each lose
// one GPU.
var failoverArms = []struct {
	name     string
	crashes  int
	brownout bool
}{
	{name: "baseline", crashes: 0},
	{name: "crash", crashes: 1},
	{name: "crash+brownout", crashes: 1, brownout: true},
}

// FailoverSweep regenerates the cluster failover comparison. Arms run
// serially (each arm's per-GPU stepping fans out over -parallel workers);
// all frontend decisions are serial, so output and merged traces are
// byte-identical at any worker count.
func (o Options) FailoverSweep() (Figure, error) {
	sv, err := o.servingSetup()
	if err != nil {
		return Figure{}, err
	}
	// A doubled horizon, as in the serve sweep, so the post-crash tail is
	// observable.
	cfg := sv.cfg
	cfg.MaxCycles *= 2
	sv.arrivals.Horizon = cfg.MaxCycles * 3 / 4 // crashes centre at 50-65%; keep arrivals flowing through recovery
	// Intra-GPU faults compose with whole-GPU crashes; clusterserve offsets
	// the injector seed per backend so each GPU degrades independently.
	faults, err := o.faultSpec()
	if err != nil {
		return Figure{}, err
	}
	opt := o.gpuOptions(gpu.DefaultOptions(), faults)
	alone := o.aloneRef(cfg)
	// Dense enough that losing one of four GPUs overloads the survivors
	// while the full cluster still keeps up; the floor keeps reduced
	// CI-scale runs at the serve sweep's stream.
	sv.arrivals.MeanGap = max(cfg.MaxCycles/160, 1_000)

	var arms []clusterArm
	for _, a := range failoverArms {
		arms = append(arms, clusterArm{name: a.name, cfg: clusterserve.Config{
			GPUs:     failoverGPUs,
			Sim:      cfg,
			Opt:      opt,
			Arrivals: sv.arrivals,
			Seed:     sv.seed,
			// Shallow backend queues: work committed to a backend queue
			// cannot be re-balanced, so cluster-level queueing lives at the
			// frontend — which is also where the brownout controller
			// measures delay.
			QueueCap: 2,
			Crashes:  a.crashes,
			Brownout: a.brownout,
			Parallel: o.Parallel,
			Alone:    alone,
		}})
	}
	reps, links, err := o.runClusterArms(0, arms, func(i int, rep *clusterserve.Report) string {
		return fmt.Sprintf("  failover %-15s arrived=%d done=%d shed=%d rej=%d crashes=%d avail=%.3f mttr=%.0f lost=%.0f lcGoodput=%.3f p99=%.2f tier=%d\n",
			arms[i].name, rep.Arrived, rep.Completed, rep.Shed, rep.Rejected,
			rep.SLO.Crashes, rep.SLO.Availability, rep.SLO.MTTRCycles,
			rep.SLO.LostWork, rep.SLO.LCGoodput, rep.SLO.P99, rep.MaxTier)
	})
	if err != nil {
		return Figure{}, fmt.Errorf("failover %w", err)
	}

	labels := make([]string, len(arms))
	for i, a := range arms {
		labels[i] = a.name
	}
	type report = *clusterserve.Report
	fig := Figure{
		ID:    "failover",
		Title: "Cluster failover: goodput, availability, MTTR under whole-GPU crashes",
		Series: []Series{
			series("goodput", labels, reps, func(r report) float64 { return r.SLO.Goodput }),
			series("lcGoodput", labels, reps, func(r report) float64 { return r.SLO.LCGoodput }),
			series("p99 slowdown", labels, reps, func(r report) float64 { return r.SLO.P99 }),
			series("availability", labels, reps, func(r report) float64 { return r.SLO.Availability }),
			series("MTTR cycles", labels, reps, func(r report) float64 { return r.SLO.MTTRCycles }),
			series("lost work", labels, reps, func(r report) float64 { return r.SLO.LostWork }),
			series("shed jobs", labels, reps, func(r report) float64 { return float64(r.SLO.Shed) }),
		},
		Notes: []string{
			fmt.Sprintf("%d GPUs; crash schedule seeded by the arrival seed (%d); checkpoint/restore from periodic in-memory snapshots", failoverGPUs, sv.seed),
			"all arms share one arrival schedule and one crash schedule; identical seeds give byte-identical merged traces at any -parallel",
			"availability = healthy GPU-cycles / total; MTTR = crash to last re-dispatch; lost work = alone-cycles rolled back to checkpoints",
			"brownout sheds BE admissions (tier 1), relaxes the LC target 2x (tier 2), circuit-breaks arrivals (tier 3) until queue delay recovers",
		},
	}
	if o.FaultSpec != "" {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("backends also run intra-GPU faults %q (seed %d)", o.FaultSpec, o.FaultSeed))
	}
	fig.Notes = append(fig.Notes, o.digestNote(links, "all arms and backends")...)
	return fig, nil
}
