package experiments

// GraySweep is the gray-failure resilience experiment (ISSUE 10, not a
// paper figure): a 4-GPU cluster serves the Poisson stream of the serve
// sweep while a seeded schedule degrades a victim GPU without killing it —
// forced low P-states, stretched DRAM bursts, an elevated NoC drop rate —
// over a bounded window in the middle of the run. Four arms share one
// arrival schedule and one degradation schedule:
//
//	healthy+detect   no gray faults, scorer armed — proves zero false
//	                 positives on a healthy cluster;
//	gray             degradation with no mitigation — LC work dispatched to
//	                 the sick GPU crawls through the window;
//	gray+crash       the scorer convicts, the response is fail-stop: the
//	                 victim is killed, tenants roll back to checkpoints and
//	                 pay crash retries;
//	gray+quarantine  the full pipeline: drain LC with live progress, keep
//	                 BE, probe, re-admit after the window.
//
// The shape to demonstrate: quarantine+drain beats both doing nothing and
// treating the gray failure as a crash on latency-critical goodput.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/power"
)

// grayGPUs is the figure's cluster size.
const grayGPUs = 4

// grayArm labels one configuration of the sweep.
type grayArm struct {
	name    string
	gray    bool // inject the degradation schedule
	health  bool // arm the scorer + quarantine machine
	asCrash bool // fail-stop response instead of drain
}

func grayArms() []grayArm {
	return []grayArm{
		{name: "healthy+detect", health: true},
		{name: "gray", gray: true},
		{name: "gray+crash", gray: true, health: true, asCrash: true},
		{name: "gray+quarantine", gray: true, health: true},
	}
}

// GraySweep regenerates the gray-failure comparison. Arms run serially
// (each arm's per-GPU stepping fans out over -parallel workers); all
// frontend decisions are serial, so output and merged traces are
// byte-identical at any worker count.
func (o Options) GraySweep() (Figure, error) {
	sv, err := o.servingSetup()
	if err != nil {
		return Figure{}, err
	}
	// Default degradation for the figure: the deepest SM floor the DVFS
	// ladder has (quarter issue rate), half-rate HBM bursts, and a 1% NoC
	// drop over a 0.35-horizon window. Milder settings leave a lightly
	// loaded victim's jobs inside the 6x LC slowdown target and every
	// response arm ties — there has to be a failure worth mitigating.
	graySpec := fault.GraySpec{GPUs: 1, SMStep: 3, HBMStep: 2, NoCDrop: 0.01, Window: 0.35}
	// A doubled horizon so the post-window recovery — probing and LC
	// re-admission — is observable.
	cfg := sv.cfg
	cfg.MaxCycles *= 2
	// Every arm carries the full DVFS ladder: the gray P-state floors bite
	// through the power manager, and the healthy arms meter energy
	// identically so the comparison isolates the failure response.
	opt := o.gpuOptions(gpu.DefaultOptions(), fault.Spec{})
	opt.Power = &power.Config{}
	alone := metrics.NewAloneIPC(cfg, opt)
	// Moderate stream: the survivors must have headroom to absorb drained
	// LC work. Run hotter and the drain itself crushes a survivor — its
	// progress ratio genuinely collapses under the absorbed load, and the
	// scorer (correctly) convicts a second GPU; an overload-crushed cluster
	// is indistinguishable from a gray one by design. -arrival-rate
	// overrides (jobs per 100K cycles) — the smoke target uses it because
	// the horizon-derived gap saturates at reduced -cycles.
	gap := cfg.MaxCycles / 112
	if o.ArrivalRate > 0 {
		gap = int(100_000 / o.ArrivalRate)
	}
	sv.arrivals.MeanGap = max(gap, 1_000)
	sv.arrivals.Horizon = cfg.MaxCycles * 3 / 4

	var arms []clusterArm
	for _, a := range grayArms() {
		ccfg := clusterserve.Config{
			GPUs:     grayGPUs,
			Sim:      cfg,
			Opt:      opt,
			Arrivals: sv.arrivals,
			Seed:     sv.seed,
			// Deep backend queues, unlike the failover figure: a gray GPU
			// answers offers normally, so load-aware dispatch keeps feeding
			// it and queued LC work rots behind the slow residents. That is
			// precisely how gray failures hide from backpressure — and what
			// the health scorer is for. (With shallow queues the victim
			// backpressures itself and every response arm ties.)
			QueueCap:    6,
			GrayAsCrash: a.asCrash,
			Parallel:    o.Parallel,
			Alone:       alone,
		}
		if a.gray {
			ccfg.Gray = graySpec
		}
		if a.health {
			// Conservative progress thresholds: the cluster runs with real
			// contention, where saturated-but-healthy GPUs can dip below the
			// default 0.5x-median line on a bad mix. The victim is still
			// convicted fast — its NoC drop rate trips the NACK-burst
			// detector, which healthy GPUs (no injector) can never do.
			ccfg.Health = &clusterserve.HealthConfig{
				EnterRatio:   0.4,
				SuspectAfter: 3,
				GrowStreak:   5,
			}
		}
		arms = append(arms, clusterArm{name: a.name, cfg: ccfg})
	}
	reps, links, err := o.runClusterArms(0, arms, func(i int, rep *clusterserve.Report) string {
		return fmt.Sprintf("  gray %-16s arrived=%d done=%d shed=%d rej=%d faults=%d det=%d fp=%d fn=%d latency=%.1f quar=%d saved=%.0f lcAvail=%.3f lcGoodput=%.3f p99=%.2f\n",
			arms[i].name, rep.Arrived, rep.Completed, rep.Shed, rep.Rejected,
			rep.SLO.GrayFaults, rep.SLO.GrayDetected, rep.SLO.GrayFalsePositives,
			rep.SLO.GrayMissed, rep.SLO.GrayDetectEpochs,
			rep.SLO.QuarantinedGPUCycles, rep.SLO.GraySavedWork,
			rep.SLO.LCAvailability, rep.SLO.LCGoodput, rep.SLO.P99)
	})
	if err != nil {
		return Figure{}, fmt.Errorf("gray %w", err)
	}

	labels := make([]string, len(arms))
	for i, a := range arms {
		labels[i] = a.name
	}
	type report = *clusterserve.Report
	fig := Figure{
		ID:    "gray",
		Title: "Gray failures: LC goodput under degradation — ignore vs crash vs quarantine",
		Series: []Series{
			series("lcGoodput", labels, reps, func(r report) float64 { return r.SLO.LCGoodput }),
			series("goodput", labels, reps, func(r report) float64 { return r.SLO.Goodput }),
			series("p99 slowdown", labels, reps, func(r report) float64 { return r.SLO.P99 }),
			series("detected", labels, reps, func(r report) float64 { return float64(r.SLO.GrayDetected) }),
			series("false positives", labels, reps, func(r report) float64 { return float64(r.SLO.GrayFalsePositives) }),
			series("detect epochs", labels, reps, func(r report) float64 { return r.SLO.GrayDetectEpochs }),
			series("LC availability", labels, reps, func(r report) float64 { return r.SLO.LCAvailability }),
			series("availability", labels, reps, func(r report) float64 { return r.SLO.Availability }),
			series("quarantined cycles", labels, reps, func(r report) float64 { return float64(r.SLO.QuarantinedGPUCycles) }),
			series("saved work", labels, reps, func(r report) float64 { return r.SLO.GraySavedWork }),
			series("lost work", labels, reps, func(r report) float64 { return r.SLO.LostWork }),
		},
		Notes: []string{
			fmt.Sprintf("%d GPUs; degradation %q seeded by the arrival seed (%d); windows sit in the middle 60%% of the horizon", grayGPUs, graySpec.WithDefaults().String(), sv.seed),
			"all arms share one arrival schedule and one degradation schedule; identical seeds give byte-identical merged traces at any -parallel",
			"scorer: per-GPU progress vs peer median with streak + dead-band hysteresis; DVFS-capped epochs are neutral (no false conviction)",
			"quarantine drains LC with live progress (nothing rolls back); crash-style response pays checkpoint rollback + retry backoff",
			"detection latency in epochs from window start to suspicion; LC availability excludes quarantined (alive) GPU-cycles",
		},
	}
	fig.Notes = append(fig.Notes, o.digestNote(links, "all arms and backends")...)
	return fig, nil
}
