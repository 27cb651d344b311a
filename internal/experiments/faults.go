package experiments

// FaultSweep is the degraded-mode experiment (not a paper figure): the UGPU
// policy runs over heterogeneous mixes while the deterministic injector
// kills SMs and channel groups mid-run. It reports total throughput, the
// per-app throughput loss across the first fault, and the recovery-path
// counters, demonstrating that the simulator completes, repartitions over
// the surviving resources, and accounts for the damage.

import (
	"fmt"

	"ugpu/internal/core"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/trace"
)

// faultArm is one injected-fault configuration of the sweep.
type faultArm struct {
	name string
	spec fault.Spec
}

// faultArms returns the sweep's arms: a healthy baseline plus escalating
// damage, or a single custom arm when Options.FaultSpec is set.
func (o Options) faultArms() ([]faultArm, error) {
	if o.FaultSpec != "" {
		spec, err := fault.ParseSpec(o.FaultSpec)
		if err != nil {
			return nil, err
		}
		return []faultArm{
			{name: "healthy", spec: fault.Spec{}},
			{name: spec.String(), spec: spec},
		}, nil
	}
	mk := func(s string) fault.Spec {
		spec, err := fault.ParseSpec(s)
		if err != nil {
			panic("experiments: bad built-in fault spec: " + s)
		}
		return spec
	}
	return []faultArm{
		{name: "healthy", spec: fault.Spec{}},
		{name: "sm=1", spec: mk("sm=1")},
		{name: "sm=2", spec: mk("sm=2")},
		{name: "group=1", spec: mk("group=1")},
		{name: "sm=2,group=1", spec: mk("sm=2,group=1")},
		{name: "sm=2,group=1,mig=.05", spec: mk("sm=2,group=1,mig=0.05")},
	}, nil
}

// FaultSweep regenerates the degraded-mode table. Every (arm, mix) cell is
// one independent simulation; cells fan out over the worker pool and are
// reassembled arm-major, so the output is byte-identical at any -parallel.
func (o Options) FaultSweep() (Figure, error) {
	arms, err := o.faultArms()
	if err != nil {
		return Figure{}, err
	}
	mixes := o.heteroMixes()
	if len(mixes) > 3 {
		mixes = mixes[:3] // a few mixes suffice; the sweep is over damage, not workloads
	}

	type cellResult struct {
		ipc, loss                  float64
		smFails, grpFails          int
		nacks, spills, emergencies uint64
	}
	out, links, err := runCells(o, o.Parallel, 0, len(arms)*len(mixes), 1, func(i int, trs []*trace.Tracer) (cellOut[cellResult], error) {
		arm, mix := arms[i/len(mixes)], mixes[i%len(mixes)]
		pol := core.WithOptions(core.NewUGPU(o.Cfg), func(g *gpu.Options) {
			g.FootprintScale = o.FootprintScale
			g.Faults = arm.spec
			g.FaultSeed = o.FaultSeed
			g.Trace = trs[0]
			g.NoFastForward = o.NoFastForward
		})
		res, err := core.RunPolicy(o.Cfg, pol, mix)
		if err != nil {
			return cellOut[cellResult]{}, fmt.Errorf("faults arm %q on %s: %w", arm.name, mix.Name, err)
		}
		r := cellResult{
			ipc:         res.TotalIPC(),
			smFails:     res.Faults.SMFails,
			grpFails:    res.Faults.GroupFails,
			nacks:       res.Faults.MigNACKs,
			spills:      res.Faults.SpillRemaps,
			emergencies: res.Faults.EmergencyMigrations,
		}
		for _, l := range res.Faults.PerAppLoss {
			r.loss += l
		}
		if n := len(res.Faults.PerAppLoss); n > 0 {
			r.loss /= float64(n)
		}
		return cellOut[cellResult]{val: r, digs: []uint64{res.Digest.Final()}}, nil
	})
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		ID:    "faults",
		Title: "Degraded-mode throughput under injected faults (UGPU policy)",
	}
	labels := []string{"totalIPC", "meanLoss", "smFail", "grpFail", "migNACK", "spill", "evacPages"}
	for ai, arm := range arms {
		var agg cellResult
		for _, r := range out[ai*len(mixes) : (ai+1)*len(mixes)] {
			agg.ipc += r.ipc
			agg.loss += r.loss
			agg.smFails += r.smFails
			agg.grpFails += r.grpFails
			agg.nacks += r.nacks
			agg.spills += r.spills
			agg.emergencies += r.emergencies
		}
		n := float64(len(mixes))
		o.logf("  faults %-22s IPC=%.3f loss=%.3f\n", arm.name, agg.ipc/n, agg.loss/n)
		fig.Series = append(fig.Series, Series{
			Name:   arm.name,
			Labels: labels,
			Values: []float64{
				agg.ipc / n,
				agg.loss / n,
				float64(agg.smFails) / n,
				float64(agg.grpFails) / n,
				float64(agg.nacks) / n,
				float64(agg.spills) / n,
				float64(agg.emergencies) / n,
			},
		})
	}
	fig.Notes = append(fig.Notes,
		"per-arm means over the mix subset; loss = 1 - postIPC/preIPC across the first fault",
		fmt.Sprintf("fault seed %d; identical seeds give byte-identical reports at any -parallel", o.FaultSeed))
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}
