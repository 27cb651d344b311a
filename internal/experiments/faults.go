package experiments

// FaultSweep is the degraded-mode experiment (not a paper figure): the UGPU
// policy runs over heterogeneous mixes while the deterministic injector
// kills SMs and channel groups mid-run. It reports total throughput, the
// per-app throughput loss across the first fault, and the recovery-path
// counters, demonstrating that the simulator completes, repartitions over
// the surviving resources, and accounts for the damage.

import (
	"fmt"

	"ugpu/internal/fault"
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
		spec, err := o.faultSpec()
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
// one closed-world cell (runMixCells), laid out arm-major, so the output is
// byte-identical at any -parallel.
func (o Options) FaultSweep() (Figure, error) {
	arms, err := o.faultArms()
	if err != nil {
		return Figure{}, err
	}
	mixes := o.heteroMixes()
	if len(mixes) > 3 {
		mixes = mixes[:3] // a few mixes suffice; the sweep is over damage, not workloads
	}

	var cells []mixCell
	for _, arm := range arms {
		for _, mix := range mixes {
			cells = append(cells, mixCell{pol: o.ugpu, mix: mix, faults: arm.spec})
		}
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		ID:    "faults",
		Title: "Degraded-mode throughput under injected faults (UGPU policy)",
	}
	labels := []string{"totalIPC", "meanLoss", "smFail", "grpFail", "migNACK", "spill", "evacPages"}
	for ai, arm := range arms {
		var agg struct {
			ipc, loss                  float64
			smFails, grpFails          int
			nacks, spills, emergencies uint64
		}
		for _, r := range runs[ai*len(mixes) : (ai+1)*len(mixes)] {
			f := r.res.Faults
			loss := 0.0
			for _, l := range f.PerAppLoss {
				loss += l
			}
			if n := len(f.PerAppLoss); n > 0 {
				loss /= float64(n)
			}
			agg.ipc += r.res.TotalIPC()
			agg.loss += loss
			agg.smFails += f.SMFails
			agg.grpFails += f.GroupFails
			agg.nacks += f.MigNACKs
			agg.spills += f.SpillRemaps
			agg.emergencies += f.EmergencyMigrations
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
