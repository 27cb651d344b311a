package experiments

import (
	"fmt"

	"ugpu/internal/addr"
	"ugpu/internal/core"
	"ugpu/internal/digest"
	"ugpu/internal/dram"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// soloCell runs benchmark b alone on sms SMs and the first groups channel
// groups for MaxCycles, traced by tr, and returns that window's stats. With
// warm set the window only warms the machine up and the stats cover a
// further MaxCycles/2, so the deep-MLP fill transient does not inflate
// high-bandwidth configurations. The cell's digest link is the machine's
// final state digest (none when digesting is off).
func (o Options) soloCell(b workload.Benchmark, sms, groups int, warm bool, tr *trace.Tracer) (cellOut[gpu.EpochStats], error) {
	ids := make([]int, groups)
	for i := range ids {
		ids[i] = i
	}
	opt := o.gpuOptions(gpu.DefaultOptions(), fault.Spec{})
	opt.Trace = tr
	g, err := gpu.New(o.Cfg, []gpu.AppSpec{{Bench: b, SMs: sms, Groups: ids}}, opt)
	if err != nil {
		return cellOut[gpu.EpochStats]{}, err
	}
	g.Run(uint64(o.Cfg.MaxCycles))
	if warm {
		g.EndEpoch()
		g.Run(uint64(o.Cfg.MaxCycles / 2))
	}
	out := cellOut[gpu.EpochStats]{val: g.EndEpoch()[0]}
	if o.Cfg.DigestEvery > 0 {
		out.digs = []uint64{uint64(g.StateDigest())}
	}
	return out, nil
}

// perfSweep implements the Figure 2/3 sweeps: performance of one benchmark
// while varying the MC count at 40 SMs and the SM count at 16 MCs,
// normalized to the half-GPU slice (40 SMs, 16 MCs = 4 channel groups).
// Every point is an independent solo simulation, so the whole sweep is one
// runCells call.
func (o Options) perfSweep(abbr string, id, title string) (Figure, error) {
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		return Figure{}, err
	}
	mcGroups := []int{1, 2, 4, 6, 8}
	smCounts := []int{10, 20, 40, 60, 80}

	type point struct{ sms, groups int }
	points := []point{{40, 4}} // index 0: the normalization base
	for _, g := range mcGroups {
		points = append(points, point{40, g})
	}
	for _, s := range smCounts {
		points = append(points, point{s, 4})
	}
	stats, links, err := runCells(o, o.Parallel, 0, len(points), 1, func(i int, trs []*trace.Tracer) (cellOut[gpu.EpochStats], error) {
		return o.soloCell(b, points[i].sms, points[i].groups, true, trs[0])
	})
	if err != nil {
		return Figure{}, err
	}
	base := stats[0].IPC()
	chPerGroup := o.Cfg.ChannelsPerGroup()

	var mcSeries Series
	mcSeries.Name = "40 SMs, vary MCs"
	for i, groups := range mcGroups {
		ipc := stats[1+i].IPC()
		mcSeries.Labels = append(mcSeries.Labels, fmt.Sprintf("%dMC", groups*chPerGroup))
		mcSeries.Values = append(mcSeries.Values, ipc/base)
		o.logf("  %s 40SM/%dMC -> %.3f\n", abbr, groups*chPerGroup, ipc/base)
	}

	var smSeries Series
	smSeries.Name = "16 MCs, vary SMs"
	for i, sms := range smCounts {
		ipc := stats[1+len(mcGroups)+i].IPC()
		smSeries.Labels = append(smSeries.Labels, fmt.Sprintf("%dSM", sms))
		smSeries.Values = append(smSeries.Values, ipc/base)
		o.logf("  %s %dSM/16MC -> %.3f\n", abbr, sms, ipc/base)
	}
	return Figure{
		ID:     id,
		Title:  title,
		Series: []Series{mcSeries, smSeries},
		Notes:  append([]string{"values normalized to the 40-SM/16-MC half-GPU slice"}, o.digestNote(links, "all cells")...),
	}, nil
}

// Figure2 reproduces the compute-bound sweep (DXTC).
func (o Options) Figure2() (Figure, error) {
	return o.perfSweep("DXTC", "Figure 2", "compute-bound app performance vs MC and SM count")
}

// Figure3 reproduces the memory-bound sweep (PVC).
func (o Options) Figure3() (Figure, error) {
	return o.perfSweep("PVC", "Figure 3", "memory-bound app performance vs MC and SM count")
}

// Figure4 reproduces the PVC_DXTC resource-distribution surface: system
// throughput while varying the memory-bound app's share of SMs and MCs
// (the compute-bound app receives the remainder).
func (o Options) Figure4() (Figure, error) {
	pvc, _ := workload.ByAbbr("PVC")
	dxtc, _ := workload.ByAbbr("DXTC")
	mix := workload.Mix{Name: "PVC_DXTC", Apps: []workload.Benchmark{pvc, dxtc}, Hetero: true}
	alone := o.aloneRef(o.Cfg)

	smShares := []int{16, 24, 40, 56, 64}
	grShares := []int{2, 4, 6}
	fig := Figure{
		ID:    "Figure 4",
		Title: "system STP vs resource distribution to the memory-bound app (PVC_DXTC)",
		Notes: []string{"rows: channel groups to PVC; columns: SMs to PVC; cells: STP"},
	}
	// One cell per (group share, SM share), gr-major.
	var cells []mixCell
	for _, gr := range grShares {
		for _, sm := range smShares {
			cells = append(cells, mixCell{
				pol: anyMix(func() core.Policy {
					return core.NewUGPUOffline([]core.Target{
						{SMs: sm, Groups: gr},
						{SMs: o.Cfg.NumSMs - sm, Groups: o.Cfg.ChannelGroups() - gr},
					})
				}),
				mix: mix, alone: alone,
				line: func(r mixRun) string { return fmt.Sprintf("  PVC share %dSM/%dgr -> STP %.3f\n", sm, gr, r.stp) },
			})
		}
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}
	for gi, gr := range grShares {
		s := Series{Name: fmt.Sprintf("%d groups (%d MCs)", gr, gr*o.Cfg.ChannelsPerGroup())}
		for si, sm := range smShares {
			s.Labels = append(s.Labels, fmt.Sprintf("%dSM", sm))
			s.Values = append(s.Values, runs[gi*len(smShares)+si].stp)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// ugpuOfflineFor derives per-mix offline targets from a UGPU run's final
// partition (the paper's offline-profiled ideal). The deriving run gets the
// experiment's mechanism options but no tracer: it is not one of the
// figure's cells.
func (o Options) ugpuOfflineFor(mix workload.Mix) (core.Policy, error) {
	pol := core.WithOptions(core.NewUGPU(o.Cfg), func(g *gpu.Options) { *g = o.gpuOptions(*g, fault.Spec{}) })
	res, err := core.RunPolicy(o.Cfg, pol, mix)
	if err != nil {
		return nil, err
	}
	return core.NewUGPUOffline(res.Final), nil
}

// namedPolicy is one arm of a policy comparison: a label and a per-mix
// policy factory.
type namedPolicy struct {
	name string
	mk   func(mix workload.Mix) (core.Policy, error)
}

// scoredCells lays out one cell per (policy, mix), policy-major, each scored
// against alone; line renders a cell's progress line.
func scoredCells(pols []namedPolicy, mixes []workload.Mix, alone *metrics.AloneIPC, line func(name string, mix workload.Mix, r mixRun) string) []mixCell {
	var cells []mixCell
	for _, p := range pols {
		for _, mix := range mixes {
			cells = append(cells, mixCell{
				pol: p.mk, mix: mix, alone: alone,
				line: func(r mixRun) string { return line(p.name, mix, r) },
			})
		}
	}
	return cells
}

// scoreLine is the progress line of the scored mean-STP/ANTT figures.
func scoreLine(name string, mix workload.Mix, r mixRun) string {
	return fmt.Sprintf("  %-14s %-22s STP=%.3f ANTT=%.3f realloc=%d\n", name, mix.Name, r.stp, r.antt, r.res.Reallocations)
}

// scores splits n consecutive runs starting at first into STP and ANTT.
func scores(runs []mixRun, first, n int) (stp, antt []float64) {
	for _, r := range runs[first : first+n] {
		stp = append(stp, r.stp)
		antt = append(antt, r.antt)
	}
	return stp, antt
}

// Figure10 compares BP, BP-BS, BP-SB, UGPU and UGPU-offline over the
// heterogeneous mixes: sorted STP and ANTT per policy plus means.
func (o Options) Figure10() (Figure, error) {
	mixes := o.heteroMixes()
	fig := Figure{ID: "Figure 10", Title: "STP/ANTT across heterogeneous workloads"}
	pols := []namedPolicy{
		{"BP", anyMix(core.NewBP)},
		{"BP-BS", anyMix(core.NewBPBS)},
		{"BP-SB", anyMix(core.NewBPSB)},
		{"UGPU", o.ugpu},
		{"UGPU-offline", o.ugpuOfflineFor},
	}
	labels := make([]string, len(mixes)+1)
	for i := range mixes {
		labels[i] = fmt.Sprintf("wl%d", i+1)
	}
	labels[len(mixes)] = "mean"

	runs, links, err := o.runMixCells(scoredCells(pols, mixes, o.aloneRef(o.Cfg), func(name string, mix workload.Mix, r mixRun) string {
		return fmt.Sprintf("  %-13s %-22s STP=%.3f ANTT=%.3f\n", name, mix.Name, r.stp, r.antt)
	}))
	if err != nil {
		return Figure{}, err
	}
	for pi, p := range pols {
		stps, antts := scores(runs, pi*len(mixes), len(mixes))
		fig.Series = append(fig.Series, Series{
			Name: p.name + " STP", Labels: labels,
			Values: append(sortedByValue(stps), Mean(stps)),
		})
		fig.Series = append(fig.Series, Series{
			Name: p.name + " ANTT", Labels: labels,
			Values: append(sortedByValue(antts), Mean(antts)),
		})
	}
	fig.Notes = append(fig.Notes,
		"per-policy STP values sorted ascending (the paper's S-curve); last column is the mean",
		"paper: UGPU improves STP by 34.3% and ANTT by 46.7% on average over BP")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// Figure11 is the PageMove ablation: BP vs UGPU-Ori vs UGPU-Soft vs UGPU.
func (o Options) Figure11() (Figure, error) {
	mixes := o.heteroMixes()
	fig := Figure{ID: "Figure 11", Title: "PageMove benefit breakdown (mean STP)"}
	var pols []namedPolicy
	for _, mk := range []func() core.Policy{
		func() core.Policy { return core.NewBP() },
		func() core.Policy { return core.NewUGPUOri(o.Cfg) },
		func() core.Policy { return core.NewUGPUSoft(o.Cfg) },
		func() core.Policy { return core.NewUGPU(o.Cfg) },
	} {
		pols = append(pols, namedPolicy{mk().Name(), anyMix(mk)})
	}
	runs, links, err := o.runMixCells(scoredCells(pols, mixes, o.aloneRef(o.Cfg), scoreLine))
	if err != nil {
		return Figure{}, err
	}
	var labels []string
	var values []float64
	for pi, p := range pols {
		stp, _ := scores(runs, pi*len(mixes), len(mixes))
		labels = append(labels, p.name)
		values = append(values, Mean(stp))
	}
	fig.Series = []Series{{Name: "mean STP", Labels: labels, Values: values}}
	fig.Notes = append(fig.Notes,
		"paper: UGPU-Ori is 16.8% below BP; UGPU-Soft recovers 12.7% over Ori; full UGPU is 34.3% above BP")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// Figure12a reports the fraction of epoch time spent on SM and data
// migration under UGPU.
func (o Options) Figure12a() (Figure, error) {
	mixes := o.heteroMixes()
	fig := Figure{ID: "Figure 12a", Title: "fraction of epoch time spent on resource reallocation"}
	var cells []mixCell
	for _, mix := range mixes {
		cells = append(cells, mixCell{
			pol: o.ugpu, mix: mix,
			line: func(r mixRun) string {
				return fmt.Sprintf("  %-22s migfrac mean=%.3f worst=%.3f\n", mix.Name, r.res.MigFracMean, r.res.MigFracWorst)
			},
		})
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}
	var meanS, worstS Series
	meanS.Name, worstS.Name = "mean fraction", "worst fraction"
	var means []float64
	for i, mix := range mixes {
		res := runs[i].res
		meanS.Labels = append(meanS.Labels, mix.Name)
		meanS.Values = append(meanS.Values, res.MigFracMean)
		worstS.Labels = append(worstS.Labels, mix.Name)
		worstS.Values = append(worstS.Values, res.MigFracWorst)
		means = append(means, res.MigFracMean)
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("overall mean fraction: %.3f (paper: 8.9%% mean, 19.5%% worst case)", Mean(means)))
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	fig.Series = []Series{meanS, worstS}
	return fig, nil
}

// Figure12b reports the energy comparison: core/HBM split and the
// BP-vs-UGPU energy delta.
func (o Options) Figure12b() (Figure, error) {
	mixes := o.heteroMixes()
	model := metrics.DefaultEnergy()
	fig := Figure{ID: "Figure 12b", Title: "energy: core/HBM split and UGPU vs BP"}
	// Two cells per mix, BP then UGPU.
	var cells []mixCell
	for _, mix := range mixes {
		cells = append(cells,
			mixCell{pol: anyMix(core.NewBP), mix: mix},
			mixCell{pol: o.ugpu, mix: mix})
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}
	var memFrac, memDelta, totalDelta []float64
	for i := range mixes {
		bp, ug := runs[2*i].res, runs[2*i+1].res
		// The paper reports the memory-system energy increase raw (equal
		// cycle counts; migrations and extra throughput add energy) but the
		// whole-GPU comparison per unit of work (higher performance lowers
		// the static/constant energy a workload consumes). Mirror both.
		eBP, eUG := model.Energy(o.Cfg, bp), model.Energy(o.Cfg, ug)
		wBP, wUG := float64(totalInstr(bp)), float64(totalInstr(ug))
		memFrac = append(memFrac, eBP.MemFraction())
		memDelta = append(memDelta, eUG.HBM/eBP.HBM-1)
		totalDelta = append(totalDelta, (eUG.Total()/wUG)/(eBP.Total()/wBP)-1)
	}
	fig.Series = []Series{
		{Name: "BP HBM energy fraction", Labels: mixNames(mixes), Values: memFrac},
		{Name: "UGPU mem energy delta", Labels: mixNames(mixes), Values: memDelta},
		{Name: "UGPU total energy delta", Labels: mixNames(mixes), Values: totalDelta},
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("means: HBM fraction %.3f (paper 0.116), mem delta %+.3f (paper +0.38), total delta %+.3f (paper -0.071)",
			Mean(memFrac), Mean(memDelta), Mean(totalDelta)))
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

func totalInstr(r core.Result) uint64 {
	var t uint64
	for _, a := range r.Apps {
		t += a.Instructions
	}
	return t
}

func mixNames(mixes []workload.Mix) []string {
	out := make([]string, len(mixes))
	for i, m := range mixes {
		out[i] = m.Name
	}
	return out
}

// Figure13 compares UGPU against BP and BP(CD-Search).
func (o Options) Figure13() (Figure, error) {
	mixes := o.heteroMixes()
	fig := Figure{ID: "Figure 13", Title: "STP/ANTT vs BP(CD-Search)"}
	pols := []namedPolicy{
		{"BP", anyMix(core.NewBP)},
		{"BP(CD-Search)", anyMix(func() core.Policy { return core.NewCDSearch(o.Cfg) })},
		{"UGPU", o.ugpu},
	}
	runs, links, err := o.runMixCells(scoredCells(pols, mixes, o.aloneRef(o.Cfg), func(name string, mix workload.Mix, r mixRun) string {
		return fmt.Sprintf("  %-14s %-22s STP=%.3f\n", name, mix.Name, r.stp)
	}))
	if err != nil {
		return Figure{}, err
	}
	for pi, p := range pols {
		stps, antts := scores(runs, pi*len(mixes), len(mixes))
		fig.Series = append(fig.Series,
			Series{Name: p.name + " STP", Labels: []string{"mean"}, Values: []float64{Mean(stps)}},
			Series{Name: p.name + " ANTT", Labels: []string{"mean"}, Values: []float64{Mean(antts)}})
	}
	fig.Notes = append(fig.Notes,
		"paper: BP(CD-Search) is +11.2% STP over BP; UGPU beats BP(CD-Search) by 22.4% STP / 43.6% ANTT")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// bpVsUGPU is the policy pair of the multi-program and AI figures.
func (o Options) bpVsUGPU() []namedPolicy {
	return []namedPolicy{
		{"BP", anyMix(core.NewBP)},
		{"UGPU", o.ugpu},
	}
}

// bpVsUGPUMeans folds one mix set's BP-then-UGPU runs, starting at first,
// into the four-value series of Figures 14 and 15.
func bpVsUGPUMeans(name string, runs []mixRun, first, n int) Series {
	bpSTP, bpANTT := scores(runs, first, n)
	ugSTP, ugANTT := scores(runs, first+n, n)
	return Series{
		Name:   name,
		Labels: []string{"BP STP", "UGPU STP", "BP ANTT", "UGPU ANTT"},
		Values: []float64{Mean(bpSTP), Mean(ugSTP), Mean(bpANTT), Mean(ugANTT)},
	}
}

// Figure14 evaluates four- and eight-program mixes: BP vs UGPU.
func (o Options) Figure14() (Figure, error) {
	n := o.Mixes
	if n <= 0 {
		n = 4
	}
	alone := o.aloneRef(o.Cfg)
	fig := Figure{ID: "Figure 14", Title: "STP/ANTT for 4- and 8-program workloads (means)"}
	sets := []struct {
		name  string
		mixes []workload.Mix
	}{
		{"4-program", workload.FourProgramMixes(n, 11)},
		{"8-program", workload.EightProgramMixes(n, 13)},
	}
	var cells []mixCell
	for _, set := range sets {
		cells = append(cells, scoredCells(o.bpVsUGPU(), set.mixes, alone, scoreLine)...)
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}
	first := 0
	for _, set := range sets {
		fig.Series = append(fig.Series, bpVsUGPUMeans(set.name, runs, first, len(set.mixes)))
		first += 2 * len(set.mixes)
	}
	fig.Notes = append(fig.Notes,
		"paper: UGPU improves STP 38.3% (4-program) and 30.3% (8-program) over BP")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// Figure15 evaluates the AI workload mixes.
func (o Options) Figure15() (Figure, error) {
	mixes := workload.AIMixes()
	if o.Mixes > 0 && o.Mixes < len(mixes) {
		mixes = mixes[:o.Mixes]
	}
	runs, links, err := o.runMixCells(scoredCells(o.bpVsUGPU(), mixes, o.aloneRef(o.Cfg), scoreLine))
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 15",
		Title:  "STP/ANTT for AI workloads (means)",
		Series: []Series{bpVsUGPUMeans("AI mixes", runs, 0, len(mixes))},
		Notes: append([]string{"paper: UGPU improves STP 39.4% and ANTT 57.6% over BP for AI workloads"},
			o.digestNote(links, "all cells")...),
	}, nil
}

// Figure16 evaluates QoS support: the high-priority (compute-bound) app has
// a 0.75 normalized-progress target under MPS, BP and UGPU.
func (o Options) Figure16() (Figure, error) {
	const target = 0.75
	mixes := o.heteroMixes()
	alone := o.aloneRef(o.Cfg)
	fig := Figure{ID: "Figure 16", Title: "QoS support: high-priority NP and STP (means)"}

	// High-priority app first: reorder each mix so the compute-bound app is
	// app 0 (the paper designates the compute-bound app as high priority).
	qosMixes := make([]workload.Mix, len(mixes))
	for i, m := range mixes {
		apps := append([]workload.Benchmark(nil), m.Apps...)
		if apps[0].Class != workload.ComputeBound {
			apps[0], apps[1] = apps[1], apps[0]
		}
		qosMixes[i] = workload.Mix{Name: apps[0].Abbr + "_" + apps[1].Abbr, Apps: apps, Hetero: true}
	}

	pols := []namedPolicy{
		{"MPS", anyMix(func() core.Policy { return core.NewMPSQoS(o.Cfg) })},
		{"BP", anyMix(core.NewBPQoS)},
		{"UGPU", func(mix workload.Mix) (core.Policy, error) {
			ref, err := alone.Table(mix)
			if err != nil {
				return nil, err
			}
			return core.NewUGPUQoS(o.Cfg, ref, target), nil
		}},
	}
	np := func(r mixRun) float64 { return metrics.NP(r.res.Apps[0].IPC, r.ref[0]) }
	runs, links, err := o.runMixCells(scoredCells(pols, qosMixes, alone, func(name string, mix workload.Mix, r mixRun) string {
		return fmt.Sprintf("  %-5s %-22s NP=%.3f STP=%.3f\n", name, mix.Name, np(r), r.stp)
	}))
	if err != nil {
		return Figure{}, err
	}
	for pi, p := range pols {
		var nps, stps []float64
		violations := 0
		for _, r := range runs[pi*len(qosMixes) : (pi+1)*len(qosMixes)] {
			nps = append(nps, np(r))
			stps = append(stps, r.stp)
			if np(r) < target*0.97 {
				violations++
			}
		}
		fig.Series = append(fig.Series, Series{
			Name:   p.name,
			Labels: []string{"mean NP", "mean STP", "violations"},
			Values: []float64{Mean(nps), Mean(stps), float64(violations)},
		})
	}
	fig.Notes = append(fig.Notes,
		"paper: BP and UGPU always meet the 0.75 NP target; MPS violates it for some mixes; UGPU STP is +33.7% over BP")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// MigrationMicro reproduces the Section 4.5 microbenchmark: page migration
// latency per mode on an idle memory system, and the MIGRATION command
// count per page.
func (o Options) MigrationMicro() (Figure, error) {
	cfg := o.Cfg
	fig := Figure{ID: "Sec 4.5", Title: "page migration microbenchmark (idle system)"}
	modes := []struct {
		name string
		mode dram.MigrationMode
	}{
		{"PPMM", dram.ModePPMM},
		{"read/write", dram.ModeReadWrite},
		{"cross-stack", dram.ModeCrossStack},
	}
	// Each mode drives its own HBM instance and address mapper, so the three
	// microbenchmarks are independent cells; an HBM's digest link is its
	// final state.
	lat, links, err := runCells(o, o.Parallel, 0, len(modes), 1, func(i int, trs []*trace.Tracer) (cellOut[float64], error) {
		mc := modes[i]
		mapper := addr.NewCustomMapper(cfg)
		h := dram.New(cfg, 1)
		h.Trace = trs[0]
		src := mapper.PageLines(mapper.FrameBase(0, 0))
		dst := mapper.PageLines(mapper.FrameBase(1, 0))
		if mc.mode == dram.ModeCrossStack {
			for j := range dst {
				dst[j].Stack = (dst[j].Stack + 1) % cfg.NumStacks
			}
		}
		var done uint64
		pending := 1
		if err := h.StartMigration(0, src, dst, mc.mode, 0, func(c uint64) { done = c; pending-- }); err != nil {
			return cellOut[float64]{}, err
		}
		for c := uint64(0); pending > 0 && c < 1_000_000; c++ {
			h.Tick(c)
		}
		out := cellOut[float64]{val: float64(done)}
		if cfg.DigestEvery > 0 {
			out.digs = []uint64{uint64(h.AppendDigest(digest.New()))}
		}
		return out, nil
	})
	if err != nil {
		return Figure{}, err
	}
	var labels []string
	for _, mc := range modes {
		labels = append(labels, mc.name)
	}
	fig.Series = []Series{{Name: "page migration cycles", Labels: labels, Values: lat}}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("one page = %d MIGRATION commands over 16 parallel (stack, bank-group) units; MIGRATION latency %d cycles",
			cfg.LinesPerPage(), cfg.MigrationCycles),
		"paper: ~40 GPU cycles per MIGRATION, 32 commands per page, 4 bank groups in parallel")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// PageSizeSensitivity reruns the headline comparison at 4/8/16 KB pages
// (Section 5's sensitivity analysis).
func (o Options) PageSizeSensitivity() (Figure, error) {
	pvc, _ := workload.ByAbbr("PVC")
	dxtc, _ := workload.ByAbbr("DXTC")
	mix := workload.Mix{Name: "PVC_DXTC", Apps: []workload.Benchmark{pvc, dxtc}, Hetero: true}
	fig := Figure{ID: "Sec 6 sensitivity", Title: "UGPU/BP STP ratio vs page size"}
	pages := []int{4096, 8192, 16384}
	// Each page size changes the config shape, so its two cells (BP, then
	// UGPU) carry their own config and alone reference (solo runs are not
	// shareable across page sizes).
	var cells []mixCell
	for _, page := range pages {
		cfg := o.Cfg
		cfg.PageBytes = page
		alone := o.aloneRef(cfg)
		cells = append(cells,
			mixCell{pol: anyMix(core.NewBP), mix: mix, cfg: &cfg, alone: alone},
			mixCell{pol: anyMix(func() core.Policy { return core.NewUGPU(cfg) }), mix: mix, cfg: &cfg, alone: alone})
	}
	runs, links, err := o.runMixCells(cells)
	if err != nil {
		return Figure{}, err
	}
	var labels []string
	var ratio []float64
	for i, page := range pages {
		bp, ug := runs[2*i].stp, runs[2*i+1].stp
		labels = append(labels, fmt.Sprintf("%dKB", page/1024))
		ratio = append(ratio, ug/bp)
		o.logf("  page %dKB: BP %.3f UGPU %.3f\n", page/1024, bp, ug)
	}
	fig.Series = []Series{{Name: "UGPU STP / BP STP", Labels: labels, Values: ratio}}
	fig.Notes = append(fig.Notes, "paper: the PageMove idea works across page sizes")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}

// Table2Profiles runs every benchmark solo and reports its simulated APKI,
// LLC hit rate and classification next to the Table 2 reference MPKI.
func (o Options) Table2Profiles() (Figure, error) {
	fig := Figure{ID: "Table 2", Title: "benchmark profiles: simulated APKI vs paper MPKI"}
	bw := core.BandwidthFor(o.Cfg)
	benches := workload.Table2()
	// Profile at the balanced-partition operating point (half the GPU: 40
	// SMs, 4 channel groups) — the allocation at which the paper's
	// bandwidth-demand classification decides reallocation direction.
	stats, links, err := runCells(o, o.Parallel, 0, len(benches), 1, func(i int, trs []*trace.Tracer) (cellOut[gpu.EpochStats], error) {
		return o.soloCell(benches[i], o.Cfg.NumSMs/2, o.Cfg.ChannelGroups()/2, false, trs[0])
	})
	if err != nil {
		return Figure{}, err
	}
	var apki, table, class Series
	apki.Name, table.Name, class.Name = "simulated APKI", "paper MPKI", "memory-bound (1=yes)"
	for i, b := range benches {
		st := stats[i]
		memBound := bw.MemoryBound(core.ProfileOf(st))
		apki.Labels = append(apki.Labels, b.Abbr)
		apki.Values = append(apki.Values, st.APKI())
		table.Labels = append(table.Labels, b.Abbr)
		table.Values = append(table.Values, b.TableMPKI)
		class.Labels = append(class.Labels, b.Abbr)
		v := 0.0
		if memBound {
			v = 1
		}
		class.Values = append(class.Values, v)
		o.logf("  %-8s APKI=%7.2f H=%.2f class=%v (table MPKI %.2f, %v)\n",
			b.Abbr, st.APKI(), st.HitRate(), memBound, b.TableMPKI, b.Class)
	}
	fig.Series = []Series{apki, table, class}
	fig.Notes = append(fig.Notes,
		"simulated APKI is per warp-instruction and higher than the paper's MPKI in absolute terms; the ordering and classification must match")
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}
