package main

// The four workloads. Each is a fixed amount of simulated work, a unit,
// that the harness repeats until its measuring time is spent. A unit's
// set-up calibrates fresh alone-IPC references and builds the simulator,
// as every figure run does, so modelled caches start empty; its run phase
// simulates to completion; every model output is folded into one hash.
//
// The simulator is driven only through its public entry points:
// core.NewRunner/Runner.Run, metrics.AloneIPC.Get, serve.New/Server.Run,
// clusterserve.New/Frontend.Run and parallel.Map.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/digest"
	"ugpu/internal/dram"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/parallel"
	"ugpu/internal/power"
	"ugpu/internal/serve"
	"ugpu/internal/workload"
)

// workers is the fan-out width of every parallel step. It is a constant,
// not GOMAXPROCS, so every host simulates the same work in the same shape;
// two matches the two-core host the sizes below were chosen on.
const workers = 2

// smokeDiv divides every cycle count of a workload at -size smoke.
const smokeDiv = 50

// minEpochCycles is the shortest epoch a smaller size scales down to.
const minEpochCycles = 1_000

// Workload sizes at full size. A unit takes 2.5-5.5 s on the two-core
// reference host, so a 24 s run makes at least four of every workload.
const (
	// calibrationCycles is the alone-IPC calibration horizon per benchmark.
	calibrationCycles = 10_000

	pairCycles         = 300_000
	pairEpoch          = 100_000
	pairFootprintScale = 64

	sweepCycles = 75_000
	sweepEpoch  = 25_000

	serveEpoch   = 5_000
	serveBursts  = 2
	serveSlot    = 150_000 // one flash crowd per slot, at a seeded offset
	serveLCDelay = 10_000  // latency-critical jobs arrive this long after a crowd's best-effort ones
	serveTail    = 50_000  // horizon after the last slot, for its crowd to drain

	clusterGPUs   = 4
	clusterEpoch  = 5_000
	clusterCycles = 120_000
	clusterGap    = 2_500 // one arrival per gap over 3/4 of the horizon
	// clusterPowerCap is 85% of the uncapped cluster's mean power on this
	// workload (957 W at full size, seed 1), measured once and frozen.
	clusterPowerCap = 813

	jobMinLen = 4_000 // alone-cycles
	jobMaxLen = 10_000
)

// sweepPairs are the sweep-dynamic mixes: heterogeneous pairs of one
// memory-bound and one compute-bound benchmark, AI workloads included.
var sweepPairs = [][2]string{
	{"LBM", "DXTC"}, {"PVC", "HOTSPOT"}, {"RESNET", "CP"}, {"LSTM", "BH"},
	{"GRU", "MRI-Q"}, {"SC", "CONVS"}, {"EULER3D", "PF"}, {"ALEXNET", "SRAD"},
}

// servePool is the serving request mix of the serve and gray figures:
// three compute-bound and three memory-bound benchmarks.
var servePool = []string{"DXTC", "BH", "HOTSPOT", "PVC", "LBM", "FWT"}

// workloadDef names a workload and builds its units.
type workloadDef struct {
	name string
	// prepare does one unit's set-up and returns its run phase.
	prepare func(e *unitEnv) (run func() (unitResult, error), err error)
}

// workloads are listed in BENCHMARK.json in this order, with why each was
// chosen.
var workloads = []workloadDef{
	{"pair-static", pairStatic},
	{"sweep-dynamic", sweepDynamic},
	{"serve-bursty", serveBursty},
	{"cluster-gray", clusterGray},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// unitEnv is one unit's inputs and the harness's hooks into it.
type unitEnv struct {
	seed int64
	div  int // 1 at full size, smokeDiv at smoke size
	// spans is set in traced units, which also digest the machine state
	// every epoch; nil records nothing.
	spans *spanLog
}

func (e *unitEnv) traced() bool { return e.spans != nil }

// cycles scales a full-size cycle count to the unit's size.
func (e *unitEnv) cycles(n int) int { return max(n/e.div, 1) }

// config is the Table 1 machine with the unit's run length, seed and
// digest cadence.
func (e *unitEnv) config(maxCycles, epochCycles int) config.Config {
	cfg := config.Default()
	cfg.MaxCycles = e.cycles(maxCycles)
	// Epochs keep at least minEpochCycles at smoke size, where per-epoch
	// boundary work would otherwise swamp the simulation.
	cfg.EpochCycles = max(e.cycles(epochCycles), min(epochCycles, minEpochCycles))
	cfg.Seed = e.seed
	if e.traced() {
		cfg.DigestEvery = 1
	}
	return cfg
}

// unitResult is what one unit simulated.
type unitResult struct {
	cycles uint64 // GPU-cycles summed over GPUs and cells, skipped ones included
	cells  int    // simulations run
	hash   uint64 // every model output, folded
	digest uint64 // folded state-digest chains; 0 unless traced
	c      counters
}

// counters are the per-layer model statistics a unit read through the
// simulator's accessors. A counter the workload cannot reach stays 0.
type counters struct {
	skipped            uint64 // fast-forward-skipped cycles
	smActive, smCycles uint64
	instrs             uint64
	loads, l1Hits      uint64
	llcAcc, llcHits    uint64
	tlbAcc, tlbHits    uint64
	walks              uint64
	dramReads          uint64
	rowHits, rowMisses uint64
	busBusy, chanCyc   uint64
	migrationCmds      uint64
	pageMigrations     uint64
	pageFaults         uint64
	epochs             int
	reallocations      int
	attaches           int
	preemptions        int
	rejections         int
	quarantines        int
	falsePositives     int
	powerTransitions   uint64
	p99, goodput       float64
	lcGoodput          float64
}

func (c *counters) add(o counters) {
	c.skipped += o.skipped
	c.smActive += o.smActive
	c.smCycles += o.smCycles
	c.instrs += o.instrs
	c.loads += o.loads
	c.l1Hits += o.l1Hits
	c.llcAcc += o.llcAcc
	c.llcHits += o.llcHits
	c.tlbAcc += o.tlbAcc
	c.tlbHits += o.tlbHits
	c.walks += o.walks
	c.dramReads += o.dramReads
	c.rowHits += o.rowHits
	c.rowMisses += o.rowMisses
	c.busBusy += o.busBusy
	c.chanCyc += o.chanCyc
	c.migrationCmds += o.migrationCmds
	c.pageMigrations += o.pageMigrations
	c.pageFaults += o.pageFaults
	c.epochs += o.epochs
	c.reallocations += o.reallocations
}

// layers names the per-layer metrics the counters give, for a unit of the
// given length.
func (c counters) layers(cycles uint64) map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"gpu.sm_active_frac":           ratio(c.smActive, c.smCycles),
		"gpu.ff_skip_frac":             ratio(c.skipped, cycles),
		"sm.warp_instrs":               float64(c.instrs),
		"cache.l1_hit_rate":            ratio(c.l1Hits, c.loads),
		"cache.llc_hit_rate":           ratio(c.llcHits, c.llcAcc),
		"tlb.l2_hit_rate":              ratio(c.tlbHits, c.tlbAcc),
		"tlb.walks":                    float64(c.walks),
		"dram.reads":                   float64(c.dramReads),
		"dram.row_hit_rate":            ratio(c.rowHits, c.rowHits+c.rowMisses),
		"dram.bus_busy_frac":           ratio(c.busBusy, c.chanCyc),
		"dram.migration_cmds":          float64(c.migrationCmds),
		"vm.page_migrations":           float64(c.pageMigrations),
		"vm.page_faults":               float64(c.pageFaults),
		"core.reallocations":           float64(c.reallocations),
		"core.epochs":                  float64(c.epochs),
		"serve.attaches":               float64(c.attaches),
		"serve.preemptions":            float64(c.preemptions),
		"serve.rejections":             float64(c.rejections),
		"serve.p99_slowdown":           c.p99,
		"serve.goodput":                c.goodput,
		"clusterserve.quarantines":     float64(c.quarantines),
		"clusterserve.false_positives": float64(c.falsePositives),
		"clusterserve.lc_goodput":      c.lcGoodput,
		"power.transitions":            float64(c.powerTransitions),
	}
}

// gpuCounters reads one device's statistics after a run of the given
// length, and folds the simulated ones into h. The fast-forward skip count
// is an engine statistic, not a model output, so it stays out of the hash.
func gpuCounters(h digest.Hash, g *gpu.GPU, cycles uint64) (counters, digest.Hash) {
	cfg := g.Config()
	tot := g.Totals()
	l2, walks, _ := g.DebugTranslation()
	hbm := g.HBM().TotalStats()
	vms := g.VM().Stats()
	c := counters{
		skipped:        g.FastForwardStats().SkippedCycles,
		smActive:       g.SMActiveCycles(),
		smCycles:       uint64(cfg.NumSMs) * cycles,
		loads:          tot.Loads,
		l1Hits:         tot.L1Hits,
		tlbAcc:         l2.Accesses,
		tlbHits:        l2.Hits,
		walks:          walks,
		dramReads:      hbm.Reads,
		rowHits:        hbm.RowHits,
		rowMisses:      hbm.RowMisses,
		busBusy:        hbm.BusyCycles,
		chanCyc:        uint64(cfg.NumChannels()) * cycles,
		migrationCmds:  hbm.Migrations,
		pageMigrations: vms.Migrations,
		pageFaults:     vms.Faults,
	}
	h = h.U64(c.smActive).U64(tot.Loads).U64(tot.L1Hits).U64(tot.TLBL1Hits).
		U64(tot.FaultMigrations).U64(tot.RebalanceMigrations).U64(tot.ScrubMigrations).
		U64(l2.Accesses).U64(l2.Hits).U64(walks).
		U64(vms.Faults).U64(vms.Migrations).U64(vms.Allocated).U64(vms.Freed).U64(vms.Remaps)
	return c, foldHBM(h, hbm)
}

func foldHBM(h digest.Hash, s dram.ChannelStats) digest.Hash {
	return h.U64(s.Reads).U64(s.Writes).U64(s.RowHits).U64(s.RowMisses).U64(s.Activates).
		U64(s.Precharges).U64(s.Migrations).U64(s.BusyCycles).U64(s.QueueFull)
}

func foldOutcomes(h digest.Hash, out []metrics.JobOutcome) digest.Hash {
	for _, o := range out {
		h = h.Int(int(o.Class)).Int(o.Arrival).Int(o.Start).Int(o.Finish).Int(o.AloneCycles).
			Bool(o.Rejected).Int(o.Preemptions).Int(int(o.Shed)).F64(o.LCRelax)
	}
	return h
}

func foldSLO(h digest.Hash, s metrics.SLOReport) digest.Hash {
	return h.Int(s.Jobs).Int(s.Completed).Int(s.Rejected).Int(s.SLOMet).Int(s.Preemptions).
		F64(s.P50).F64(s.P95).F64(s.P99).F64(s.MeanSlowdown).F64(s.MeanQueueDelay).
		F64(s.RejectRate).F64(s.Goodput).F64(s.LCGoodput).Int(s.Shed).Int(s.Relaxed).
		Int(s.Crashes).F64(s.Availability).F64(s.MTTRCycles).F64(s.LostWork).
		Int(s.GrayFaults).Int(s.GrayDetected).Int(s.GrayFalsePositives).Int(s.GrayMissed).
		F64(s.GrayDetectEpochs).U64(s.QuarantinedGPUCycles).F64(s.GraySavedWork).F64(s.LCAvailability)
}

func benchmarks(abbrs ...string) ([]workload.Benchmark, error) {
	out := make([]workload.Benchmark, len(abbrs))
	for i, a := range abbrs {
		b, err := workload.ByAbbr(a)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// calibrate measures each benchmark's alone IPC on a fresh reference, two
// benchmarks at a time.
func calibrate(e *unitEnv, cfg config.Config, opt gpu.Options, benches []workload.Benchmark) (*metrics.AloneIPC, error) {
	defer e.spans.start("calibrate")()
	cfg.MaxCycles = e.cycles(calibrationCycles)
	cfg.DigestEvery = 0
	alone := metrics.NewAloneIPC(cfg, opt)
	_, err := parallel.Map(parallel.New(workers), len(benches), func(i int) (float64, error) {
		return alone.Get(benches[i])
	})
	return alone, err
}

// timedPolicy wraps a policy's Decide in a span and sums the LLC profile
// the runner hands it, which no other accessor exposes. The runner does not
// call Decide after the last epoch, so the LLC sums miss that epoch.
type timedPolicy struct {
	core.Policy
	spans           *spanLog
	llcAcc, llcHits uint64
}

func (p *timedPolicy) Decide(cycle uint64, stats []gpu.EpochStats) ([]core.Target, int, bool) {
	defer p.spans.start("decide")()
	for _, s := range stats {
		p.llcAcc += s.LLCAccesses
		p.llcHits += s.LLCHits
	}
	return p.Policy.Decide(cycle, stats)
}

// closedCell builds a runner for one policy over one mix; traced units wrap
// the policy in a timedPolicy.
func closedCell(e *unitEnv, cfg config.Config, pol core.Policy, mix workload.Mix) (*core.Runner, *timedPolicy, error) {
	var tp *timedPolicy
	if e.traced() {
		tp = &timedPolicy{Policy: pol, spans: e.spans}
		pol = tp
	}
	r, err := core.NewRunner(cfg, pol, mix)
	return r, tp, err
}

// runClosed runs a closed-world cell and folds its outputs and its STP and
// ANTT against the calibrated references.
func runClosed(e *unitEnv, r *core.Runner, tp *timedPolicy, alone *metrics.AloneIPC) (unitResult, error) {
	done := e.spans.start("cell")
	res, err := r.Run()
	done()
	if err != nil {
		return unitResult{}, fmt.Errorf("%s %s: %w", res.Policy, res.Mix, err)
	}
	ref, err := alone.Table(r.Mix)
	if err != nil {
		return unitResult{}, err
	}
	stp, antt := metrics.Score(res, ref)
	h := digest.New().Str(res.Mix).Str(res.Policy).U64(res.Cycles).Int(res.Epochs).
		Int(res.Reallocations).U64(res.DataMigCycles).U64(res.SMMigCycles).
		F64(res.MigFracMean).F64(res.MigFracWorst).U64(res.PageMigrations).
		U64(res.FaultMigrations).F64(stp).F64(antt)
	for i, a := range res.Apps {
		h = h.Str(a.Abbr).U64(a.Instructions).F64(a.IPC).F64(ref[i])
	}
	for _, t := range res.Final {
		h = h.Int(t.SMs).Int(t.Groups)
	}
	c, h := gpuCounters(h, r.G, res.Cycles)
	for _, a := range res.Apps {
		c.instrs += a.Instructions
	}
	c.epochs, c.reallocations = res.Epochs, res.Reallocations
	if tp != nil {
		c.llcAcc, c.llcHits = tp.llcAcc, tp.llcHits
	}
	return unitResult{cycles: res.Cycles, cells: 1, hash: uint64(h), digest: res.Digest.Final(), c: c}, nil
}

// pairStatic is the static balanced partition (BP) of PVC with DXTC at
// 1/64 footprints: no reallocation, no migration, no fast-forward skipping
// and one thread. It is the per-cycle hot loop alone — SM issue, L1 and
// LLC, NoC, TLB and HBM demand reads — and the control for any change to
// the tick loop.
func pairStatic(e *unitEnv) (func() (unitResult, error), error) {
	cfg := e.config(pairCycles, pairEpoch)
	pol := core.WithOptions(core.NewBP(), func(o *gpu.Options) { o.FootprintScale = pairFootprintScale })
	apps, err := benchmarks("PVC", "DXTC")
	if err != nil {
		return nil, err
	}
	alone, err := calibrate(e, cfg, pol.Options(), apps)
	if err != nil {
		return nil, err
	}
	r, tp, err := closedCell(e, cfg, pol, workload.Mix{Name: "PVC_DXTC", Apps: apps, Hetero: true})
	if err != nil {
		return nil, err
	}
	return func() (unitResult, error) { return runClosed(e, r, tp, alone) }, nil
}

// sweepDynamic is a paper-figure sweep in small: the UGPU policy over eight
// heterogeneous pairs, one cell per pair fanned out over two workers, each
// cell building its own runner. It runs the Fig 5 algorithm, SM draining
// and PageMove MIGRATION traffic that pair-static never reaches.
func sweepDynamic(e *unitEnv) (func() (unitResult, error), error) {
	cfg := e.config(sweepCycles, sweepEpoch)
	mixes := make([]workload.Mix, len(sweepPairs))
	var all []workload.Benchmark
	for i, p := range sweepPairs {
		apps, err := benchmarks(p[0], p[1])
		if err != nil {
			return nil, err
		}
		mixes[i] = workload.Mix{Name: p[0] + "_" + p[1], Apps: apps, Hetero: true}
		all = append(all, apps...)
	}
	alone, err := calibrate(e, cfg, gpu.DefaultOptions(), all)
	if err != nil {
		return nil, err
	}
	return func() (unitResult, error) {
		// Each cell builds its own runner, as the figure sweeps do.
		cells, err := parallel.Map(parallel.New(workers), len(mixes), func(i int) (unitResult, error) {
			r, tp, err := closedCell(e, cfg, core.NewUGPU(cfg), mixes[i])
			if err != nil {
				return unitResult{}, err
			}
			return runClosed(e, r, tp, alone)
		})
		if err != nil {
			return unitResult{}, err
		}
		var u unitResult
		h, d := digest.New(), digest.New()
		for _, c := range cells {
			u.cycles += c.cycles
			u.cells++
			u.c.add(c.c)
			h, d = h.U64(c.hash), d.U64(c.digest)
		}
		u.hash = uint64(h)
		if e.traced() {
			u.digest = uint64(d)
		}
		return u, nil
	}, nil
}

// jobLen is the i-th of n evenly spaced job lengths over [jobMinLen,
// jobMaxLen] alone-cycles.
func jobLen(i, n int) int { return jobMinLen + i*(jobMaxLen-jobMinLen)/(n-1) }

// burstJobs is the serve-bursty trace: one flash crowd per serveSlot at a
// seeded offset. A crowd brings every servePool benchmark once: the four
// best-effort jobs at its start fill the GPU, and serveLCDelay cycles later
// the two latency-critical ones, one compute-bound and one memory-bound,
// arrive and preempt two of them. A job's length is fixed by its benchmark.
// The seed picks which benchmarks are latency-critical, when each crowd
// comes, and, through the simulator seed, every address stream. Every crowd
// carries the same work in the same shape: with the classes, lengths and
// arrival order seeded freely, the serving dynamics, and with them a unit's
// cost, swing by a fifth between seeds, more than a speed bound can absorb.
func burstJobs(e *unitEnv, pool []workload.Benchmark) []workload.Job {
	rng := rand.New(rand.NewSource(e.seed))
	var es []workload.TraceEntry
	for b := 0; b < serveBursts; b++ {
		start := b*serveSlot + rng.Intn(serveSlot/4)
		lc := [2]int{rng.Intn(3), 3 + rng.Intn(3)} // servePool is three compute-bound, then three memory-bound
		for i, bench := range pool {
			j := workload.TraceEntry{Bench: bench, Class: workload.BestEffort,
				Arrival: e.cycles(start), AloneCycles: e.cycles(jobLen(i, len(pool)))}
			if i == lc[0] || i == lc[1] {
				j.Class, j.Arrival = workload.LatencyCritical, e.cycles(start+serveLCDelay)
			}
			es = append(es, j)
		}
	}
	return workload.Trace(es)
}

// cadenceJobs is the cluster-gray trace: one arrival per clusterGap cycles,
// at a seeded offset inside its gap, over the first 3/4 of the horizon. The
// jobs come in rounds that hold every pool benchmark once, in seeded order,
// every other one latency-critical; a job's length is fixed by its
// benchmark, as in burstJobs.
func cadenceJobs(e *unitEnv, pool []workload.Benchmark) []workload.Job {
	rng := rand.New(rand.NewSource(e.seed))
	n := clusterCycles * 3 / 4 / clusterGap
	var es []workload.TraceEntry
	for len(es) < n {
		for i, k := range rng.Perm(len(pool)) {
			if len(es) == n {
				break
			}
			j := workload.TraceEntry{Bench: pool[k], Class: workload.BestEffort,
				Arrival: e.cycles(len(es)*clusterGap + rng.Intn(clusterGap)), AloneCycles: e.cycles(jobLen(k, len(pool)))}
			if i%2 == 0 {
				j.Class = workload.LatencyCritical
			}
			es = append(es, j)
		}
	}
	return workload.Trace(es)
}

// serveBursty is one GPU serving flash crowds with class-aware admission:
// queueing, preemption and tenant attach/detach churn, then idle gaps that
// the fast-forward engine skips. It drives the engine's layers in another
// mix than the closed-world pairs, with per-epoch boundary work (admission,
// repartitioning, invariant audits) a large part of its cost.
func serveBursty(e *unitEnv) (func() (unitResult, error), error) {
	cfg := e.config(serveBursts*serveSlot+serveTail, serveEpoch)
	opt := gpu.DefaultOptions()
	pool, err := benchmarks(servePool...)
	if err != nil {
		return nil, err
	}
	alone, err := calibrate(e, cfg, opt, pool)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Sim: cfg, Opt: opt, Jobs: burstJobs(e, pool), Policy: serve.ClassAware, Alone: alone,
	})
	if err != nil {
		return nil, err
	}
	return func() (unitResult, error) {
		rep, err := s.Run()
		if err != nil {
			return unitResult{}, err
		}
		h := digest.New().U64(rep.Cycles).Int(rep.Epochs).Int(rep.Arrived).Int(rep.Attaches).
			Int(rep.Detaches).Int(rep.Preemptions).Int(rep.Rejections).U64(rep.Served)
		h = foldSLO(foldOutcomes(h, rep.Outcomes), rep.SLO)
		c, h := gpuCounters(h, s.GPU(), rep.Cycles)
		c.instrs, c.epochs = rep.Served, rep.Epochs
		c.attaches, c.preemptions, c.rejections = rep.Attaches, rep.Preemptions, rep.Rejections
		c.p99, c.goodput = rep.SLO.P99, rep.SLO.Goodput
		return unitResult{cycles: rep.Cycles, cells: 1, hash: uint64(h), digest: rep.Digest.Final(), c: c}, nil
	}, nil
}

// clusterGray is a four-GPU serving frontend stepped on two workers with a
// barrier every epoch: one GPU degrades (gray failure) and the health
// scorer quarantines it, DVFS governs every GPU, and the frontend splits a
// fixed power cap. It is the only workload with cluster-boundary work and
// fine-grained parallel stepping.
func clusterGray(e *unitEnv) (func() (unitResult, error), error) {
	cfg := e.config(clusterCycles, clusterEpoch)
	opt := gpu.DefaultOptions()
	opt.Power = &power.Config{}
	pool, err := benchmarks(servePool...)
	if err != nil {
		return nil, err
	}
	alone, err := calibrate(e, cfg, opt, pool)
	if err != nil {
		return nil, err
	}
	fr, err := clusterserve.New(clusterserve.Config{
		GPUs: clusterGPUs, Sim: cfg, Opt: opt, Jobs: cadenceJobs(e, pool), Seed: e.seed,
		QueueCap: 6,
		Gray:     fault.GraySpec{GPUs: 1, SMStep: 3, HBMStep: 2, NoCDrop: 0.01, Window: 0.35},
		Health:   &clusterserve.HealthConfig{EnterRatio: 0.4, SuspectAfter: 3, GrowStreak: 5},
		PowerCap: clusterPowerCap,
		Parallel: workers,
		Alone:    alone,
	})
	if err != nil {
		return nil, err
	}
	return func() (unitResult, error) {
		rep, err := fr.Run()
		if err != nil {
			return unitResult{}, err
		}
		h := digest.New().U64(rep.Cycles).Int(rep.Epochs).Int(rep.Arrived).Int(rep.Completed).
			Int(rep.Rejected).Int(rep.Shed).Int(rep.Brownouts).Int(rep.MaxTier).U64(rep.Served).
			F64(rep.Energy.Core).F64(rep.Energy.HBM).F64(rep.Energy.Total).
			U64(rep.Energy.Transitions).F64(rep.MeanPower)
		h = foldSLO(foldOutcomes(h, rep.Outcomes), rep.SLO)
		c := counters{
			instrs: rep.Served, epochs: rep.Epochs, powerTransitions: rep.Energy.Transitions,
			falsePositives: rep.SLO.GrayFalsePositives, lcGoodput: rep.SLO.LCGoodput,
		}
		for _, t := range fr.HealthLog() {
			h = h.Int(t.Cycle).Int(t.GPU).Int(int(t.From)).Int(int(t.To))
			if t.To == clusterserve.HealthQuarantined {
				c.quarantines++
			}
		}
		d := digest.New().U64(rep.Digest.Final())
		for _, b := range rep.BackendDigests {
			d = d.U64(b.Final())
		}
		u := unitResult{cycles: rep.Cycles * clusterGPUs, cells: 1, hash: uint64(h), c: c}
		if e.traced() {
			u.digest = uint64(d)
		}
		return u, nil
	}, nil
}

// spanLog sums the harness's wall-clock spans by name. A nil log records
// nothing, so untraced units carry no instrumentation.
type spanLog struct {
	mu    sync.Mutex
	total map[string]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{total: map[string]time.Duration{}} }

// start opens a span; calling the returned func closes it.
func (s *spanLog) start(name string) func() {
	if s == nil {
		return func() {}
	}
	t := time.Now()
	return func() {
		d := time.Since(t)
		s.mu.Lock()
		s.total[name] += d
		s.mu.Unlock()
	}
}

func (s *spanLog) get(name string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total[name]
}
