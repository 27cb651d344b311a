package serve

import (
	"reflect"
	"strings"
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/workload"
)

func testSim() config.Config {
	cfg := config.Default()
	cfg.EpochCycles = 10_000
	cfg.MaxCycles = 120_000
	return cfg
}

func testOpt() gpu.Options {
	opt := gpu.DefaultOptions()
	opt.CheckReads = true
	opt.FootprintScale = 64
	return opt
}

// primedAlone returns an AloneIPC cache primed with plausible solo IPCs so
// tests do not pay for full-horizon solo simulations.
func primedAlone(cfg config.Config, opt gpu.Options) *metrics.AloneIPC {
	a := metrics.NewAloneIPC(cfg, opt)
	for _, b := range workload.Table2() {
		if b.Class == workload.ComputeBound {
			a.Prime(b.Abbr, 120)
		} else {
			a.Prime(b.Abbr, 40)
		}
	}
	return a
}

func mustBench(t *testing.T, abbr string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func traceConfig(t *testing.T, pol Policy) Config {
	t.Helper()
	cfg := testSim()
	dxtc, pvc := mustBench(t, "DXTC"), mustBench(t, "PVC")
	return Config{
		Sim:    cfg,
		Opt:    testOpt(),
		Policy: pol,
		Alone:  primedAlone(cfg, testOpt()),
		Jobs: workload.Trace([]workload.TraceEntry{
			{Arrival: 1_000, Bench: dxtc, Class: workload.LatencyCritical, AloneCycles: 20_000},
			{Arrival: 5_000, Bench: pvc, Class: workload.BestEffort, AloneCycles: 30_000},
			{Arrival: 30_000, Bench: dxtc, Class: workload.LatencyCritical, AloneCycles: 15_000},
			{Arrival: 55_000, Bench: pvc, Class: workload.BestEffort, AloneCycles: 20_000},
		}),
	}
}

func TestServeTraceCompletes(t *testing.T) {
	s, err := New(traceConfig(t, ClassAware))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived != 4 {
		t.Fatalf("observed %d arrivals, want 4", rep.Arrived)
	}
	if rep.SLO.Completed != 4 {
		t.Fatalf("completed %d of 4 jobs over a roomy horizon: %+v", rep.SLO.Completed, rep.Outcomes)
	}
	if rep.Attaches < 4 || rep.Detaches < 4 {
		t.Fatalf("attaches=%d detaches=%d, want >= 4 each", rep.Attaches, rep.Detaches)
	}
	for i, o := range rep.Outcomes {
		if o.Start < o.Arrival {
			t.Fatalf("job %d admitted at %d before arrival %d", i, o.Start, o.Arrival)
		}
		if o.Finish <= o.Start {
			t.Fatalf("job %d finish %d <= start %d", i, o.Finish, o.Start)
		}
	}
	if rep.SLO.P99 < rep.SLO.P50 {
		t.Fatalf("p99 %.2f < p50 %.2f", rep.SLO.P99, rep.SLO.P50)
	}
	// The machine must end clean: no tenant leaked after its departure.
	if err := s.GPU().CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

func TestServeDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := testSim()
		c := Config{
			Sim: cfg, Opt: testOpt(), Policy: ClassAware, Seed: 11,
			Alone: primedAlone(cfg, testOpt()),
			Arrivals: workload.ArrivalSpec{
				Horizon: 100_000, MeanGap: 15_000, LCFraction: 0.5,
				MinLen: 8_000, MaxLen: 25_000,
				Benchmarks: []workload.Benchmark{mustBench(t, "DXTC"), mustBench(t, "PVC")},
			},
		}
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestServePreemptionAndPolicyOrder(t *testing.T) {
	// Saturate a tiny machine with BE work, then land LC arrivals: the
	// class-aware policy must preempt; in-order must not.
	mk := func(pol Policy) Config {
		cfg := testSim()
		cfg.MaxCycles = 150_000
		pvc, dxtc := mustBench(t, "PVC"), mustBench(t, "DXTC")
		var entries []workload.TraceEntry
		for i := 0; i < 4; i++ {
			entries = append(entries, workload.TraceEntry{
				Arrival: 1_000 + i, Bench: pvc, Class: workload.BestEffort, AloneCycles: 120_000,
			})
		}
		for i := 0; i < 3; i++ {
			entries = append(entries, workload.TraceEntry{
				Arrival: 30_000 + i, Bench: dxtc, Class: workload.LatencyCritical, AloneCycles: 10_000,
			})
		}
		return Config{
			Sim: cfg, Opt: testOpt(), Policy: pol,
			Alone: primedAlone(cfg, testOpt()),
			Jobs:  workload.Trace(entries),
		}
	}
	sCA, err := New(mk(ClassAware))
	if err != nil {
		t.Fatal(err)
	}
	repCA, err := sCA.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repCA.Preemptions == 0 {
		t.Error("class-aware: no preemptions despite blocked LC work")
	}
	sIO, err := New(mk(InOrder))
	if err != nil {
		t.Fatal(err)
	}
	repIO, err := sIO.Run()
	if err != nil {
		t.Fatal(err)
	}
	if repIO.Preemptions != 0 {
		t.Errorf("in-order preempted %d times", repIO.Preemptions)
	}
	// LC jobs (outcomes 4..6) must wait longer under in-order.
	lcDelay := func(r *Report) (d float64) {
		n := 0
		for _, o := range r.Outcomes {
			if o.Class == workload.LatencyCritical && o.Start >= 0 {
				d += float64(o.Start - o.Arrival)
				n++
			}
		}
		if n == 0 {
			return 1e18
		}
		return d / float64(n)
	}
	if lcDelay(repCA) > lcDelay(repIO) {
		t.Errorf("class-aware mean LC queue delay %.0f > in-order %.0f", lcDelay(repCA), lcDelay(repIO))
	}
}

func TestServeRejectionOnFullQueue(t *testing.T) {
	cfg := testSim()
	cfg.MaxCycles = 40_000
	pvc := mustBench(t, "PVC")
	var entries []workload.TraceEntry
	for i := 0; i < 12; i++ {
		entries = append(entries, workload.TraceEntry{
			Arrival: 1_000 + i, Bench: pvc, Class: workload.BestEffort, AloneCycles: 100_000,
		})
	}
	s, err := New(Config{
		Sim: cfg, Opt: testOpt(), Policy: InOrder, QueueCap: 3,
		Alone: primedAlone(cfg, testOpt()),
		Jobs:  workload.Trace(entries),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 12 arrivals, 4 resident + 3 queued: the rest must be rejected.
	if rep.Rejections < 5 {
		t.Fatalf("rejections = %d, want >= 5 (queue cap 3, 12 arrivals)", rep.Rejections)
	}
	if rep.SLO.RejectRate <= 0 {
		t.Fatal("reject rate not reported")
	}
}

func TestServeWithFaultsDeterministic(t *testing.T) {
	run := func() *Report {
		cfg := testSim()
		opt := testOpt()
		opt.Faults = fault.Spec{SMs: 2, Groups: 1}
		opt.FaultSeed = 5
		c := Config{
			Sim: cfg, Opt: opt, Policy: LoadAware, Seed: 3,
			Alone: primedAlone(cfg, opt),
			Arrivals: workload.ArrivalSpec{
				Horizon: 100_000, MeanGap: 12_000, LCFraction: 0.5,
				MinLen: 8_000, MaxLen: 20_000,
				Benchmarks: []workload.Benchmark{mustBench(t, "DXTC"), mustBench(t, "PVC")},
			},
		}
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.GPU().CheckInvariants(); err != nil {
			t.Fatalf("final invariants under faults: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulty serve runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSplitGroups(t *testing.T) {
	got := splitGroups([]int{0, 1, 2, 3, 4, 5, 6, 7}, 3)
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitGroups = %v, want %v", got, want)
	}
}

// TestServeOverloadCounterCoherence is the ISSUE 4 regression test for the
// preemption accounting: under a seeded overload (arrival rate well past
// capacity, tight queues), jobs are preempted and later readmitted, and every
// counter must stay coherent — no preempted-then-readmitted job may be
// double-counted in the per-job or global tallies. The invariants checked:
//
//	preemptions  == Σ per-job preempts      (global mirrors per-job exactly)
//	detaches     == preemptions + completed (each eviction/completion once)
//	attaches     == started + readmissions, readmissions <= preemptions
//	attaches - detaches == tenants still resident at the horizon
//
// Before the fix, the preemption counters were bumped before BeginDetach was
// known to succeed, so a failed eviction inflated both tallies and broke the
// first two identities.
func TestServeOverloadCounterCoherence(t *testing.T) {
	cfg := testSim()
	cfg.MaxCycles = 150_000
	// BE-heavy stream past the maxResident slots: long best-effort jobs
	// occupy them, latency-critical arrivals preempt them, the evicted jobs
	// readmit after the LC burst drains, and the tight queues reject the
	// excess. Seed 6 deterministically produces all three event kinds.
	c := Config{
		Sim: cfg, Opt: testOpt(), Policy: ClassAware, Seed: 6,
		QueueCap: 2,
		Alone:    primedAlone(cfg, testOpt()),
		Arrivals: workload.ArrivalSpec{
			Horizon: 100_000, MeanGap: 4_000, LCFraction: 0.3,
			MinLen: 20_000, MaxLen: 40_000,
			Benchmarks: []workload.Benchmark{mustBench(t, "DXTC"), mustBench(t, "PVC")},
		},
	}
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The schedule must actually overload the machine, or the invariants
	// below are vacuous.
	if rep.Preemptions == 0 {
		t.Fatalf("overload schedule produced no preemptions: %+v", rep)
	}
	if rep.Rejections == 0 {
		t.Fatalf("overload schedule produced no rejections: %+v", rep)
	}

	if len(rep.Outcomes) != rep.Arrived {
		t.Fatalf("outcomes = %d, arrivals = %d: jobs duplicated or dropped", len(rep.Outcomes), rep.Arrived)
	}
	perJob, started, completed := 0, 0, 0
	for i, oc := range rep.Outcomes {
		perJob += oc.Preemptions
		if oc.Start >= 0 {
			started++
		}
		if oc.Completed() {
			completed++
		}
		if oc.Rejected && (oc.Start >= 0 || oc.Completed()) {
			t.Fatalf("job %d both rejected and admitted: %+v", i, oc)
		}
	}
	if perJob != rep.Preemptions {
		t.Fatalf("per-job preempts sum %d != global preemptions %d", perJob, rep.Preemptions)
	}
	if rep.Detaches != rep.Preemptions+completed {
		t.Fatalf("detaches %d != preemptions %d + completed %d", rep.Detaches, rep.Preemptions, completed)
	}
	readmissions := rep.Attaches - started
	if readmissions < 0 || readmissions > rep.Preemptions {
		t.Fatalf("readmissions %d out of range [0, %d] (attaches=%d started=%d)",
			readmissions, rep.Preemptions, rep.Attaches, started)
	}
	if readmissions == 0 {
		t.Fatalf("no preempted job was readmitted; the double-count hazard was never exercised")
	}
	resident := rep.Attaches - rep.Detaches
	if resident < 0 || resident > maxResident {
		t.Fatalf("attaches-detaches = %d, want a resident count in [0, %d]", resident, maxResident)
	}
	if err := s.GPU().CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

// TestPreemptionDetachFailureSurfaces: when the GPU no longer holds the
// preemption victim's slot as active, the refused BeginDetach fails the
// boundary instead of silently ending preemption.
func TestPreemptionDetachFailureSurfaces(t *testing.T) {
	cfg := backendConfig(t)
	cfg.Policy = ClassAware
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill every resident slot with best-effort work, so the LC arrival
	// below must preempt.
	for id := 0; id < maxResident; id++ {
		be := Resume{
			Job:   workload.Job{ID: id, Bench: mustBench(t, "PVC"), Class: workload.BestEffort, AloneCycles: 100_000},
			Start: -1,
		}
		if !s.Offer(0, be, false) {
			t.Fatalf("backend refused best-effort job %d", id)
		}
	}
	epoch := uint64(s.cfg.Sim.EpochCycles)
	if err := s.StepEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	// The victim is the most recently admitted; detach its slot behind the
	// server's back.
	victim := s.jobs[maxResident-1]
	if victim.slot < 0 || len(s.activeSlots()) != maxResident {
		t.Fatalf("machine not full: %d residents, victim slot %d", len(s.activeSlots()), victim.slot)
	}
	cycle := s.g.Cycle()
	if err := s.g.BeginDetach(cycle, victim.slot); err != nil {
		t.Fatal(err)
	}
	lc := Resume{
		Job:   workload.Job{ID: maxResident, Bench: mustBench(t, "DXTC"), Class: workload.LatencyCritical, Arrival: int(cycle), AloneCycles: 20_000},
		Start: -1,
	}
	if !s.Offer(int(cycle), lc, false) {
		t.Fatal("backend refused the latency-critical job")
	}
	err = s.StepEpoch(epoch)
	if err == nil || !strings.Contains(err.Error(), "detach of app") {
		t.Fatalf("StepEpoch = %v, want the refused preemption detach", err)
	}
	if s.preemptions != 0 {
		t.Fatalf("preemptions = %d after a refused detach, want 0", s.preemptions)
	}
}
