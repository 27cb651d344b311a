package clusterserve

// Cluster health-scorer and quarantine tests (ISSUE 10): detection and the
// full quarantine lifecycle under an injected gray window, zero false
// positives on healthy/brownout/power-capped clusters, hysteresis, the
// crash-during-quarantine overlap, the parked-probe edge, and byte-identical
// determinism across stepping modes.

import (
	"bytes"
	"reflect"
	"testing"

	"ugpu/internal/fault"
	"ugpu/internal/power"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// grayJobs is a deterministic stream heavy enough to keep all four GPUs
// populated through a mid-run gray window: arrivals every 2K cycles through
// 36K, alternating classes.
func grayJobs(t *testing.T) []workload.Job {
	t.Helper()
	dxtc, pvc := mustBench(t, "DXTC"), mustBench(t, "PVC")
	var entries []workload.TraceEntry
	for i := 0; i < 18; i++ {
		b, class := dxtc, workload.LatencyCritical
		if i%2 == 1 {
			b, class = pvc, workload.BestEffort
		}
		entries = append(entries, workload.TraceEntry{
			Arrival:     i * 2_000,
			Bench:       b,
			Class:       class,
			AloneCycles: 20_000 + (i%4)*4_000,
		})
	}
	return workload.Trace(entries)
}

// grayWindow is the explicit one-victim schedule the lifecycle tests share:
// GPU 1 degraded hard (quarter issue rate) for the middle third of the run.
func grayWindow() []fault.GrayFault {
	return []fault.GrayFault{
		{Start: 20_000, End: 40_000, GPU: 1, SMStep: 3, HBMStep: 1, NoCDrop: 0.005},
	}
}

// grayConfig is a 4-GPU cluster with health scoring armed, the DVFS ladder
// present (P-state floors need it to bite), and no crash plan.
func grayConfig(t *testing.T) Config {
	t.Helper()
	sim := testSim()
	opt := testOpt()
	opt.Power = &power.Config{}
	return Config{
		GPUs:      4,
		Sim:       sim,
		Opt:       opt,
		Jobs:      grayJobs(t),
		Alone:     primedAlone(sim, testOpt()),
		CrashPlan: []fault.Crash{},
		GrayPlan:  grayWindow(),
		Health:    &HealthConfig{},
		QueueCap:  2,
	}
}

// runGray builds and runs one gray-configured cluster with tracing on.
func runGray(t *testing.T, mut func(*Config)) (*Frontend, *Report, []byte) {
	return runGrayTuned(t, mut, nil)
}

// runGrayTuned is runGray with tune, when non-nil, adjusting the built
// frontend's unexported knobs before the run.
func runGrayTuned(t *testing.T, mut func(*Config), tune func(*Frontend)) (*Frontend, *Report, []byte) {
	t.Helper()
	cfg := grayConfig(t)
	cfg.Trace = trace.New(trace.DefaultCapacity)
	cfg.BackendTracers = make([]*trace.Tracer, 4)
	for i := range cfg.BackendTracers {
		cfg.BackendTracers[i] = trace.New(trace.DefaultCapacity)
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(f)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return f, rep, traceJSONL(t, cfg)
}

// TestClusterGrayQuarantineLifecycle: the scorer convicts the degraded GPU
// (and nobody else), quarantine drains its LC work with live progress, the
// accounting lands in the SLO report, and every stage is traced.
func TestClusterGrayQuarantineLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	// Checkpoints far apart: the drain's saved-work accounting counts
	// progress past the last checkpoint, which a just-checkpointed tenant
	// has none of.
	f, rep, tr := runGrayTuned(t, nil, func(f *Frontend) { f.ckptEvery = 1 << 30 })

	if rep.SLO.GrayFaults != 1 {
		t.Fatalf("GrayFaults = %d, want 1", rep.SLO.GrayFaults)
	}
	if rep.SLO.GrayDetected != 1 || rep.SLO.GrayMissed != 0 {
		t.Errorf("detected=%d missed=%d, want 1/0 (log: %+v)",
			rep.SLO.GrayDetected, rep.SLO.GrayMissed, f.HealthLog())
	}
	if rep.SLO.GrayFalsePositives != 0 {
		t.Errorf("false positives = %d, want 0 (log: %+v)",
			rep.SLO.GrayFalsePositives, f.HealthLog())
	}
	if rep.SLO.GrayDetectEpochs <= 0 || rep.SLO.GrayDetectEpochs > 6 {
		t.Errorf("detection latency = %g epochs, want (0,6]", rep.SLO.GrayDetectEpochs)
	}
	if rep.SLO.QuarantinedGPUCycles == 0 {
		t.Error("victim was never quarantined")
	}
	if rep.SLO.GraySavedWork <= 0 {
		t.Error("drain preserved no live progress")
	}

	// Only the victim moves through the machine; suspicion precedes
	// quarantine on a continuous bad streak.
	var sawSuspect, sawQuarantine bool
	for _, h := range f.HealthLog() {
		if h.GPU != 1 {
			t.Errorf("healthy GPU %d transitioned %s -> %s", h.GPU, h.From, h.To)
			continue
		}
		switch {
		case h.From == HealthHealthy && h.To == HealthSuspect:
			sawSuspect = true
		case h.From == HealthSuspect && h.To == HealthQuarantined:
			if !sawSuspect {
				t.Error("quarantined without prior suspicion")
			}
			sawQuarantine = true
		}
	}
	if !sawSuspect || !sawQuarantine {
		t.Fatalf("lifecycle incomplete: suspect=%v quarantine=%v (log: %+v)",
			sawSuspect, sawQuarantine, f.HealthLog())
	}

	// No crashes: full availability, but LC availability excludes the
	// quarantined (alive) GPU-cycles.
	if rep.SLO.Availability != 1 {
		t.Errorf("availability = %g with no crashes, want 1", rep.SLO.Availability)
	}
	if rep.SLO.LCAvailability >= rep.SLO.Availability {
		t.Errorf("LC availability %g not below availability %g despite quarantine",
			rep.SLO.LCAvailability, rep.SLO.Availability)
	}

	// Apply + clear gray-fault events, health transitions, and the drain all
	// appear in the merged trace.
	for _, want := range []string{`"kind":"gray-fault"`, `"kind":"health"`, `"kind":"quarantine-drain"`} {
		if !bytes.Contains(tr, []byte(want)) {
			t.Errorf("merged trace missing %s events", want)
		}
	}

	// Nothing vanishes across the drain: conservation over terminal buckets.
	inFlight := 0
	for _, oc := range rep.Outcomes {
		if !oc.Completed() && !oc.Rejected && oc.Shed == 0 {
			inFlight++
		}
	}
	if rep.Completed+rep.Rejected+rep.Shed+inFlight != rep.Arrived {
		t.Errorf("job conservation violated: %d+%d+%d+%d != %d",
			rep.Completed, rep.Rejected, rep.Shed, inFlight, rep.Arrived)
	}
}

// TestClusterHealthyZeroFalsePositives: with the scorer armed and no
// degradation anywhere, nobody is ever suspected and the LC availability
// equals the crash availability.
func TestClusterHealthyZeroFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, rep, _ := runGray(t, func(c *Config) { c.GrayPlan = []fault.GrayFault{} })
	if len(f.HealthLog()) != 0 {
		t.Errorf("healthy cluster logged transitions: %+v", f.HealthLog())
	}
	if rep.SLO.GrayFalsePositives != 0 || rep.SLO.GrayDetected != 0 {
		t.Errorf("healthy cluster: fp=%d detected=%d, want 0/0",
			rep.SLO.GrayFalsePositives, rep.SLO.GrayDetected)
	}
	if rep.SLO.QuarantinedGPUCycles != 0 {
		t.Errorf("healthy cluster quarantined %d GPU-cycles", rep.SLO.QuarantinedGPUCycles)
	}
	if rep.SLO.LCAvailability != rep.SLO.Availability {
		t.Errorf("LC availability %g != availability %g with no quarantine",
			rep.SLO.LCAvailability, rep.SLO.Availability)
	}
}

// TestClusterHealthNeutralUnderPowerCap: a cluster-wide power cap throttles
// every GPU like a gray fault would — but cap-forced epochs are neutral, so
// the scorer convicts nobody.
func TestClusterHealthNeutralUnderPowerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, _, _ := runGray(t, func(c *Config) {
		c.GrayPlan = []fault.GrayFault{}
		c.PowerCap = 40 // far below the 4-GPU draw: cap depth on every backend
	})
	if len(f.HealthLog()) != 0 {
		t.Errorf("power-capped cluster logged transitions: %+v", f.HealthLog())
	}
}

// TestClusterHealthNoFPUnderBrownoutOverload: a saturating arrival burst
// trips the brownout controller and grows every queue; load is not sickness,
// so the scorer stays quiet.
func TestClusterHealthNoFPUnderBrownoutOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, rep, _ := runGray(t, func(c *Config) {
		c.GrayPlan = []fault.GrayFault{}
		c.Brownout = true
		dxtc, pvc := mustBench(t, "DXTC"), mustBench(t, "PVC")
		var entries []workload.TraceEntry
		for i := 0; i < 48; i++ {
			b, class := dxtc, workload.LatencyCritical
			if i%3 == 2 {
				b, class = pvc, workload.BestEffort
			}
			entries = append(entries, workload.TraceEntry{
				Arrival:     (i % 24) * 1_000,
				Bench:       b,
				Class:       class,
				AloneCycles: 18_000 + (i%5)*3_000,
			})
		}
		c.Jobs = workload.Trace(entries)
	})
	if len(f.HealthLog()) != 0 {
		t.Errorf("overloaded cluster logged transitions: %+v", f.HealthLog())
	}
	if rep.SLO.GrayFalsePositives != 0 {
		t.Errorf("overload produced %d false positives", rep.SLO.GrayFalsePositives)
	}
}

// TestClusterHealthHysteresisNoFlap: a borderline degradation (one P-state
// step — well inside the dead band between EnterRatio and exitRatio) never
// flaps the state machine: the victim either stays healthy the whole run or
// transitions monotonically, but never oscillates suspect -> healthy ->
// suspect.
func TestClusterHealthHysteresisNoFlap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, _, _ := runGray(t, func(c *Config) {
		c.GrayPlan = []fault.GrayFault{
			{Start: 15_000, End: 50_000, GPU: 2, SMStep: 1, NoCDrop: 0},
		}
	})
	clears := 0
	for _, h := range f.HealthLog() {
		if h.From == HealthSuspect && h.To == HealthHealthy {
			clears++
		}
	}
	if clears > 1 {
		t.Errorf("borderline degradation flapped %d times: %+v", clears, f.HealthLog())
	}
}

// TestClusterHealthSuspicionCap: soft (progress-based) convictions are
// limited to maxSuspects concurrent non-healthy members — a second sick
// GPU must wait for a slot, and its capped streak resets so it needs fresh
// evidence once one frees — while hard NACK-burst evidence bypasses the
// cap entirely (only a real injector can produce it).
func TestClusterHealthSuspicionCap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	twoSick := func(noc float64) []fault.GrayFault {
		return []fault.GrayFault{
			{Start: 20_000, End: 45_000, GPU: 1, SMStep: 3, HBMStep: 2, NoCDrop: noc},
			{Start: 20_000, End: 45_000, GPU: 2, SMStep: 3, HBMStep: 2, NoCDrop: noc},
		}
	}
	// Six GPUs so the healthy majority anchors the peer median even with
	// two victims degraded at once (on a 4-GPU cluster the median sags
	// toward the sick scores and the verdicts turn borderline), and a
	// tight enter threshold so both quarter-rate victims convict on
	// progress alone. suspects > 0 overrides the derived cap.
	run := func(gray []fault.GrayFault, suspects int) *Frontend {
		cfg := grayConfig(t)
		cfg.GPUs = 6
		cfg.Health.EnterRatio = 0.65
		cfg.GrayPlan = gray
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if suspects > 0 {
			f.maxSuspects = suspects
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	maxConcurrent := func(f *Frontend) int {
		state := map[int]HealthState{}
		worst := 0
		for _, tr := range f.HealthLog() {
			state[tr.GPU] = tr.To
			n := 0
			for _, st := range state {
				if st != HealthHealthy {
					n++
				}
			}
			if n > worst {
				worst = n
			}
		}
		return worst
	}

	// Default cap for 6 GPUs is max(1, 6/4) = 1: the first conviction holds
	// the only slot (probe re-admission lands past the horizon), so the
	// second victim is never convicted on soft evidence alone.
	f := run(twoSick(0), 0)
	if got := maxConcurrent(f); got != 1 {
		t.Errorf("default cap: max concurrent unhealthy = %d, want 1 (log: %+v)",
			got, f.HealthLog())
	}

	// Raising the cap admits both soft convictions.
	f = run(twoSick(0), 2)
	if got := maxConcurrent(f); got < 2 {
		t.Errorf("cap=2: max concurrent unhealthy = %d, want 2 (log: %+v)",
			got, f.HealthLog())
	}

	// An injected NoC-drop stream is hard evidence: both victims go down
	// concurrently even with the default cap of one.
	f = run(twoSick(0.02), 0)
	if got := maxConcurrent(f); got < 2 {
		t.Errorf("hard bypass: max concurrent unhealthy = %d, want 2 (log: %+v)",
			got, f.HealthLog())
	}
}

// TestClusterGrayAsCrash: the comparison arm kills the convicted GPU
// instead of draining it — availability drops, rollback loses work, and no
// quarantine time accrues.
func TestClusterGrayAsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, rep, tr := runGray(t, func(c *Config) { c.GrayAsCrash = true })
	if len(rep.Crashes) != 1 || rep.Crashes[0].GPU != 1 {
		t.Fatalf("crash log %+v, want one conviction-crash of GPU 1", rep.Crashes)
	}
	if rep.SLO.Availability >= 1 {
		t.Errorf("availability = %g after a conviction-crash, want < 1", rep.SLO.Availability)
	}
	if rep.SLO.QuarantinedGPUCycles != 0 {
		t.Errorf("fail-stop response accrued %d quarantine cycles, want 0",
			rep.SLO.QuarantinedGPUCycles)
	}
	if rep.SLO.GrayDetected != 1 {
		t.Errorf("detected = %d, want 1", rep.SLO.GrayDetected)
	}
	if !bytes.Contains(tr, []byte(`"kind":"gpu-crash"`)) {
		t.Error("merged trace has no gpu-crash event for the conviction")
	}
	_ = f
}

// TestClusterQuarantineOverlapsCrash: a real crash lands on the victim
// mid-quarantine. The open quarantine interval closes at the crash — the
// cycles after it are downtime, not quarantine — and both availabilities
// stay coherent.
func TestClusterQuarantineOverlapsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	_, rep, _ := runGray(t, func(c *Config) {
		// Window runs to the horizon so the victim is still quarantined when
		// the crash hits at 45K.
		c.GrayPlan = []fault.GrayFault{
			{Start: 15_000, End: 60_000, GPU: 1, SMStep: 3, HBMStep: 1, NoCDrop: 0.005},
		}
		c.CrashPlan = []fault.Crash{{Cycle: 45_000, GPU: 1}}
	})
	if len(rep.Crashes) != 1 {
		t.Fatalf("crash log %+v, want 1 crash", rep.Crashes)
	}
	q := rep.SLO.QuarantinedGPUCycles
	if q == 0 {
		t.Fatal("no quarantine time before the crash")
	}
	// Quarantine began after detection (>= 15K + a few epochs) and must have
	// closed at the 45K crash: the interval fits inside (15K, 45K).
	if q >= 30_000 {
		t.Errorf("quarantined %d GPU-cycles, want < 30000 (interval not closed at the crash?)", q)
	}
	if rep.SLO.Availability >= 1 {
		t.Errorf("availability = %g with a dead GPU, want < 1", rep.SLO.Availability)
	}
	if rep.SLO.LCAvailability >= rep.SLO.Availability {
		t.Errorf("LC availability %g not below availability %g",
			rep.SLO.LCAvailability, rep.SLO.Availability)
	}
	if rep.SLO.LCAvailability <= 0 {
		t.Errorf("LC availability = %g, want > 0", rep.SLO.LCAvailability)
	}
}

// TestClusterProbeParkedNeverReadmits: an all-LC cluster drains the victim
// completely at conviction; with no best-effort residents left the GPU has
// no probe signal, parks in quarantined/probing, and never takes LC again —
// deliberately conservative, and it must not deadlock or miscount.
func TestClusterProbeParkedNeverReadmits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	f, rep, _ := runGray(t, func(c *Config) {
		dxtc := mustBench(t, "DXTC")
		var entries []workload.TraceEntry
		for i := 0; i < 16; i++ {
			entries = append(entries, workload.TraceEntry{
				Arrival:     i * 2_000,
				Bench:       dxtc,
				Class:       workload.LatencyCritical,
				AloneCycles: 22_000 + (i%3)*4_000,
			})
		}
		c.Jobs = workload.Trace(entries)
	})
	if rep.SLO.GrayDetected != 1 {
		t.Fatalf("detected = %d, want 1 (log: %+v)", rep.SLO.GrayDetected, f.HealthLog())
	}
	final := f.HealthStates()[1]
	if final == HealthHealthy || final == HealthSuspect {
		t.Errorf("all-LC victim finished %s, want parked in quarantined/probing", final)
	}
	// The open interval still counts as quarantine time at the horizon.
	if rep.SLO.QuarantinedGPUCycles == 0 {
		t.Error("parked victim accrued no quarantine time")
	}
	// Parked is not dead: crash availability stays 1.
	if rep.SLO.Availability != 1 {
		t.Errorf("availability = %g, want 1 (nothing crashed)", rep.SLO.Availability)
	}
}

// TestClusterGrayDeterminism: the full gray pipeline is byte-identical
// serial vs parallel and with fast-forward on or off.
func TestClusterGrayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	run := func(workers int, noFF bool) (*Report, []byte) {
		_, rep, tr := runGray(t, func(c *Config) {
			c.Parallel = workers
			if noFF {
				c.Opt.NoFastForward = true
				opt := testOpt()
				opt.NoFastForward = true
				c.Alone = primedAlone(c.Sim, opt)
			}
		})
		return rep, tr
	}
	serialRep, serialTr := run(1, false)
	for _, workers := range []int{2, 8} {
		rep, tr := run(workers, false)
		if !reflect.DeepEqual(serialRep, rep) {
			t.Errorf("parallel=%d gray report differs from serial:\nserial:   %+v\nparallel: %+v",
				workers, serialRep.SLO, rep.SLO)
		}
		if !bytes.Equal(serialTr, tr) {
			t.Errorf("parallel=%d merged gray trace differs (%d vs %d bytes)",
				workers, len(serialTr), len(tr))
		}
	}
	plainRep, _ := run(1, true)
	if !reflect.DeepEqual(serialRep.SLO, plainRep.SLO) {
		t.Errorf("fast-forward changed the gray SLO report:\nff:    %+v\nplain: %+v",
			serialRep.SLO, plainRep.SLO)
	}
	if !reflect.DeepEqual(serialRep.Outcomes, plainRep.Outcomes) {
		t.Error("fast-forward changed gray job outcomes")
	}
}

// TestClusterGrayConfigValidate: the gray knobs validate like every other
// config field, and GrayAsCrash without a scorer is rejected.
func TestClusterGrayConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative gray GPUs", func(c *Config) { c.Gray.GPUs = -1 }},
		{"negative SM step", func(c *Config) { c.Gray.SMStep = -2 }},
		{"NoC drop >= 1", func(c *Config) { c.Gray.GPUs = 1; c.Gray.NoCDrop = 1 }},
		{"window > 1", func(c *Config) { c.Gray.GPUs = 1; c.Gray.Window = 1.5 }},
		{"crash response without scorer", func(c *Config) { c.Health = nil; c.GrayAsCrash = true }},
	}
	for _, tc := range cases {
		cfg := grayConfig(t)
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	// A seeded spec (no explicit plan) builds a schedule inside the horizon.
	cfg := grayConfig(t)
	cfg.GrayPlan = nil
	cfg.Gray = fault.GraySpec{GPUs: 1}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := f.GrayPlan()
	if len(plan) != 1 {
		t.Fatalf("seeded spec planned %d windows, want 1", len(plan))
	}
	if plan[0].End > uint64(cfg.Sim.MaxCycles) {
		t.Errorf("planned window %+v exceeds the horizon %d", plan[0], cfg.Sim.MaxCycles)
	}
}
