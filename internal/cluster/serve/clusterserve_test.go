package clusterserve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ugpu/internal/config"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/serve"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

func testSim() config.Config {
	cfg := config.Default()
	cfg.EpochCycles = 5_000
	cfg.MaxCycles = 60_000
	return cfg
}

func testOpt() gpu.Options {
	opt := gpu.DefaultOptions()
	opt.FootprintScale = 64
	return opt
}

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

// testJobs is a deterministic 10-job stream: early arrivals across both
// classes, long enough that several are still in flight at the crash.
func testJobs(t *testing.T) []workload.Job {
	t.Helper()
	dxtc, pvc := mustBench(t, "DXTC"), mustBench(t, "PVC")
	var entries []workload.TraceEntry
	for i := 0; i < 10; i++ {
		b, class := dxtc, workload.LatencyCritical
		if i%2 == 1 {
			b, class = pvc, workload.BestEffort
		}
		entries = append(entries, workload.TraceEntry{
			Arrival:     1_000 + i*3_000,
			Bench:       b,
			Class:       class,
			AloneCycles: 15_000 + (i%3)*5_000,
		})
	}
	return workload.Trace(entries)
}

func testConfig(t *testing.T) Config {
	t.Helper()
	sim := testSim()
	return Config{
		GPUs:  4,
		Sim:   sim,
		Opt:   testOpt(),
		Jobs:  testJobs(t),
		Alone: primedAlone(sim, testOpt()),
		CrashPlan: []fault.Crash{
			{Cycle: 20_000, GPU: 1},
		},
	}
}

func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"negative GPUs", func(c *Config) { c.GPUs = -1 }, "clusterserve.GPUs"},
		{"negative Crashes", func(c *Config) { c.Crashes = -2 }, "clusterserve.Crashes"},
		{"negative CheckpointEvery", func(c *Config) { c.CheckpointEvery = -5 }, "clusterserve.CheckpointEvery"},
		{"negative PowerCap", func(c *Config) { c.PowerCap = -1 }, "clusterserve.PowerCap"},
		{"backend knob surfaces", func(c *Config) { c.QueueCap = -1 }, "serve.QueueCap"},
	}
	for _, tc := range cases {
		cfg := testConfig(t)
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
			continue
		}
		var fe *config.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *config.FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: FieldError names %q, want %q", tc.name, fe.Field, tc.field)
		}
	}
}

// runCluster builds and runs one cluster with tracing on, returning the
// report and the merged trace bytes.
func runCluster(t *testing.T, mut func(*Config)) (*Report, []byte) {
	t.Helper()
	cfg := testConfig(t)
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
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, traceJSONL(t, cfg)
}

// traceJSONL concatenates the frontend's and then each backend's trace, as
// JSONL.
func traceJSONL(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range append([]*trace.Tracer{cfg.Trace}, cfg.BackendTracers...) {
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestClusterNoJobLost(t *testing.T) {
	rep, tr := runCluster(t, nil)
	if rep.Arrived != 10 {
		t.Fatalf("arrived %d jobs, want 10", rep.Arrived)
	}
	// Conservation: every arrival ends in exactly one terminal bucket or is
	// still in flight at the horizon; none vanish.
	inFlight := 0
	for _, oc := range rep.Outcomes {
		if !oc.Completed() && !oc.Rejected && oc.Shed == metrics.ShedNone {
			inFlight++
		}
	}
	if rep.Completed+rep.Rejected+rep.Shed+inFlight != rep.Arrived {
		t.Fatalf("job conservation violated: %d+%d+%d+%d != %d",
			rep.Completed, rep.Rejected, rep.Shed, inFlight, rep.Arrived)
	}
	if rep.Completed == 0 {
		t.Fatal("cluster completed no jobs")
	}
	if len(rep.Crashes) != 1 || rep.Crashes[0].GPU != 1 {
		t.Fatalf("crash log: %+v, want one crash of GPU 1", rep.Crashes)
	}
	if rep.Crashes[0].RecoveredAt < rep.Crashes[0].Cycle {
		t.Fatalf("crash never recovered: %+v", rep.Crashes[0])
	}
	if rep.SLO.Crashes != 1 || rep.SLO.Availability >= 1 || rep.SLO.Availability <= 0 {
		t.Fatalf("failover SLO fields: crashes=%d availability=%g",
			rep.SLO.Crashes, rep.SLO.Availability)
	}
	// 3 of 4 GPUs for 2/3 of the run: availability = (3*60K + 20K) / 240K.
	if want := (3.0*60_000 + 20_000) / 240_000; rep.SLO.Availability != want {
		t.Errorf("availability = %g, want %g", rep.SLO.Availability, want)
	}
	if rep.SLO.MTTRCycles <= 0 {
		t.Errorf("MTTR = %g, want > 0", rep.SLO.MTTRCycles)
	}
	// The crash trace event is present exactly once (the second substring
	// match is the counters summary line, which is not an event).
	if n := bytes.Count(tr, []byte(`"kind":"gpu-crash"`)); n != 1 {
		t.Errorf("merged trace has %d gpu-crash events, want 1", n)
	}
	if !bytes.Contains(tr, []byte(`"kind":"checkpoint"`)) {
		t.Error("merged trace has no checkpoint events")
	}
}

func TestClusterDeterminismSerialVsParallel(t *testing.T) {
	serialRep, serialTr := runCluster(t, func(c *Config) { c.Parallel = 1 })
	for _, workers := range []int{2, 8} {
		rep, tr := runCluster(t, func(c *Config) { c.Parallel = workers })
		if !reflect.DeepEqual(serialRep, rep) {
			t.Errorf("parallel=%d report differs from serial:\nserial:   %+v\nparallel: %+v",
				workers, serialRep.SLO, rep.SLO)
		}
		if !bytes.Equal(serialTr, tr) {
			t.Errorf("parallel=%d merged trace differs from serial (%d vs %d bytes)",
				workers, len(serialTr), len(tr))
		}
	}
	// Rerunning the identical serial config reproduces the bytes.
	again, againTr := runCluster(t, func(c *Config) { c.Parallel = 1 })
	if !reflect.DeepEqual(serialRep, again) || !bytes.Equal(serialTr, againTr) {
		t.Error("identical serial reruns differ")
	}
}

func TestClusterFastForwardDifferential(t *testing.T) {
	ffRep, _ := runCluster(t, nil)
	plainRep, _ := runCluster(t, func(c *Config) {
		c.Opt.NoFastForward = true
		// The alone reference must match the backend options to share IPC.
		opt := testOpt()
		opt.NoFastForward = true
		c.Alone = primedAlone(c.Sim, opt)
	})
	if !reflect.DeepEqual(ffRep.SLO, plainRep.SLO) {
		t.Errorf("fast-forward changed the SLO report:\nff:    %+v\nplain: %+v",
			ffRep.SLO, plainRep.SLO)
	}
	if !reflect.DeepEqual(ffRep.Outcomes, plainRep.Outcomes) {
		t.Error("fast-forward changed job outcomes")
	}
}

func TestClusterAllDead(t *testing.T) {
	cfg := testConfig(t)
	cfg.GPUs = 2
	cfg.BackendTracers = nil
	cfg.CrashPlan = []fault.Crash{
		{Cycle: 10_000, GPU: 0},
		{Cycle: 20_000, GPU: 1},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	var dead *AllDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("Run returned %v, want *AllDeadError", err)
	}
	if rep == nil {
		t.Fatal("all-dead run returned no report")
	}
	if len(rep.Crashes) != 2 {
		t.Fatalf("crash log has %d entries, want 2", len(rep.Crashes))
	}
	if rep.SLO.Availability >= 0.5 {
		t.Errorf("availability = %g after total death at 1/3 horizon, want < 0.5",
			rep.SLO.Availability)
	}
	if rep.Completed != 0 && rep.Completed+rep.Shed+rep.Rejected > rep.Arrived {
		t.Errorf("incoherent terminal counts: %+v", rep)
	}
}

func TestClusterRetryExhaustion(t *testing.T) {
	dxtc := mustBench(t, "DXTC")
	cfg := testConfig(t)
	cfg.GPUs = 3
	// One long job; its first home (GPU 0) dies, then its second home dies
	// too, exhausting the single retry.
	cfg.Jobs = workload.Trace([]workload.TraceEntry{
		{Arrival: 0, Bench: dxtc, Class: workload.LatencyCritical, AloneCycles: 200_000},
	})
	cfg.CrashPlan = []fault.Crash{
		{Cycle: 15_000, GPU: 0},
		{Cycle: 40_000, GPU: 1},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.retryCap = 1
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != 1 {
		t.Fatalf("shed %d jobs, want 1 (retry exhaustion)", rep.Shed)
	}
	if rep.Outcomes[0].Shed != metrics.ShedRetryExhausted {
		t.Fatalf("shed reason %v, want retry-exhausted", rep.Outcomes[0].Shed)
	}
	if rep.SLO.Shed != 1 {
		t.Fatalf("SLO.Shed = %d, want 1", rep.SLO.Shed)
	}
	// Both crash windows closed (the shed settles the second one).
	for i, c := range rep.Crashes {
		if c.RecoveredAt < 0 {
			t.Errorf("crash %d never recovered: %+v", i, c)
		}
	}
}

func TestClusterBrownoutEngages(t *testing.T) {
	dxtc, pvc := mustBench(t, "DXTC"), mustBench(t, "PVC")
	// Overload: a 2-GPU cluster loses half its capacity at 15K while a
	// dense stream keeps arriving; queues back up past the brownout delay.
	var entries []workload.TraceEntry
	for i := 0; i < 40; i++ {
		b, class := dxtc, workload.LatencyCritical
		if i%2 == 1 {
			b, class = pvc, workload.BestEffort
		}
		entries = append(entries, workload.TraceEntry{
			Arrival:     1_000 * i,
			Bench:       b,
			Class:       class,
			AloneCycles: 20_000,
		})
	}
	cfg := testConfig(t)
	cfg.GPUs = 2
	cfg.QueueCap = 4
	cfg.Brownout = true
	cfg.Jobs = workload.Trace(entries)
	cfg.CrashPlan = []fault.Crash{{Cycle: 10_000, GPU: 0}}
	cfg.Trace = trace.New(trace.DefaultCapacity)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxTier < 1 {
		t.Fatalf("brownout never engaged under overload: %+v", rep)
	}
	if rep.Brownouts < 1 {
		t.Fatal("no tier transitions recorded")
	}
	shedBE := 0
	for _, oc := range rep.Outcomes {
		if oc.Shed == metrics.ShedBrownoutBE {
			shedBE++
		}
	}
	if shedBE == 0 {
		t.Error("tier 1 shed no best-effort arrivals")
	}
	if got := cfg.Trace.Count(trace.KBrownout); got == 0 {
		t.Error("no brownout trace events emitted")
	}
}

// TestClusterBackendModeMatchesSingleServer sanity-checks the plumbing: a
// 1-GPU cluster with no crashes serves the same stream to the same
// completions as a standalone serve.Server.
func TestClusterBackendModeMatchesSingleServer(t *testing.T) {
	jobs := testJobs(t)
	sim := testSim()
	alone := primedAlone(sim, testOpt())

	cfg := Config{
		GPUs:  1,
		Sim:   sim,
		Opt:   testOpt(),
		Jobs:  jobs,
		Alone: alone,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Config{
		Sim: sim, Opt: testOpt(), Jobs: jobs, Alone: alone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crep.Completed != srep.SLO.Completed {
		t.Errorf("1-GPU cluster completed %d, standalone server %d",
			crep.Completed, srep.SLO.Completed)
	}
	// Completion cycles may differ by one epoch of dispatch latency, so
	// compare the set of completed job IDs, not exact finish times.
	for i := range crep.Outcomes {
		if crep.Outcomes[i].Completed() != srep.Outcomes[i].Completed() {
			t.Errorf("job %d completion differs: cluster %v, standalone %v",
				i, crep.Outcomes[i].Completed(), srep.Outcomes[i].Completed())
		}
	}
}
